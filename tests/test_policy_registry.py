"""The policy plugin registry: listing, validation, labels, sweep grids."""

import inspect
from pathlib import Path

import pytest

from repro.config import DVSControlConfig, SimulationConfig
from repro.core.levels import PAPER_TABLE
from repro.core.policy import DVSPolicy, HistoryDVSPolicy, PolicyInputs, StaticLevelPolicy
from repro.core.policy_zoo import ErrorCorrectionPolicy, OraclePolicy
from repro.core.registry import (
    PolicyBuildContext,
    PolicyKnob,
    build_policy,
    describe_registry,
    get_policy_spec,
    knob_values,
    policy_label,
    policy_sweep_grid,
    registered_policies,
)
from repro.core.thresholds import TABLE2_SETTINGS
from repro.errors import ConfigError

from .conftest import make_policy

#: Registered policies that build a controller (every one but ``none``).
BUILT = [name for name in registered_policies() if get_policy_spec(name).factory]

POLICIES_DOC = Path(__file__).resolve().parent.parent / "docs" / "policies.md"


class TestListing:
    def test_all_builtin_policies_registered(self):
        names = registered_policies()
        for expected in (
            "none",
            "history",
            "static",
            "lu_only",
            "adaptive_threshold",
            "error_correction",
            "link_shutdown",
            "oracle",
        ):
            assert expected in names

    def test_listing_is_sorted(self):
        names = registered_policies()
        assert list(names) == sorted(names)

    def test_describe_registry_mentions_every_policy_and_knob(self):
        text = describe_registry()
        for name in registered_policies():
            assert name in text
        assert "static_level" in text
        assert "sleep_lu" in text
        assert "headroom" in text

    def test_roster_table_names_every_policy_and_knob(self):
        """docs/policies.md's roster has a row per registered policy that
        names each of its knobs: a policy or knob added without docs fails."""
        text = POLICIES_DOC.read_text(encoding="utf-8")
        roster = text.split("## The builtin roster", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in roster.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 3:
                rows[cells[0].strip("`")] = cells[2]
        for name in registered_policies():
            assert name in rows, f"docs/policies.md roster lacks {name!r}"
            for knob in get_policy_spec(name).knobs:
                assert f"`{knob.name}`" in rows[name], (name, knob.name)


class TestOneDeclarationPerKnob:
    """Each knob is declared once, as a PolicyKnob: the registered class
    takes exactly the knob names, and ``build_policy`` hands it their
    resolved values."""

    def test_every_entry_but_none_is_its_policy_class(self):
        assert get_policy_spec("none").factory is None
        for name in BUILT:
            factory = get_policy_spec(name).factory
            assert isinstance(factory, type) and issubclass(factory, DVSPolicy)

    @pytest.mark.parametrize("name", BUILT)
    def test_keyword_only_parameters_are_the_knobs_without_defaults(self, name):
        spec = get_policy_spec(name)
        parameters = inspect.signature(spec.factory).parameters.values()
        keyword_only = [p for p in parameters if p.kind is p.KEYWORD_ONLY]
        assert [p.name for p in parameters if p.kind is not p.KEYWORD_ONLY] == [
            "context"
        ]
        assert [p.name for p in keyword_only] == [knob.name for knob in spec.knobs]
        assert all(p.default is p.empty for p in keyword_only)

    @pytest.mark.parametrize("name", BUILT)
    def test_builds_at_every_grid_assignment_holding_its_values(self, name):
        for assignment in policy_sweep_grid(name):
            policy = make_policy(name, **assignment)
            assert type(policy) is get_policy_spec(name).factory
            for knob, value in assignment.items():
                if knob == "ewma_weight":
                    held = policy._lu_predictor.weight
                else:
                    held = getattr(policy, knob)
                assert held == value, (knob, assignment)


class TestConfigValidation:
    def test_unknown_policy_rejected_with_registry_listing(self):
        with pytest.raises(ConfigError, match="registered policies"):
            DVSControlConfig(policy="does_not_exist")

    def test_unknown_param_rejected_listing_declared_knobs(self):
        with pytest.raises(ConfigError, match="declared knobs"):
            DVSControlConfig(policy="history", params={"gain": 2.0})

    def test_param_below_minimum_rejected(self):
        with pytest.raises(ConfigError, match="below"):
            DVSControlConfig(policy="oracle", params={"headroom": 0.0})

    def test_param_above_maximum_rejected(self):
        with pytest.raises(ConfigError, match="above"):
            DVSControlConfig(policy="error_correction", params={"error_rate": 1.5})

    def test_integer_knob_rejects_fractional_value(self):
        with pytest.raises(ConfigError, match="integer"):
            DVSControlConfig(policy="link_shutdown", params={"sleep_patience": 2.5})

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ConfigError, match="number"):
            DVSControlConfig(policy="oracle", params={"headroom": "wide"})
        with pytest.raises(ConfigError, match="number"):
            DVSControlConfig(policy="oracle", params={"headroom": True})

    def test_valid_params_accepted(self):
        dvs = DVSControlConfig(policy="oracle", params={"headroom": 0.7})
        assert dvs.params["headroom"] == 0.7

    def test_static_level_outside_table_rejected_at_simulation_config(self):
        # DVSControlConfig alone cannot know the table size, so level 12
        # passes its bounds check; SimulationConfig re-validates against
        # the actual 10-level link table and rejects at config time.
        dvs = DVSControlConfig(policy="static", params={"static_level": 12})
        with pytest.raises(ConfigError, match="10-level"):
            SimulationConfig(dvs=dvs)

    def test_static_level_inside_table_accepted(self):
        dvs = DVSControlConfig(policy="static", params={"static_level": 9})
        config = SimulationConfig(dvs=dvs)
        assert config.dvs.params["static_level"] == 9

    def test_legacy_static_level_attr_still_validated(self):
        with pytest.raises(ConfigError, match="10-level"):
            SimulationConfig(dvs=DVSControlConfig(policy="static", static_level=10))


class TestKnobResolution:
    def test_params_override_legacy_attr(self):
        dvs = DVSControlConfig(
            policy="history", ewma_weight=5.0, params={"ewma_weight": 7.0}
        )
        assert knob_values(dvs)["ewma_weight"] == 7.0

    def test_legacy_attr_used_when_params_silent(self):
        dvs = DVSControlConfig(policy="history", ewma_weight=5.0)
        assert knob_values(dvs)["ewma_weight"] == 5.0

    def test_default_used_when_neither_given(self):
        dvs = DVSControlConfig(policy="oracle")
        assert knob_values(dvs)["headroom"] == 0.9

    def test_integer_knobs_resolve_to_ints(self):
        dvs = DVSControlConfig(policy="static", params={"static_level": 3.0})
        value = knob_values(dvs)["static_level"]
        assert value == 3 and isinstance(value, int)


class TestBuildPolicy:
    def test_history_factory_matches_config(self):
        dvs = DVSControlConfig(
            policy="history", ewma_weight=5.0, thresholds=TABLE2_SETTINGS["VI"]
        )
        policy = build_policy(dvs, PolicyBuildContext(dvs.thresholds, PAPER_TABLE, 0))
        assert isinstance(policy, HistoryDVSPolicy)
        assert policy.thresholds is TABLE2_SETTINGS["VI"]
        assert policy._lu_predictor.weight == 5.0

    def test_static_factory_pins_level(self):
        policy = make_policy("static", static_level=4)
        assert isinstance(policy, StaticLevelPolicy)
        assert policy.static_level == 4

    def test_oracle_factory_uses_context_table(self):
        policy = make_policy("oracle")
        assert isinstance(policy, OraclePolicy)
        assert policy.table is PAPER_TABLE

    def test_error_correction_seed_mixes_channel_index(self):
        """Channels 0 and 1 of one config draw different error streams:
        under identical inputs where the error model fires about half the
        time (LU 0.9, five levels of undervolt), their decisions differ."""
        a = make_policy("error_correction", channel_index=0)
        b = make_policy("error_correction", channel_index=1)
        assert isinstance(a, ErrorCorrectionPolicy)
        window = PolicyInputs(
            link_utilization=0.9,
            buffer_utilization=0.0,
            level=4,
            max_level=9,
            cycle=0,
        )
        trace_a = [a.decide(window) for _ in range(100)]
        trace_b = [b.decide(window) for _ in range(100)]
        assert a.errors_observed > 0 and b.errors_observed > 0
        assert trace_a != trace_b

    def test_none_builds_no_controller(self):
        with pytest.raises(ConfigError, match="builds no controller"):
            make_policy("none")


class TestPolicyLabel:
    def test_defaults_render_as_bare_name(self):
        assert policy_label(DVSControlConfig(policy="history")) == "history"
        assert policy_label(DVSControlConfig(policy="none")) == "none"

    def test_non_default_knobs_rendered(self):
        dvs = DVSControlConfig(policy="static", params={"static_level": 3})
        assert policy_label(dvs) == "static(static_level=3)"

    def test_legacy_attr_shows_in_label(self):
        dvs = DVSControlConfig(policy="history", ewma_weight=7.0)
        assert policy_label(dvs) == "history(ewma_weight=7)"


class TestSweepGrid:
    def test_knob_free_policy_contributes_default_assignment(self):
        assert policy_sweep_grid("none") == [{}]

    def test_static_grid_covers_declared_sweep(self):
        grid = policy_sweep_grid("static")
        assert {g["static_level"] for g in grid} == {0, 3, 6, 9}

    def test_cartesian_product_over_multiple_swept_knobs(self):
        grid = policy_sweep_grid("link_shutdown")
        # sleep_lu x sleep_patience, 2 values each; unswept knobs pinned.
        assert len(grid) == 4
        assert all(set(g) == {"sleep_lu", "sleep_patience"} for g in grid)

    def test_every_grid_assignment_is_a_valid_config(self):
        for name in registered_policies():
            for assignment in policy_sweep_grid(name):
                DVSControlConfig(policy=name, params=dict(assignment))


class TestRegistration:
    def test_duplicate_name_rejected(self):
        from repro.core.registry import register_policy

        with pytest.raises(ConfigError, match="already registered"):

            @register_policy("history", description="imposter")
            def _imposter(dvs, context):  # pragma: no cover - never built
                raise AssertionError

    def test_duplicate_knob_name_rejected(self):
        from repro.core.registry import register_policy

        with pytest.raises(ConfigError, match="twice"):
            register_policy(
                "twice_knobbed",
                description="bad",
                knobs=(PolicyKnob("k"), PolicyKnob("k")),
            )
