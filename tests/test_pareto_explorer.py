"""The cross-policy Pareto frontier explorer (repro.harness.pareto).

The acceptance campaign at the bottom is the PR's proof obligation: a
frontier over >= 4 registered policies on the 8x8 mesh that is
bit-identical between the Serial and ProcessPool backends and replays
simulation-free from the sweep cache.
"""

import csv
import json
import math

import pytest

from repro.errors import ExperimentError
from repro.harness import cache as cache_mod
from repro.harness.backends import make_backend
from repro.harness.pareto import (
    PARETO_COLUMNS,
    ParetoPoint,
    frontier,
    mark_frontier,
    pareto_configs,
    pareto_grid,
    run_pareto,
    write_pareto_csv,
    write_pareto_json,
)
from repro.harness.scales import DEFAULT_SCALE


def point(
    policy="p",
    label=None,
    rate=0.5,
    latency=100.0,
    power=0.5,
    params=None,
):
    return ParetoPoint(
        policy=policy,
        label=label if label is not None else policy,
        params=dict(params or {}),
        target_rate=rate,
        offered_rate=rate,
        accepted_rate=rate,
        mean_latency=latency,
        median_latency=latency,
        normalized_power=power,
        savings_factor=1.0 / power if power else math.inf,
        transition_count=0,
        fingerprint_sha256="0" * 64,
    )


class TestFrontierMath:
    def test_dominated_point_excluded(self):
        good = point("a", latency=50.0, power=0.4)
        bad = point("b", latency=60.0, power=0.5)  # worse on both axes
        marked = mark_frontier([good, bad])
        assert [p.on_frontier for p in marked] == [True, False]

    def test_strictly_better_on_one_axis_dominates_ties_on_other(self):
        cheap = point("a", latency=50.0, power=0.4)
        same_latency_pricier = point("b", latency=50.0, power=0.6)
        marked = mark_frontier([cheap, same_latency_pricier])
        assert [p.on_frontier for p in marked] == [True, False]

    def test_exact_ties_are_both_kept(self):
        twin_a = point("a", latency=50.0, power=0.4)
        twin_b = point("b", latency=50.0, power=0.4)
        marked = mark_frontier([twin_a, twin_b])
        assert [p.on_frontier for p in marked] == [True, True]

    def test_tradeoff_points_coexist(self):
        fast_hungry = point("a", latency=40.0, power=0.9)
        slow_frugal = point("b", latency=90.0, power=0.2)
        marked = mark_frontier([fast_hungry, slow_frugal])
        assert all(p.on_frontier for p in marked)

    def test_nan_latency_never_joins_frontier(self):
        dead = point("a", latency=math.nan, power=0.0)
        live = point("b", latency=200.0, power=0.9)
        marked = mark_frontier([dead, live])
        assert [p.on_frontier for p in marked] == [False, True]

    def test_frontiers_are_per_target_rate(self):
        # Dominated in absolute terms, but by a point at another rate:
        # different offered loads are never compared.
        low = point("a", rate=0.1, latency=50.0, power=0.2)
        high = point("b", rate=0.9, latency=80.0, power=0.7)
        marked = mark_frontier([low, high])
        assert all(p.on_frontier for p in marked)

    def test_input_order_preserved_and_originals_untouched(self):
        pts = [point("a", latency=60.0), point("b", latency=50.0, power=0.3)]
        marked = mark_frontier(pts)
        assert [p.policy for p in marked] == ["a", "b"]
        assert all(not p.on_frontier for p in pts)  # frozen inputs copied

    def test_frontier_filters_marked_points(self):
        marked = mark_frontier(
            [point("a", latency=50.0, power=0.4), point("b", latency=60.0, power=0.5)]
        )
        assert [p.policy for p in frontier(marked)] == ["a"]


class TestCampaignShape:
    def test_default_grid_covers_every_registered_policy(self):
        from repro.core.registry import registered_policies

        grid = pareto_grid()
        assert {name for name, _ in grid} == set(registered_policies())

    def test_policy_grid_is_the_declared_sweep(self):
        grid = pareto_grid(["static"])
        assert {g["static_level"] for _, g in grid} == {0, 3, 6, 9}

    def test_grid_overrides_replace_declared_sweep(self):
        grid = pareto_grid(
            ["static", "oracle"],
            grid_overrides={"static": [{"static_level": 7}]},
        )
        static_rows = [g for name, g in grid if name == "static"]
        assert static_rows == [{"static_level": 7}]
        assert any(name == "oracle" for name, _ in grid)

    def test_configs_are_grid_outer_rates_inner(self):
        base = DEFAULT_SCALE.shrink(0.1).simulation(0.5)
        rates = (0.1, 0.9)
        grid, configs = pareto_configs(
            base,
            rates,
            ["none", "oracle"],
            grid_overrides={"none": [{}], "oracle": [{}]},
        )
        assert len(configs) == len(grid) * len(rates)
        expected = [
            (name, rate) for name, _ in grid for rate in rates
        ]
        got = [
            (c.dvs.policy, c.workload.injection_rate) for c in configs
        ]
        assert got == expected

    def test_empty_rates_rejected(self):
        base = DEFAULT_SCALE.shrink(0.1).simulation(0.5)
        with pytest.raises(ExperimentError, match="rate"):
            pareto_configs(base, ())

    def test_empty_grid_rejected(self):
        base = DEFAULT_SCALE.shrink(0.1).simulation(0.5)
        with pytest.raises(ExperimentError, match="policy"):
            pareto_configs(base, (0.5,), policies=())


# --- Acceptance campaign -------------------------------------------------
#
# Four policies, one default knob assignment each, one rate, on the 8x8
# mesh at a 10x-shrunk default scale. Run once (serial, through a tmp
# cache) by the module fixture; the tests below reuse those points.

ACCEPTANCE_POLICIES = ("history", "error_correction", "link_shutdown", "oracle")
ACCEPTANCE_PIN = {name: [{}] for name in ACCEPTANCE_POLICIES}
ACCEPTANCE_RATE = 0.3


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    # The conftest autouse fixture re-disables REPRO_CACHE per test, so
    # the campaign run here (module setup precedes function fixtures)
    # populates the cache dir, and cache-dependent tests below opt back
    # in by pointing REPRO_CACHE at it again.
    cache_dir = str(tmp_path_factory.mktemp("pareto-cache"))
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE", cache_dir)
    cache_mod.reset_cache()
    try:
        base = DEFAULT_SCALE.shrink(0.1).simulation(
            ACCEPTANCE_RATE, workload_overrides={"seed": 11}
        )
        points = run_pareto(
            base,
            (ACCEPTANCE_RATE,),
            ACCEPTANCE_POLICIES,
            backend=make_backend(1),
            grid_overrides=ACCEPTANCE_PIN,
        )
        yield base, points, cache_dir
    finally:
        mp.undo()
        cache_mod.reset_cache()


class TestAcceptanceCampaign:
    def test_covers_at_least_four_policies_on_8x8(self, campaign):
        base, points, _ = campaign
        assert base.network.radix == 8
        assert {p.policy for p in points} == set(ACCEPTANCE_POLICIES)
        assert frontier(points)  # a non-empty non-dominated set
        assert all(len(p.fingerprint_sha256) == 64 for p in points)

    def test_processpool_is_bit_identical_to_serial(self, campaign):
        base, serial_points, _ = campaign
        # The autouse conftest fixture already has REPRO_CACHE off here,
        # so the pool genuinely re-simulates every point.
        cache_mod.reset_cache()
        try:
            pool_points = run_pareto(
                base,
                (ACCEPTANCE_RATE,),
                ACCEPTANCE_POLICIES,
                backend=make_backend(2),
                grid_overrides=ACCEPTANCE_PIN,
            )
        finally:
            cache_mod.reset_cache()
        assert pool_points == serial_points

    def test_cache_resume_replays_simulation_free(self, campaign, monkeypatch):
        base, first, cache_dir = campaign
        monkeypatch.setenv("REPRO_CACHE", cache_dir)
        cache_mod.reset_cache()

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("cached pareto re-run simulated a config")

        monkeypatch.setattr("repro.harness.backends.run_simulation", boom)
        second = run_pareto(
            base,
            (ACCEPTANCE_RATE,),
            ACCEPTANCE_POLICIES,
            backend=make_backend(1),
            grid_overrides=ACCEPTANCE_PIN,
        )
        assert second == first

    def test_json_artifact_has_provenance(self, campaign, tmp_path):
        _, points, _ = campaign
        path = tmp_path / "pareto.json"
        write_pareto_json(points, str(path))
        payload = json.loads(path.read_text())
        assert payload["columns"] == list(PARETO_COLUMNS)
        assert len(payload["points"]) == len(points)
        by_label = {p["label"]: p for p in payload["points"]}
        for p in points:
            assert by_label[p.label]["fingerprint_sha256"] == p.fingerprint_sha256
        assert payload["frontier_labels"] == [
            f"{p.label} @ {p.target_rate:g}" for p in frontier(points)
        ]

    def test_csv_artifact_round_trips(self, campaign, tmp_path):
        _, points, _ = campaign
        path = tmp_path / "pareto.csv"
        write_pareto_csv(points, str(path))
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(PARETO_COLUMNS)
        assert len(rows) == len(points) + 1
        assert [r[0] for r in rows[1:]] == [p.policy for p in points]
        assert [r[-2] for r in rows[1:]] == [str(int(p.on_frontier)) for p in points]
