"""Tests for the batched lockstep sweep kernel (repro.network.batched).

The load-bearing suite is :class:`TestGoldenEquivalence`: for **every**
policy in the registry, a knob-divergent batch on the 8x8 reference mesh
must produce results *strictly equal* (``==``, not approximately equal)
to running the scalar kernel once per config. Equality here covers every
SimulationResult field — counters, latencies, power, energy — so any
drift between the two kernels fails loudly.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import types

import pytest

from repro.core.registry import get_policy_spec, policy_sweep_grid, registered_policies
from repro.core.thresholds import TABLE2_SETTINGS
from repro.errors import ConfigError, SimulationError
from repro.network import batched
from repro.network.batched import (
    BatchedEngine,
    compatibility_key,
    plan_batches,
    require_numpy,
    run_batch,
)
from repro.network.simulator import Simulator

from .conftest import small_config, subprocess_env


def reference_config(policy: str, **kwargs):
    """The 8x8 golden-equivalence scenario: two_level traffic, fast link."""
    defaults = dict(
        radix=8,
        policy=policy,
        rate=0.6,
        warmup=200,
        measure=400,
        workload_kind="two_level",
        seed=7,
        average_tasks=5,
        average_task_duration_s=3.0e-6,
    )
    defaults.update(kwargs)
    return small_config(**defaults)


def knob_variants(policy: str, base):
    """Batch members for *policy*: registry sweep-grid knob assignments,
    plus Table 2 threshold settings for threshold-reading policies. All
    share *base*'s compatibility key by construction."""
    spec = get_policy_spec(policy)
    configs = [
        dataclasses.replace(
            base, dvs=dataclasses.replace(base.dvs, params=params)
        )
        for params in policy_sweep_grid(policy)[:3]
    ]
    if spec.uses_thresholds:
        configs.extend(
            dataclasses.replace(
                base, dvs=dataclasses.replace(base.dvs, thresholds=setting)
            )
            for setting in (TABLE2_SETTINGS["I"], TABLE2_SETTINGS["VI"])
        )
    return configs


class TestGoldenEquivalence:
    @pytest.mark.parametrize("policy", registered_policies())
    def test_every_registered_policy_is_bit_identical(self, policy):
        configs = knob_variants(policy, reference_config(policy))
        engine = BatchedEngine(configs)
        batched_results = engine.run()
        for config, result in zip(configs, batched_results, strict=False):
            assert Simulator(config).run() == result

    def test_divergent_history_sweep_splits_and_stays_identical(self):
        base = reference_config("history", radix=4, measure=600)
        configs = [
            dataclasses.replace(
                base,
                dvs=dataclasses.replace(
                    base.dvs, thresholds=thresholds, ewma_weight=weight
                ),
            )
            for weight in (1.0, 3.0)
            for thresholds in (TABLE2_SETTINGS["I"], TABLE2_SETTINGS["IV"])
        ]
        engine = BatchedEngine(configs)
        results = engine.run()
        assert engine.splits > 0
        assert engine.class_count > 1
        for config, result in zip(configs, results, strict=False):
            assert Simulator(config).run() == result

    def test_convergent_batch_stays_one_class(self):
        base = reference_config("static", radix=4)
        configs = [base] * 4
        engine = BatchedEngine(configs)
        results = engine.run()
        assert engine.class_count == 1
        assert engine.splits == 0
        scalar = Simulator(base).run()
        assert all(result == scalar for result in results)

    def test_run_batch_convenience_matches_engine(self):
        base = reference_config("none", radix=4)
        assert run_batch([base]) == [Simulator(base).run()]


class TestCompatibilityKey:
    def test_knob_variants_share_a_key(self):
        base = reference_config("history", radix=4)
        for variant in knob_variants("history", base):
            assert compatibility_key(variant) == compatibility_key(base)

    @pytest.mark.parametrize(
        "change",
        [
            dict(rate=0.3),
            dict(seed=8),
            dict(radix=3),
            dict(measure=500),
            dict(policy="static"),
        ],
    )
    def test_everything_else_changes_the_key(self, change):
        base = reference_config("history", radix=4)
        merged = {"policy": "history", "radix": 4, **change}
        other = reference_config(merged.pop("policy"), **merged)
        assert compatibility_key(other) != compatibility_key(base)


class TestPlanBatches:
    def test_groups_by_key_preserving_order(self):
        a = reference_config("history", radix=4)
        b = reference_config("history", radix=4, seed=9)
        a2 = dataclasses.replace(
            a, dvs=dataclasses.replace(a.dvs, ewma_weight=5.0)
        )
        batches = plan_batches([a, b, a2, b])
        assert batches == [[0, 2], [1, 3]]

    def test_max_batch_chunks_a_group(self):
        base = reference_config("history", radix=4)
        batches = plan_batches([base] * 5, max_batch=2)
        assert batches == [[0, 1], [2, 3], [4]]

    def test_bad_max_batch_rejected(self):
        with pytest.raises(ConfigError):
            plan_batches([], max_batch=0)


class TestEngineSurface:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError, match="at least one config"):
            BatchedEngine([])

    def test_mixed_compatibility_keys_rejected(self):
        a = reference_config("history", radix=4)
        b = reference_config("history", radix=4, seed=9)
        with pytest.raises(ConfigError, match="compatibility key"):
            BatchedEngine([a, b])

    def test_run_is_single_shot(self):
        engine = BatchedEngine([reference_config("none", radix=3)])
        engine.run()
        with pytest.raises(SimulationError, match="only be called once"):
            engine.run()

    def test_energy_ledger_shape_and_integrality(self):
        np = require_numpy()
        base = reference_config("history", radix=3)
        engine = BatchedEngine(knob_variants("history", base))
        engine.run()
        ledger = engine.member_energy_femtojoules()
        assert ledger.shape[0] == engine.n_members
        assert ledger.shape[1] > 0
        assert ledger.dtype == np.int64
        assert (ledger > 0).all()


class TestNumpyGate:
    """require_numpy imports numpy on demand, so the gate is exercised by
    shadowing ``sys.modules["numpy"]``: ``None`` makes the import fail,
    a stand-in object makes it return an antique release."""

    def test_missing_numpy_is_a_config_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ConfigError, match="--kernel scalar"):
            require_numpy()

    def test_old_numpy_is_a_config_error(self, monkeypatch):
        monkeypatch.setitem(
            sys.modules, "numpy", types.SimpleNamespace(__version__="1.8.0")
        )
        with pytest.raises(ConfigError, match="1.8.0"):
            require_numpy()

    def test_engine_construction_checks_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ConfigError, match="numpy"):
            BatchedEngine([reference_config("none", radix=3)])

    def test_backend_construction_checks_numpy(self, monkeypatch):
        from repro.harness.backends import BatchedBackend

        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ConfigError, match="numpy"):
            BatchedBackend()

    def test_scalar_entry_points_do_not_import_numpy(self):
        """The CLI, scalar sweeps and fabric workers start without numpy;
        only building the batched kernel loads it."""
        probe = (
            "import sys\n"
            "import repro.cli, repro.harness.sweep, "
            "repro.harness.distributed.worker\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
            check=True,
        )
        assert completed.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "text,expected",
        [("1.22.4", (1, 22)), ("2.4.6", (2, 4)), ("1.22rc1", (1, 22)), ("", (0, 0))],
    )
    def test_version_parsing(self, text, expected):
        assert batched._version_tuple(text) == expected
