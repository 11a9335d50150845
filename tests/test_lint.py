"""repro-lint: the repo stays clean, the fixtures stay caught."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import baseline as baseline_io
from repro.analysis.lint import RULES, Linter, Violation, lint_paths, main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"


def _lint_source(source: str, path: str) -> list[Violation]:
    linter = Linter(include_fixtures=True)
    linter.add_source(textwrap.dedent(source), path)
    assert linter.errors == []
    return linter.run()


def _lint_sources(sources: dict[str, str]) -> list[Violation]:
    """Lint several in-memory modules as one project model."""
    linter = Linter(include_fixtures=True)
    for path, source in sources.items():
        linter.add_source(textwrap.dedent(source), path)
    assert linter.errors == []
    return linter.run()


class TestRepoIsClean:
    def test_src_and_tests_have_no_violations(self):
        # Pre-existing interprocedural findings live in the committed
        # baseline (each with a reviewed justification); anything NOT in
        # the baseline fails this test.
        violations, errors = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], baseline=BASELINE
        )
        assert errors == []
        assert violations == []

    def test_baseline_is_fully_justified_and_live(self):
        entries = baseline_io.load(BASELINE)
        assert entries, "baseline exists but is empty; delete it instead"
        for entry in entries:
            justification = str(entry.get("justification", ""))
            assert justification
            assert justification != baseline_io.TODO_JUSTIFICATION, entry
        # Every entry still matches a real finding (no stale rot).
        linter = Linter()
        linter.add_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        violations = linter.run()
        _, matched, stale = baseline_io.apply(
            violations, entries, linter.source_line
        )
        assert stale == []
        assert len(matched) == len(entries)

    def test_worker_reach_covers_the_scalar_kernel_and_traffic(self):
        """R11 walks from the worker entry points into the kernel the
        workers run, not only into the harness around it."""
        from repro.analysis.isolation import WORKER_ENTRY_POINTS

        linter = Linter()
        linter.add_paths([REPO_ROOT / "src"])
        model = linter.model
        roots = [
            function.qualname
            for name in WORKER_ENTRY_POINTS
            for function in model.functions_named(name)
        ]
        reach = model.reachable_from(roots)
        for qualname in (
            "repro.network.engine.SimulationEngine.step",
            "repro.network.simulator.Simulator.run",
            "repro.core.registry._ensure_builtins",
            "repro.traffic.tasks.TwoLevelWorkload.__init__",
        ):
            assert qualname in reach, qualname

    def test_cli_exit_zero_on_clean_tree(self, capsys):
        assert main([str(REPO_ROOT / "src"), "--baseline", str(BASELINE)]) == 0
        out = capsys.readouterr().out
        assert "repro-lint: clean" in out
        assert "baseline finding(s)" in out


class TestFixtureViolations:
    def test_fixture_trips_every_rule_exactly_once(self):
        violations, errors = lint_paths([FIXTURES], include_fixtures=True)
        assert errors == []
        # R6 appears three times: the container-allocation flavor
        # (contracts.py), the numpy-temporary flavor
        # (repro/network/batched.py), and the deepcopy flavor
        # (repro/network/splitter.py).
        assert sorted(v.rule for v in violations) == sorted(
            list(RULES) + ["R6", "R6"]
        )

    def test_fixtures_excluded_by_default(self):
        violations, errors = lint_paths([FIXTURES])
        assert errors == []
        assert violations == []

    def test_cli_exit_one_on_fixture(self, capsys):
        assert main([str(FIXTURES), "--include-fixtures", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "violation(s)" in out

    def test_json_format_is_machine_readable(self, capsys):
        assert (
            main(
                [
                    str(FIXTURES),
                    "--include-fixtures",
                    "--no-baseline",
                    "--format",
                    "json",
                ]
            )
            == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == []
        assert report["rules"] == RULES
        assert {v["rule"] for v in report["violations"]} == set(RULES)
        for violation in report["violations"]:
            assert violation["name"] == RULES[violation["rule"]]
            assert violation["line"] > 0
        # Suppressed fixture examples are tallied per rule, not dropped
        # silently; every rule with a suppression example shows up.
        for rule in ("R1", "R7", "R8", "R9", "R10", "R11"):
            assert report["suppressions"].get(rule, 0) >= 1
        assert report["baseline"] == {"path": None, "matched": 0, "stale": []}

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().err


class TestRuleR1:
    def test_global_random_flagged_only_in_simulation_paths(self):
        source = """
            import random

            def pick():
                return random.random()
            """
        assert [v.rule for v in _lint_source(source, "src/repro/traffic/x.py")] == ["R1"]
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_seeded_constructors_and_state_plumbing_allowed(self):
        source = """
            import random

            def build(seed):
                rng = random.Random(seed)
                state = rng.getstate()
                rng.setstate(state)
                return rng
            """
        assert _lint_source(source, "src/repro/traffic/x.py") == []

    def test_numpy_global_flagged_seeded_generator_allowed(self):
        source = """
            import numpy as np

            def bad():
                return np.random.rand()

            def ok(seed):
                return np.random.default_rng(seed)
            """
        violations = _lint_source(source, "src/repro/core/x.py")
        assert [v.rule for v in violations] == ["R1"]
        assert "numpy" in violations[0].message

    def test_wall_clock_flagged(self):
        source = """
            import time

            def stamp():
                return time.monotonic()
            """
        violations = _lint_source(source, "src/repro/network/x.py")
        assert [v.rule for v in violations] == ["R1"]
        assert "wall-clock" in violations[0].message


class TestRuleR2:
    def test_unsorted_dirty_set_iteration_caught(self):
        # The "unsorted dirty-set iteration" mutation kernel: statically
        # caught before it can ever produce a nondeterministic run.
        source = """
            class Engine:
                def __init__(self):
                    self._active: set[int] = set()

                def step(self):
                    for node in self._active:
                        self.routers[node].step()
            """
        violations = _lint_source(source, "src/repro/network/engine.py")
        assert [v.rule for v in violations] == ["R2"]
        assert "sorted" in violations[0].message

    def test_sorted_wrapper_and_other_files_pass(self):
        sorted_source = """
            def step(active: set[int]):
                for node in sorted(active):
                    pass
            """
        assert _lint_source(sorted_source, "src/repro/network/engine.py") == []
        unsorted = """
            def step(active: set[int]):
                for node in active:
                    pass
            """
        # Only the hot-path files are in scope for R2.
        assert _lint_source(unsorted, "src/repro/network/topology.py") == []

    def test_dict_values_iteration_caught(self):
        source = """
            def drain(buckets: dict):
                for bucket in buckets.values():
                    pass
            """
        violations = _lint_source(source, "src/repro/network/router.py")
        assert [v.rule for v in violations] == ["R2"]


class TestRuleR5:
    def test_unions_containers_and_nested_dataclasses_accepted(self):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ThresholdSet:
                low: float = 0.25

            @dataclass(frozen=True)
            class GoodConfig:
                level: int | None = None
                rates: tuple[float, ...] = ()
                names: dict[str, int] | None = None
                thresholds: ThresholdSet = ThresholdSet()
            """
        assert _lint_source(source, "src/repro/config.py") == []

    def test_arbitrary_object_field_rejected(self):
        source = """
            from dataclasses import dataclass
            from typing import Any

            @dataclass
            class BadConfig:
                payload: Any = None
            """
        violations = _lint_source(source, "src/repro/config.py")
        assert [v.rule for v in violations] == ["R5"]
        assert "BadConfig.payload" in violations[0].message


class TestRuleR6:
    def test_literal_in_marked_function_flagged(self):
        source = """
            def drain(events):  # repro-hot
                out = []
                for event in events:
                    out.append(event)
                return out
            """
        violations = _lint_source(source, "src/repro/network/engine.py")
        assert [v.rule for v in violations] == ["R6"]
        assert "list literal" in violations[0].message
        assert "'drain'" in violations[0].message

    def test_marker_on_line_above_also_applies(self):
        source = """
            # repro-hot
            def drain(events):
                return {e: 1 for e in events}
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R6"]
        assert "dict comprehension" in violations[0].message

    def test_unmarked_function_not_in_scope(self):
        source = """
            def setup(events):
                return [e for e in events]
            """
        assert _lint_source(source, "src/repro/network/engine.py") == []

    def test_constructor_calls_flagged(self):
        source = """
            from collections import deque

            def refill(self):  # repro-hot
                self.queue = deque()
            """
        violations = _lint_source(source, "src/repro/network/x.py")
        assert [v.rule for v in violations] == ["R6"]
        assert "deque() constructor" in violations[0].message

    def test_raise_subtrees_exempt(self):
        source = """
            def check(self, vc):  # repro-hot
                if self.credits[vc] <= 0:
                    raise ValueError(f"underflow: {[vc, self.credits]}")
                self.credits[vc] -= 1
            """
        assert _lint_source(source, "src/repro/network/x.py") == []

    def test_parallel_assignment_exempt_but_rhs_scanned(self):
        clean = """
            def swap(self):  # repro-hot
                self.a, self.b = self.b, self.a
            """
        assert _lint_source(clean, "src/repro/network/x.py") == []
        dirty = """
            def unpack(self):  # repro-hot
                self.a, self.b = self.b, [self.a]
            """
        violations = _lint_source(dirty, "src/repro/network/x.py")
        assert [v.rule for v in violations] == ["R6"]

    def test_store_context_tuple_unpacking_allowed(self):
        source = """
            def step(self, now):  # repro-hot
                (alpha, beta) = self.hot
                for key, value in self.pairs:
                    alpha(key, value, now)
            """
        assert _lint_source(source, "src/repro/network/x.py") == []

    def test_numpy_allocator_flagged(self):
        source = """
            import numpy as np

            def lane(self, raw):  # repro-hot
                mask = np.zeros(raw.shape)
                return mask
            """
        violations = _lint_source(source, "src/repro/network/batched.py")
        assert [v.rule for v in violations] == ["R6"]
        assert "np.zeros" in violations[0].message

    def test_numpy_ufunc_without_out_flagged(self):
        source = """
            import numpy as np

            def lane(self, raw):  # repro-hot
                return np.multiply(self.weight, raw)
            """
        violations = _lint_source(source, "src/repro/network/batched.py")
        assert [v.rule for v in violations] == ["R6"]
        assert "without out=" in violations[0].message

    def test_numpy_ufunc_with_out_clean(self):
        source = """
            import numpy as np

            def lane(self, raw):  # repro-hot
                np.multiply(self.weight, raw, out=self.scratch)
                np.take(self.pred, self.idx, axis=0, out=self.rows)
                return self.scratch
            """
        assert _lint_source(source, "src/repro/network/batched.py") == []

    def test_deepcopy_flagged_with_snapshot_advice(self):
        source = """
            import copy

            def split(self, members):  # repro-hot
                clone = copy.deepcopy(self.engine)
                return clone
            """
        violations = _lint_source(source, "src/repro/network/batched.py")
        assert [v.rule for v in violations] == ["R6"]
        assert "copy.deepcopy()" in violations[0].message
        assert "copy only the mutable fields" in violations[0].message
        assert "'split'" in violations[0].message

    def test_bare_deepcopy_name_also_flagged(self):
        source = """
            from copy import deepcopy

            def split(self, members):  # repro-hot
                return deepcopy(self.engine)
            """
        violations = _lint_source(source, "src/repro/network/batched.py")
        assert [v.rule for v in violations] == ["R6"]
        assert "copy.deepcopy()" in violations[0].message

    def test_deepcopy_in_unmarked_function_ignored(self):
        source = """
            import copy

            def setup(self):
                return copy.deepcopy(self.engine)
            """
        assert _lint_source(source, "src/repro/network/batched.py") == []

    def test_shallow_copy_not_flagged(self):
        source = """
            import copy

            def split(self, members):  # repro-hot
                self.cursor = copy.copy(self.cursor)
            """
        assert _lint_source(source, "src/repro/network/batched.py") == []

    def test_numpy_in_unmarked_function_ignored(self):
        source = """
            import numpy as np

            def setup(self, shape):
                return np.zeros(shape)
            """
        assert _lint_source(source, "src/repro/network/batched.py") == []


class TestRuleR7:
    BROAD = """
        def attempt(run, config):
            try:
                return run(config)
            except Exception:
                return None
        """

    def test_broad_handler_flagged_only_in_harness_paths(self):
        violations = _lint_source(self.BROAD, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R7"]
        assert "except Exception" in violations[0].message
        assert _lint_source(self.BROAD, "src/repro/network/x.py") == []

    def test_interrupt_guard_before_broad_handler_passes(self):
        source = """
            def attempt(run, config):
                try:
                    return run(config)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    return None
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_partial_interrupt_guard_still_flagged(self):
        source = """
            def attempt(run, config):
                try:
                    return run(config)
                except KeyboardInterrupt:
                    raise
                except Exception:
                    return None
            """
        # SystemExit is not provably re-raised, so the guard is incomplete.
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R7"]

    def test_cleanup_then_reraise_passes(self):
        source = """
            def store(write, undo):
                try:
                    write()
                except BaseException:
                    undo()
                    raise
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_conditional_reraise_does_not_count(self):
        source = """
            def attempt(run, config, strict):
                try:
                    return run(config)
                except BaseException:
                    if strict:
                        raise
                    return None
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R7"]

    def test_bare_except_and_tuple_with_exception_flagged(self):
        source = """
            def attempt(run, config):
                try:
                    return run(config)
                except (ValueError, Exception):
                    return None

            def attempt2(run, config):
                try:
                    return run(config)
                except:
                    return None
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R7", "R7"]
        assert "bare except:" in violations[1].message

    def test_narrow_handlers_not_in_scope(self):
        source = """
            def attempt(run, config):
                try:
                    return run(config)
                except (OSError, ValueError):
                    return None
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_real_harness_modules_are_clean(self):
        violations, errors = lint_paths(
            [REPO_ROOT / "src" / "repro" / "harness"]
        )
        assert errors == []
        assert [v for v in violations if v.rule == "R7"] == []


class TestRuleR8:
    """Policy purity: decide() may not touch unseeded randomness, the wall
    clock, or module-level state. Unscoped — applies in every file."""

    def test_unseeded_randomness_in_decide_flagged(self):
        source = """
            import random

            from repro.core.policy import DVSAction, DVSPolicy

            class Flaky(DVSPolicy):
                def decide(self, inputs):
                    return DVSAction(random.choice([-1, 0, 1]))
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        r8 = [v for v in violations if v.rule == "R8"]
        assert len(r8) == 1
        assert "random.choice" in r8[0].message

    def test_seeded_rng_on_self_is_clean(self):
        source = """
            import random

            from repro.core.policy import DVSAction, DVSPolicy

            class Seeded(DVSPolicy):
                def __init__(self):
                    self._rng = random.Random(1)

                def decide(self, inputs):
                    if self._rng.random() < 0.5:
                        return DVSAction.STEP_DOWN
                    return DVSAction.HOLD
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        assert [v for v in violations if v.rule == "R8"] == []

    def test_wall_clock_in_decide_flagged(self):
        source = """
            import time

            from repro.core.policy import DVSAction, DVSPolicy

            class Clocked(DVSPolicy):
                def decide(self, inputs):
                    if time.time() > 0:
                        return DVSAction.HOLD
                    return DVSAction.STEP_UP
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        r8 = [v for v in violations if v.rule == "R8"]
        assert len(r8) == 1
        assert "wall-clock" in r8[0].message

    def test_global_statement_flagged(self):
        source = """
            from repro.core.policy import DVSAction, DVSPolicy

            _CALLS = 0

            class Counting(DVSPolicy):
                def decide(self, inputs):
                    global _CALLS
                    _CALLS = _CALLS + 1
                    return DVSAction.HOLD
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        assert any(
            v.rule == "R8" and "global statement" in v.message
            for v in violations
        )

    def test_module_state_mutation_flagged(self):
        source = """
            from repro.core.policy import DVSAction, DVSPolicy

            _HISTORY = []
            _LAST = {}

            class Leaky(DVSPolicy):
                def decide(self, inputs):
                    _HISTORY.append(inputs.link_utilization)
                    _LAST["lu"] = inputs.link_utilization
                    return DVSAction.HOLD
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        r8 = sorted(v.message for v in violations if v.rule == "R8")
        assert len(r8) == 2
        assert any("_HISTORY" in m and "mutation" in m for m in r8)
        assert any("_LAST" in m and "store" in m for m in r8)

    def test_local_shadowing_module_name_is_clean(self):
        source = """
            from repro.core.policy import DVSAction, DVSPolicy

            window = 200

            class Shadowing(DVSPolicy):
                def decide(self, inputs):
                    window = [inputs.link_utilization]
                    window.append(inputs.buffer_utilization)
                    return DVSAction.HOLD
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        assert [v for v in violations if v.rule == "R8"] == []

    def test_self_state_and_helpers_are_clean(self):
        source = """
            from repro.core.policy import DVSAction, DVSPolicy

            class Stateful(DVSPolicy):
                def decide(self, inputs):
                    self._ewma = 0.5 * inputs.link_utilization
                    self._seen.append(inputs.window_cycles)
                    return max(DVSAction.HOLD, DVSAction.HOLD)
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        assert [v for v in violations if v.rule == "R8"] == []

    def test_non_policy_class_not_scanned(self):
        source = """
            import random

            class FreeAgent:
                def decide(self, inputs):
                    return random.choice([0, 1])
            """
        violations = _lint_source(source, "src/repro/plugins/x.py")
        assert [v for v in violations if v.rule == "R8"] == []

    def test_real_policy_modules_are_clean(self):
        violations, errors = lint_paths(
            [REPO_ROOT / "src" / "repro" / "core"]
        )
        assert errors == []
        assert [v for v in violations if v.rule == "R8"] == []


class TestRuleR9:
    """Determinism taint: nondeterminism reads hidden behind helper calls."""

    def test_taint_through_out_of_scope_helper_flagged(self):
        violations = _lint_sources(
            {
                "src/repro/harness/clockish.py": """
                    import time

                    def now() -> float:
                        return time.time()
                    """,
                "src/repro/network/metrics.py": """
                    from repro.harness.clockish import now

                    def span(start: float) -> float:
                        return now() - start
                    """,
            }
        )
        r9 = [v for v in violations if v.rule == "R9"]
        assert len(r9) == 1
        assert r9[0].path == "src/repro/network/metrics.py"
        assert "wall-clock" in r9[0].message
        assert "repro.harness.clockish.now" in r9[0].message
        # The witness chain names the concrete source read.
        assert "time.time" in r9[0].message

    def test_taint_propagates_through_two_hops(self):
        violations = _lint_sources(
            {
                "src/repro/harness/deep.py": """
                    import random

                    def roll() -> float:
                        return random.random()

                    def wrapped() -> float:
                        return roll() * 2.0
                    """,
                "src/repro/traffic/jitter.py": """
                    from repro.harness.deep import wrapped

                    def jitter() -> float:
                        return wrapped()
                    """,
            }
        )
        r9 = [v for v in violations if v.rule == "R9"]
        assert len(r9) == 1
        assert "unseeded randomness" in r9[0].message
        assert "wrapped" in r9[0].message and "roll" in r9[0].message

    def test_in_scope_root_cause_not_repeated_at_callers(self):
        # The helper is itself in scope, so R1 owns the root cause; the
        # caller must NOT get a cascading R9 for the same read.
        violations = _lint_sources(
            {
                "src/repro/network/helper.py": """
                    import time

                    def now() -> float:
                        return time.time()
                    """,
                "src/repro/network/user.py": """
                    from repro.network.helper import now

                    def span(start: float) -> float:
                        return now() - start
                    """,
            }
        )
        assert [v.rule for v in violations] == ["R1"]
        assert violations[0].path == "src/repro/network/helper.py"

    def test_direct_env_read_in_scope_flagged(self):
        source = """
            import os

            def knob() -> str:
                return os.environ["REPRO_KNOB"]
            """
        violations = _lint_source(source, "src/repro/traffic/x.py")
        assert [v.rule for v in violations] == ["R9"]
        assert "environment state" in violations[0].message

    def test_env_read_out_of_scope_not_flagged(self):
        source = """
            import os

            def knob() -> str:
                return os.environ.get("REPRO_KNOB", "")
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_clean_helper_not_flagged(self):
        violations = _lint_sources(
            {
                "src/repro/harness/pure.py": """
                    def double(x: float) -> float:
                        return 2.0 * x
                    """,
                "src/repro/network/user.py": """
                    from repro.harness.pure import double

                    def span(start: float) -> float:
                        return double(start)
                    """,
            }
        )
        assert violations == []


class TestRuleR10:
    """Unit/dimension analysis over the power and energy bookkeeping."""

    def test_suffix_mismatch_addition_flagged(self):
        source = """
            def total(energy_fj: int, leak_power_mw: float) -> float:
                return energy_fj + leak_power_mw
            """
        violations = _lint_source(source, "src/repro/power/x.py")
        assert [v.rule for v in violations] == ["R10"]
        assert "femtojoules + milliwatts" in violations[0].message

    def test_same_dimension_addition_clean(self):
        source = """
            def total(link_fj: int, static_fj: int) -> int:
                return link_fj + static_fj
            """
        assert _lint_source(source, "src/repro/power/x.py") == []

    def test_annotation_dimensions_used(self):
        source = """
            from repro.units import Cycles, Volts

            def bad(level: Volts, span: Cycles) -> float:
                return level - span
            """
        violations = _lint_source(source, "src/repro/core/x.py")
        assert [v.rule for v in violations] == ["R10"]
        assert "volts - cycles" in violations[0].message

    def test_comparison_mismatch_flagged(self):
        source = """
            def over_budget(energy_fj: int, cap_mw: float) -> bool:
                return energy_fj > cap_mw
            """
        violations = _lint_source(source, "src/repro/power/x.py")
        assert [v.rule for v in violations] == ["R10"]
        assert "comparison" in violations[0].message

    def test_converter_call_satisfies_target_dimension(self):
        source = """
            from repro.units import joules_to_femtojoules

            def ledger(total_j: float) -> int:
                total_fj = joules_to_femtojoules(total_j)
                return total_fj
            """
        assert _lint_source(source, "src/repro/power/x.py") == []

    def test_unconverted_assignment_flagged(self):
        source = """
            def ledger(window_cycles: int) -> int:
                total_fj = window_cycles
                return total_fj
            """
        violations = _lint_source(source, "src/repro/power/x.py")
        assert [v.rule for v in violations] == ["R10"]
        assert "unconverted assignment" in violations[0].message

    def test_augmented_assignment_mismatch_flagged(self):
        source = """
            def drain(total_fj: int, leak_mw: float) -> int:
                total_fj -= leak_mw
                return total_fj
            """
        violations = _lint_source(source, "src/repro/power/x.py")
        assert [v.rule for v in violations] == ["R10"]

    def test_multiplication_yields_unknown_dimension(self):
        # power * time is energy; inference is conservative, so the
        # product is dimension-unknown and never flagged.
        source = """
            def energy(power_mw: float, span_cycles: int) -> float:
                scaled = power_mw * span_cycles
                return scaled + 1.0
            """
        assert _lint_source(source, "src/repro/power/x.py") == []

    def test_out_of_scope_module_not_checked(self):
        source = """
            def total(energy_fj: int, leak_power_mw: float) -> float:
                return energy_fj + leak_power_mw
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_rebinding_updates_the_environment(self):
        # After rebinding to an unknown dimension the name must not keep
        # its suffix-implied dimension.
        source = """
            def total(samples, energy_fj: int) -> float:
                acc = energy_fj
                acc = len(samples)
                return acc + 1
            """
        assert _lint_source(source, "src/repro/power/x.py") == []


class TestRuleR11:
    """Worker isolation: no global state, picklable by construction."""

    def test_worker_mutating_module_global_flagged(self):
        source = """
            _SEEN = []

            def run_point(config):
                _SEEN.append(config)
                return config
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R11"]
        assert "_SEEN" in violations[0].message
        assert "run_point" in violations[0].message

    def test_mutation_reachable_through_helper_flagged_with_chain(self):
        source = """
            _CACHE = {}

            def _remember(key, value):
                _CACHE[key] = value
                return value

            def run_chunk(configs):
                return [_remember(c, c) for c in configs]
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R11"]
        assert (
            "repro.harness.x.run_chunk -> repro.harness.x._remember"
            in violations[0].message
        )

    def test_global_statement_store_flagged(self):
        source = """
            _COUNT = 0

            def run_point(config):
                global _COUNT
                _COUNT = _COUNT + 1
                return config
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R11"]
        assert "stores module global" in violations[0].message

    def test_local_shadowing_global_name_clean(self):
        source = """
            _SEEN = []

            def run_point(config):
                _SEEN = []
                _SEEN.append(config)
                return _SEEN
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_unreachable_mutation_not_flagged(self):
        source = """
            _SEEN = []

            def bookkeeping(config):
                _SEEN.append(config)

            def run_point(config):
                return config
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []

    def test_mutation_behind_super_init_flagged(self):
        source = """
            _ENGINES = []

            class Engine:
                def __init__(self, config):
                    _ENGINES.append(config)

            class Simulator(Engine):
                def __init__(self, config):
                    super().__init__(config)

            def run_point(config):
                return Simulator(config)
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R11"]
        assert (
            "repro.harness.x.Simulator.__init__ -> repro.harness.x.Engine.__init__"
            in violations[0].message
        )

    def test_mutation_behind_annotated_factory_result_flagged(self):
        source = """
            _RUNS = []

            class Simulator:
                def run(self):
                    _RUNS.append(self)

            def build(config) -> Simulator:
                return Simulator()

            def run_point(config):
                return build(config).run()
            """
        violations = _lint_source(source, "src/repro/harness/x.py")
        assert [v.rule for v in violations] == ["R11"]
        assert (
            "repro.harness.x.run_point -> repro.harness.x.Simulator.run"
            in violations[0].message
        )

    def test_generator_annotated_config_field_flagged(self):
        source = """
            from dataclasses import dataclass
            from typing import Generator

            @dataclass
            class StreamConfig:
                stream: Generator[float, None, None]
            """
        violations = _lint_source(source, "src/repro/config2.py")
        r11 = [v for v in violations if v.rule == "R11"]
        assert len(r11) == 1
        assert "StreamConfig.stream" in r11[0].message

    def test_lambda_default_in_config_flagged(self):
        source = """
            from dataclasses import dataclass, field

            @dataclass
            class HookConfig:
                direct: object = lambda: 0
                wrapped: object = field(default=lambda: 1)
            """
        violations = _lint_source(source, "src/repro/config2.py")
        r11 = [v for v in violations if v.rule == "R11"]
        assert len(r11) == 2
        assert all("lambda" in v.message for v in r11)

    def test_generator_stored_on_self_in_traffic_class_flagged(self):
        # The PR-7 OnOffSourceSet bug, generalized: a traffic-source
        # class storing a live generator in instance state breaks the
        # pool backend the moment it is pickled.
        source = """
            class Source:
                def __init__(self, rates):
                    self._stream = (r * 2 for r in rates)
            """
        violations = _lint_source(source, "src/repro/traffic/gen.py")
        assert [v.rule for v in violations] == ["R11"]
        assert "generator expression" in violations[0].message
        assert "self._stream" in violations[0].message

    def test_generator_function_call_on_self_flagged(self):
        source = """
            class Source:
                def _ticks(self, rate):
                    t = 0.0
                    while True:
                        t += rate
                        yield t

                def __init__(self, rate):
                    self._stream = self._ticks(rate)
            """
        violations = _lint_source(source, "src/repro/traffic/gen.py")
        assert [v.rule for v in violations] == ["R11"]
        assert "generator function" in violations[0].message

    def test_generator_escaping_via_container_call_flagged(self):
        source = """
            import heapq

            class Source:
                def arm(self, rates):
                    stream = (r * 2 for r in rates)
                    heapq.heappush(self._heap, (0.0, stream))
            """
        violations = _lint_source(source, "src/repro/traffic/gen.py")
        assert [v.rule for v in violations] == ["R11"]
        assert "escape" in violations[0].message

    def test_materialized_list_iterator_clean(self):
        # The actual PR-7 fix: materialize, then iterate the list.
        source = """
            class Source:
                def _burst_times(self, rate):
                    return sorted([rate, rate * 2])

                def __init__(self, rate):
                    self._stream = iter(self._burst_times(rate))
            """
        assert _lint_source(source, "src/repro/traffic/gen.py") == []

    def test_plain_class_outside_traffic_not_in_pickled_set(self):
        source = """
            class Scratch:
                def __init__(self, rates):
                    self._stream = (r * 2 for r in rates)
            """
        assert _lint_source(source, "src/repro/harness/x.py") == []


class TestMutationCatches:
    """Seed realistic bugs into *real* repo modules; the lint must bite."""

    def test_seeded_fj_plus_mw_addition_caught(self):
        path = "src/repro/power/accounting.py"
        source = (REPO_ROOT / path).read_text(encoding="utf-8")
        anchor = "link_energy_fj += channel.link_energy_fj"
        assert anchor in source, "mutation anchor moved; update the test"
        mutated = source.replace(
            anchor,
            "link_energy_fj += channel.link_energy_fj"
            " + channel.leak_power_mw",
            1,
        )
        clean = _lint_source(source, path)
        assert [v for v in clean if v.rule == "R10"] == []
        violations = _lint_source(mutated, path)
        r10 = [v for v in violations if v.rule == "R10"]
        assert len(r10) == 1
        assert "femtojoules + milliwatts" in r10[0].message

    def test_seeded_global_mutation_in_worker_caught(self):
        path = "src/repro/harness/resilience.py"
        source = (REPO_ROOT / path).read_text(encoding="utf-8")
        anchor = "    return [run_point(config, policy) for config in configs]\n"
        assert source.count(anchor) == 1, "mutation anchor moved; update the test"
        mutated = (
            source.replace(
                anchor,
                "    _COMPLETED_BATCHES.append(len(configs))\n" + anchor,
                1,
            )
            + "\n_COMPLETED_BATCHES = []\n"
        )
        clean = _lint_source(source, path)
        assert [v for v in clean if v.rule == "R11"] == []
        violations = _lint_source(mutated, path)
        r11 = [v for v in violations if v.rule == "R11"]
        assert len(r11) == 1
        assert "_COMPLETED_BATCHES" in r11[0].message
        assert "run_chunk" in r11[0].message


class TestBaselineWorkflow:
    def _dirty_tree(self, tmp_path):
        module = tmp_path / "repro" / "network" / "leaf.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        return module

    def test_update_then_clean_then_new_finding(self, tmp_path, capsys):
        module = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"

        assert main([str(module), "--no-baseline"]) == 1
        capsys.readouterr()

        assert (
            main([str(module), "--update-baseline", "--baseline", str(baseline)])
            == 0
        )
        assert "wrote 1 baseline entrie(s)" in capsys.readouterr().out

        assert main([str(module), "--baseline", str(baseline)]) == 0
        assert "1 baseline finding(s)" in capsys.readouterr().out

        # A new finding is NOT absorbed by the baseline.
        module.write_text(
            module.read_text(encoding="utf-8")
            + "\n\ndef stamp2():\n    return time.monotonic()\n",
            encoding="utf-8",
        )
        assert main([str(module), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stamp2" not in out  # message does not name functions
        assert "1 violation(s)" in out

    def test_justifications_survive_update(self, tmp_path, capsys):
        module = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main([str(module), "--update-baseline", "--baseline", str(baseline)])
        capsys.readouterr()

        entries = baseline_io.load(baseline)
        assert entries[0]["justification"] == baseline_io.TODO_JUSTIFICATION
        entries[0]["justification"] = "known wall-clock read, display only"
        baseline.write_text(
            json.dumps({"entries": entries}), encoding="utf-8"
        )

        main([str(module), "--update-baseline", "--baseline", str(baseline)])
        capsys.readouterr()
        entries = baseline_io.load(baseline)
        assert entries[0]["justification"] == "known wall-clock read, display only"

    def test_stale_entry_reported_but_not_fatal(self, tmp_path, capsys):
        module = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main([str(module), "--update-baseline", "--baseline", str(baseline)])
        capsys.readouterr()

        # Fix the finding; the baseline entry goes stale.
        module.write_text("def stamp():\n    return 0.0\n", encoding="utf-8")
        assert main([str(module), "--baseline", str(baseline)]) == 0
        captured = capsys.readouterr()
        assert "stale baseline entry" in captured.err

    def test_corrupt_baseline_is_a_hard_error(self, tmp_path, capsys):
        module = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json", encoding="utf-8")
        assert main([str(module), "--baseline", str(baseline)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestSarifOutput:
    def test_sarif_report_shape(self, capsys):
        assert (
            main(
                [
                    str(FIXTURES),
                    "--include-fixtures",
                    "--no-baseline",
                    "--format",
                    "sarif",
                ]
            )
            == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == "2.1.0"
        run = report["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert [rule["id"] for rule in driver["rules"]] == list(RULES)
        results = run["results"]
        assert len(results) == len(RULES) + 2  # R6 fires three times
        for result in results:
            assert result["ruleId"] in RULES
            location = result["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1
            assert location["artifactLocation"]["uri"]
        # ruleIndex must agree with the rules array.
        for result in results:
            index = result["ruleIndex"]
            assert driver["rules"][index]["id"] == result["ruleId"]


class TestSuppressions:
    def test_inline_ignore_suppresses_only_that_rule(self):
        source = """
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[R1]

            def stamp2():
                return time.time()
            """
        violations = _lint_source(source, "src/repro/network/x.py")
        assert len(violations) == 1
        assert violations[0].line == 8

    def test_skip_file_pragma_disables_the_file(self):
        source = """
            # repro-lint: skip-file
            import time

            def stamp():
                return time.time()
            """
        assert _lint_source(source, "src/repro/network/x.py") == []

    def test_fixture_suppression_example_not_reported(self):
        violations, _ = lint_paths([FIXTURES], include_fixtures=True)
        suppressed_lines = [
            v
            for v in violations
            if "jittered_cycle" in v.message or "random.random" in v.message
        ]
        assert suppressed_lines == []

    def test_pragma_covers_multiline_statement(self):
        # The violation anchors on the call line; the pragma sits on the
        # statement's closing line. The suppression span is the whole
        # simple statement, so it still applies.
        source = """
            import time

            def stamp():
                return (
                    time.time()
                )  # repro-lint: ignore[R1]
            """
        assert _lint_source(source, "src/repro/network/x.py") == []

    def test_pragma_on_unrelated_rule_does_not_suppress(self):
        source = """
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[R2]
            """
        violations = _lint_source(source, "src/repro/network/x.py")
        assert [v.rule for v in violations] == ["R1"]

    def test_unknown_rule_pragma_warns(self):
        linter = Linter(include_fixtures=True)
        # Concatenated so this test file's own lint run does not see a
        # literal unknown-rule pragma on this line.
        pragma = "# repro-lint: " + "ignore[R99]"
        linter.add_source(
            "import time\n\n\ndef stamp():\n"
            f"    return time.time()  {pragma}\n",
            "src/repro/network/x.py",
        )
        violations = linter.run()
        # R99 suppresses nothing and is called out as unknown.
        assert [v.rule for v in violations] == ["R1"]
        assert any("unknown rule 'R99'" in w for w in linter.warnings)

    def test_suppressions_are_tallied_per_rule(self):
        linter = Linter(include_fixtures=True)
        linter.add_source(
            "import time\n\n\ndef stamp():\n"
            "    return time.time()  # repro-lint: ignore[R1]\n",
            "src/repro/network/x.py",
        )
        assert linter.run() == []
        assert linter.suppressed_counts == {"R1": 1}


class TestDistributedFabricCoverage:
    """The distributed fabric package sits inside the R7/R11 net: its
    modules are harness paths, and its work unit is an entry point."""

    def test_r7_covers_the_distributed_package(self):
        source = """
            def relay(send, message):
                try:
                    send(message)
                except Exception:
                    return None
            """
        violations = _lint_source(
            source, "src/repro/harness/distributed/worker.py"
        )
        assert [v.rule for v in violations] == ["R7"]

    def test_r7_accepts_the_fabric_teardown_idiom(self):
        """``except asyncio.CancelledError`` is a *specific* handler —
        the coordinator's quiet-teardown idiom must not need pragmas."""
        source = """
            import asyncio

            async def handle(reader):
                try:
                    return await reader.read()
                except asyncio.CancelledError:
                    return None
            """
        assert _lint_source(
            source, "src/repro/harness/distributed/coordinator.py"
        ) == []

    def test_run_worker_chunk_is_a_worker_entry_point(self):
        from repro.analysis.isolation import WORKER_ENTRY_POINTS

        assert "run_worker_chunk" in WORKER_ENTRY_POINTS
        source = """
            _SEEN = []

            def run_worker_chunk(configs, policy):
                _SEEN.append(configs)
                return configs
            """
        violations = _lint_source(
            source, "src/repro/harness/distributed/worker.py"
        )
        assert [v.rule for v in violations] == ["R11"]
        assert "run_worker_chunk" in violations[0].message
        assert "_SEEN" in violations[0].message

    def test_mutation_behind_the_fabric_entry_point_flagged_with_chain(self):
        source = """
            _STATS = {}

            def _bump(key):
                _STATS[key] = _STATS.get(key, 0) + 1

            def run_worker_chunk(configs, policy):
                _bump("chunks")
                return configs
            """
        violations = _lint_source(
            source, "src/repro/harness/distributed/worker.py"
        )
        assert [v.rule for v in violations] == ["R11"]
        assert (
            "run_worker_chunk -> "
            "repro.harness.distributed.worker._bump" in violations[0].message
        )
