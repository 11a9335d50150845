"""repro-lint: the repository's static-analysis framework.

The cycle kernel's performance work (active-router dirty set, event-horizon
fast-forward, content-addressed sweep cache, allocation-free stepping) and
the sweep harness's parallel backends made correctness depend on contracts
that ordinary linters cannot see. This framework encodes them as eleven
rules over the stdlib :mod:`ast` (no third-party dependencies). All rules
run off one shared :class:`~repro.analysis.model.ProjectModel` — the file
set is parsed and indexed exactly once per run — and take the facts they
share from it: the nondeterminism classifier (R1, R8, R9), the
simulation scope (R1, R9), the class lineage across modules (R3, R4,
R8) and the module-state write scanner (R8, R11). The interprocedural
rules (R9–R11) additionally walk its call graph.

Syntactic rules, checked module by module (ported from the original
single-file linter):

``R1`` unseeded-randomness-or-wall-clock
    Simulation-semantics code (``repro/network/``, ``repro/traffic/``,
    ``repro/core/`` — the DVS state machines live under ``core``) must not
    call module-level :mod:`random` functions, ``numpy.random`` functions,
    or wall-clock sources (``time.time``, ``datetime.now``, ...). All
    randomness flows through a seeded ``random.Random`` instance so runs
    are bit-reproducible; all time is the simulated router clock.

``R2`` unordered-hot-path-iteration
    The engine/router hot path (``repro/network/engine.py`` and
    ``repro/network/router.py``) must not iterate a ``set`` (or
    ``dict.values()``) directly — iteration order would then depend on
    hash seeding and insertion history. Wrap the iterable in ``sorted()``.

``R3`` traffic-source-contract
    Every :class:`~repro.traffic.base.TrafficSource` subclass must
    override ``next_injection_cycle``, itself or through a parent in any
    module: a source relying on the conservative ``None`` default
    silently disables the quiescence fast-forward for every workload it
    appears in.

``R4`` observer-skip-safety
    An observer overriding ``on_cycle`` must either also define
    ``on_idle_span`` (making it safe to skip quiescent spans) or declare
    ``unskippable = True``, itself or through a parent other than
    ``Observer`` — an explicit statement that disabling the fast-forward
    is intended, not an accident.

``R5`` config-not-json-serializable
    Fields of ``*Config`` dataclasses must be JSON-serializable types
    (primitives, containers of primitives, other dataclasses). The sweep
    cache keys on the config's canonical JSON; a field that falls back to
    ``repr()`` would make the cache key lossy or unstable.

``R6`` hot-path-allocation
    A function marked ``# repro-hot`` (comment on its ``def`` line or the
    line directly above) must not allocate containers, with numpy-aware
    handling for vectorized hot code (``np.zeros`` etc. are flagged;
    ufunc-style calls are flagged unless they write into a preallocated
    buffer via ``out=``). ``copy.deepcopy`` gets its own flavor:
    deep-copying an engine in a hot function is O(total state) per call
    — copy only the mutable fields instead. Error paths under ``raise``
    are exempt.

``R7`` harness-interrupt-safety
    Harness code (``repro/harness/``) must never let a broad handler
    absorb an interrupt: ``except Exception``/``BaseException``/bare
    ``except:`` must re-raise unconditionally or be preceded by handlers
    that re-raise ``KeyboardInterrupt`` and ``SystemExit``.

``R8`` policy-purity
    ``decide()`` on a :class:`~repro.core.policy.DVSPolicy` subclass (a
    direct one or through parents in other modules) must be a pure
    function of its inputs and ``self``: no unseeded randomness (seeded
    constructors are fine, as for R1), no wall-clock reads, no
    ``global``/``nonlocal``, no stores to or mutation of module-level
    state.

Interprocedural rules (see their modules for the full story):

``R9`` determinism-taint (:mod:`repro.analysis.taint`)
    R1 generalized through the call graph: wall-clock / unseeded-RNG /
    environment / filesystem taint introduced *anywhere* propagates
    callee-to-caller, and is reported where it crosses into
    simulation-semantics code, with the witness chain.

``R10`` unit-dimension-mismatch (:mod:`repro.analysis.dimensions`)
    Dataflow dimension inference from the ``Quantity`` NewTypes in
    :mod:`repro.units` and the ``*_fj``/``*_mw``/``*_v``/``*_cycles``
    naming conventions; flags cross-dimension ``+``/``-``/comparison and
    unconverted assignment in ``core/`` and ``power/``, where the energy
    ledgers live.

``R11`` worker-isolation (:mod:`repro.analysis.isolation`)
    Worker entry points (``run_point``, ``run_chunk``,
    ``run_worker_chunk``) must not reach mutable module globals, and
    pickled config/source classes must be picklable by construction (no
    generator-typed fields, no generator instance state, no lambda
    defaults).

Suppressions and the baseline
    Append ``# repro-lint: ignore[R2]`` (or ``ignore[R1,R4]``) to the
    flagged line — anywhere inside a multi-line statement works; the
    pragma covers the innermost enclosing statement's span. Unknown rule
    ids in pragmas are reported as warnings rather than silently
    accepted. A file whose first ten lines contain ``# repro-lint:
    skip-file`` is not checked at all. Below a directory argument,
    directories named ``fixtures`` are skipped unless
    ``--include-fixtures`` is given; ``__pycache__`` and dot-directories
    always are.
    Pre-existing interprocedural findings live in the committed baseline
    (``.repro-lint-baseline.json``, loaded automatically when present;
    see :mod:`repro.analysis.baseline`): baseline-matched findings keep
    the exit status at 0, new findings fail the run.

Usage::

    python -m repro.analysis.lint src tests              # human output
    python -m repro.analysis.lint --format json src      # machine output
    python -m repro.analysis.lint --format sarif src     # code scanning
    python -m repro.analysis.lint --update-baseline src  # refresh baseline

Exit status is 0 when clean (including baseline-matched findings), 1
when new violations were found, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import baseline as baseline_io
from . import dimensions, isolation, sarif, taint
from .model import (
    ClassInfo,
    ModuleInfo,
    ProjectModel,
    Violation,
    decorator_name,
    dotted_name,
    in_simulation_scope,
    module_state_writes,
    nondeterminism_kind,
)

#: Rule id -> short name (kept in sync with docs/static_analysis.md).
RULES = {
    "R1": "unseeded-randomness-or-wall-clock",
    "R2": "unordered-hot-path-iteration",
    "R3": "traffic-source-contract",
    "R4": "observer-skip-safety",
    "R5": "config-not-json-serializable",
    "R6": "hot-path-allocation",
    "R7": "harness-interrupt-safety",
    "R8": "policy-purity",
    "R9": "determinism-taint",
    "R10": "unit-dimension-mismatch",
    "R11": "worker-isolation",
}

#: File names (under repro/network/) forming the R2 hot path.
R2_FILES = ("engine.py", "router.py")
#: Path fragments selecting the files R7 applies to.
R7_SCOPE = ("repro/harness/",)

#: Annotation names R5 accepts as JSON-serializable leaves.
_JSON_LEAVES = frozenset({"int", "float", "str", "bool", "None"})
#: Generic containers R5 accepts (their parameters are checked recursively).
_JSON_CONTAINERS = frozenset(
    {"tuple", "list", "dict", "Optional", "Union", "Tuple", "List", "Dict",
     "Sequence", "Mapping", "FrozenSet", "frozenset"}
)

#: Marker opting a function into R6 (on the def line or the line above).
_HOT_RE = re.compile(r"#\s*repro-hot\b")

#: Bare or dotted constructor names R6 treats as container allocations.
_R6_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "frozenset", "tuple", "bytearray", "deque",
     "defaultdict", "Counter", "OrderedDict"}
)
#: Module aliases whose attribute calls R6 inspects as numpy (a hidden
#: temporary array per call is the same regression as a per-call list).
_R6_NUMPY_MODULES = frozenset({"np", "numpy"})
#: numpy calls that always materialize a fresh array.
_R6_NUMPY_ALLOCATORS = frozenset(
    {"zeros", "ones", "empty", "full", "zeros_like", "ones_like",
     "empty_like", "full_like", "arange", "linspace", "array", "asarray",
     "ascontiguousarray", "concatenate", "stack", "vstack", "hstack",
     "column_stack", "tile", "repeat", "where", "copy", "unique", "sort",
     "argsort", "cumsum", "cumprod", "outer", "einsum", "dot", "matmul"}
)
#: numpy functions/ufuncs that allocate their result *unless* directed
#: into a preallocated buffer via the ``out=`` keyword.
_R6_NUMPY_OUT_AWARE = frozenset(
    {"add", "subtract", "multiply", "divide", "true_divide",
     "floor_divide", "mod", "remainder", "power", "sqrt", "exp", "log",
     "abs", "absolute", "negative", "sign", "minimum", "maximum", "clip",
     "round", "floor", "ceil", "less", "less_equal", "greater",
     "greater_equal", "equal", "not_equal", "logical_and", "logical_or",
     "logical_not", "logical_xor", "bitwise_and", "bitwise_or",
     "bitwise_xor", "left_shift", "right_shift", "take", "sum", "prod",
     "mean"}
)
#: R1's message per flavor of forbidden call (see :func:`_rng_or_clock`).
_R1_MESSAGES = {
    "random": "call to the shared global generator ({name}); draw from a "
              "seeded random.Random instance instead",
    "numpy": "call to the global numpy generator ({name}); use a seeded Generator",
    "clock": "wall-clock read ({name}) in simulation code; use the "
             "simulated router clock",
}
#: R8's message per flavor of forbidden call, before the purity suffix.
_R8_MESSAGES = {
    "random": "unseeded randomness ({name}) in {where}; draw from a seeded "
              "random.Random held on self",
    "numpy": "global numpy generator ({name}) in {where}",
    "clock": "wall-clock read ({name}) in {where}",
}
#: Exception names R7 treats as dangerously broad when caught.
_R7_BROAD = frozenset({"Exception", "BaseException"})
#: The interrupts a broad handler must provably let through.
_R7_INTERRUPTS = frozenset({"KeyboardInterrupt", "SystemExit"})

#: Literal/comprehension node types R6 flags, with human-readable labels.
_R6_LITERALS: tuple[tuple[type, str], ...] = (
    (ast.ListComp, "list comprehension"),
    (ast.SetComp, "set comprehension"),
    (ast.DictComp, "dict comprehension"),
    (ast.GeneratorExp, "generator expression"),
    (ast.Dict, "dict literal"),
    (ast.Set, "set literal"),
)


def _rng_or_clock(node: ast.Call) -> tuple[str, str] | None:
    """``(flavor, name)`` if R1 and R8 forbid call *node*, else ``None``.

    The flavor is ``random`` (a draw from the shared global generator),
    ``numpy`` (the global numpy generator) or ``clock`` (a wall-clock
    read): the ``rng`` and ``clock`` kinds of :func:`nondeterminism_kind`,
    so seeded constructors are clean here exactly as they are for R9.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    found = nondeterminism_kind(name, node)
    if found is None or found[0] not in ("rng", "clock"):
        return None
    if found[0] == "clock":
        return "clock", name
    return ("random" if name.startswith("random.") else "numpy"), name


def _is_true(value: ast.expr | None) -> bool:
    """Whether *value* is the literal ``True`` (R4's ``unskippable = True``)."""
    return isinstance(value, ast.Constant) and value.value is True


class Linter:
    """Builds the project model once, then applies every rule.

    The syntactic rules (R1–R8) run module by module, R3, R4 and R8
    reading class lineage from the whole model; the interprocedural
    passes (R9–R11) run once over the whole :class:`ProjectModel`. Suppressed
    findings are tallied per rule in :attr:`suppressed_counts`; unknown
    rule ids in pragmas land in :attr:`warnings`.
    """

    def __init__(self, *, include_fixtures: bool = False) -> None:
        self.include_fixtures = include_fixtures
        self.model = ProjectModel()
        self._errors: list[str] = []
        #: Names of dataclasses seen anywhere in the file set; fields of a
        #: ``*Config`` dataclass may reference them (R5) because
        #: ``to_json`` serializes nested dataclasses recursively.
        self._dataclass_names: set[str] = set()
        self.suppressed_counts: dict[str, int] = {}
        self.warnings: list[str] = []

    # -- file collection -------------------------------------------------

    def add_paths(self, paths: Iterable[str | Path]) -> None:
        for path in paths:
            path = Path(path)
            if path.is_dir():
                for file in sorted(path.rglob("*.py")):
                    if self._excluded(file, path):
                        continue
                    self.add_file(file)
            elif path.suffix == ".py":
                self.add_file(path)
            else:
                self._errors.append(f"{path}: not a Python file or directory")

    def _excluded(self, path: Path, root: Path) -> bool:
        """Whether *path*, found under the directory argument *root*, is skipped.

        Each skip looks only below *root*: dot-directories (``.git``,
        ``.venv``), ``__pycache__`` and, without ``--include-fixtures``,
        ``fixtures``. A checkout under ``~/.cache`` or a ``fixtures/``
        directory, or reached through ``..``, is still linted.
        """
        below = path.relative_to(root).parts
        if "__pycache__" in below or any(p.startswith(".") for p in below):
            return True
        return "fixtures" in below and not self.include_fixtures

    def add_file(self, path: str | Path) -> None:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            self._errors.append(f"{path}: unreadable ({exc})")
            return
        self.add_source(source, path.as_posix())

    def add_source(self, source: str, path: str) -> None:
        """Register in-memory *source* under *path* (tests use this)."""
        try:
            module = ModuleInfo(path, source)
        except SyntaxError as exc:
            self._errors.append(f"{path}: syntax error: {exc}")
            return
        self.model.add_module(module)
        self._dataclass_names.update(
            name for name, info in module.classes.items() if info.is_dataclass
        )
        for lineno, rules in sorted(module.suppressions.items()):
            unknown = sorted(rules - set(RULES) - {"ALL"})
            for rule in unknown:
                self.warnings.append(
                    f"{path}:{lineno}: unknown rule {rule!r} in repro-lint "
                    "ignore pragma (known: R1-R11, ALL)"
                )

    @property
    def errors(self) -> list[str]:
        """Parse/IO problems (reported separately from rule violations)."""
        return self._errors

    def source_line(self, path: str, lineno: int) -> str:
        """Line *lineno* of *path* (for baseline context matching)."""
        module = self.model.by_path.get(path)
        if module is not None and 1 <= lineno <= len(module.lines):
            return module.lines[lineno - 1]
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError:
            return ""
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    # -- rule driver -----------------------------------------------------

    def run(self) -> list[Violation]:
        violations: list[Violation] = []
        self.suppressed_counts = {}

        def admit(module: ModuleInfo, found: Iterable[Violation]) -> None:
            for violation in found:
                if module.suppressed(violation.line, violation.rule):
                    self.suppressed_counts[violation.rule] = (
                        self.suppressed_counts.get(violation.rule, 0) + 1
                    )
                else:
                    violations.append(violation)

        for path in sorted(self.model.by_path):
            module = self.model.by_path[path]
            if module.skip_file:
                continue
            admit(module, self._check_file(module))

        for pass_check in (taint.check, dimensions.check, isolation.check):
            for violation in pass_check(self.model):
                module = self.model.by_path.get(violation.path)
                if module is None or module.skip_file:
                    continue
                admit(module, [violation])

        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return violations

    def _check_file(self, module: ModuleInfo) -> Iterator[Violation]:
        path = module.path
        if in_simulation_scope(path):
            yield from self._rule_r1(module)
        if "repro/network/" in path and path.rsplit("/", 1)[-1] in R2_FILES:
            yield from self._rule_r2(module)
        if any(fragment in path for fragment in R7_SCOPE):
            yield from self._rule_r7(module)
        yield from self._rule_r3(module)
        yield from self._rule_r4(module)
        yield from self._rule_r5(module)
        yield from self._rule_r6(module)
        yield from self._rule_r8(module)

    # -- R1: unseeded randomness / wall clock ----------------------------

    def _rule_r1(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            found = _rng_or_clock(node)
            if found is not None:
                flavor, name = found
                yield Violation(module.display_path, node.lineno, node.col_offset,
                                "R1", _R1_MESSAGES[flavor].format(name=name))

    # -- R2: unordered iteration on the hot path -------------------------

    def _rule_r2(self, module: ModuleInfo) -> Iterator[Violation]:
        setlike = self._collect_setlike_names(module.tree)
        for node in ast.walk(module.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_expr in iters:
                message = self._unordered_iter_message(iter_expr, setlike)
                if message is not None:
                    yield Violation(module.display_path, iter_expr.lineno,
                                    iter_expr.col_offset, "R2", message)

    @staticmethod
    def _collect_setlike_names(tree: ast.AST) -> set[str]:
        """Names/attribute chains annotated or assigned as sets."""
        setlike: set[str] = set()

        def annotation_is_set(annotation: ast.expr) -> bool:
            if isinstance(annotation, ast.Subscript):
                annotation = annotation.value
            name = dotted_name(annotation)
            return name is not None and name.split(".")[-1] in ("set", "frozenset", "Set", "FrozenSet")

        def value_is_set(value: ast.expr | None) -> bool:
            if isinstance(value, (ast.Set, ast.SetComp)):
                return True
            if isinstance(value, ast.Call):
                name = dotted_name(value.func)
                return name in ("set", "frozenset")
            return False

        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                ):
                    if arg.annotation is not None and annotation_is_set(arg.annotation):
                        setlike.add(arg.arg)
            elif isinstance(node, ast.AnnAssign):
                target = dotted_name(node.target)
                if target and annotation_is_set(node.annotation):
                    setlike.add(target)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    name = dotted_name(target)
                    if name is None:
                        continue
                    if value_is_set(node.value):
                        setlike.add(name)
                    else:
                        source = dotted_name(node.value) if node.value is not None else None
                        if source in setlike:
                            setlike.add(name)
        return setlike

    @staticmethod
    def _unordered_iter_message(
        iter_expr: ast.expr, setlike: set[str]
    ) -> str | None:
        if isinstance(iter_expr, ast.Call):
            func = dotted_name(iter_expr.func)
            if func == "sorted":
                return None
            if isinstance(iter_expr.func, ast.Attribute) and iter_expr.func.attr == "values":
                return (
                    "iteration over dict.values() in the hot path; iterate "
                    "sorted(...) or a deterministic view"
                )
            if func in ("set", "frozenset"):
                return "iteration over a set constructor; wrap in sorted(...)"
            return None
        if isinstance(iter_expr, (ast.Set, ast.SetComp)):
            return "iteration over a set literal; wrap in sorted(...)"
        name = dotted_name(iter_expr)
        if name is not None and name in setlike:
            return (
                f"direct iteration over set {name!r} in the hot path; wrap in "
                "sorted(...) to pin the order"
            )
        return None

    # -- R7: harness interrupt safety ------------------------------------

    @staticmethod
    def _handler_catches(handler: ast.ExceptHandler) -> frozenset[str]:
        """Last-component exception names *handler* catches.

        A bare ``except:`` catches everything, so it reports as
        ``BaseException``.
        """
        if handler.type is None:
            return frozenset({"BaseException"})
        nodes = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = set()
        for node in nodes:
            name = dotted_name(node)
            if name is not None:
                names.add(name.split(".")[-1])
        return frozenset(names)

    @staticmethod
    def _handler_reraises(handler: ast.ExceptHandler) -> bool:
        """Whether the handler body unconditionally re-raises.

        Only a bare ``raise`` directly in the handler body counts — a
        re-raise nested under an ``if`` is conditional and proves
        nothing.
        """
        return any(
            isinstance(stmt, ast.Raise) and stmt.exc is None
            for stmt in handler.body
        )

    def _rule_r7(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            reraised: set[str] = set()
            for handler in node.handlers:
                caught = self._handler_catches(handler)
                reraises = self._handler_reraises(handler)
                if caught & _R7_BROAD and not reraises:
                    guarded = (
                        "BaseException" in reraised
                        or _R7_INTERRUPTS <= reraised
                    )
                    if not guarded:
                        label = (
                            "bare except:"
                            if handler.type is None
                            else f"except {ast.unparse(handler.type)}"
                        )
                        yield Violation(
                            module.display_path, handler.lineno,
                            handler.col_offset, "R7",
                            f"broad handler ({label}) in harness code can "
                            "absorb an interrupt; add 'except "
                            "(KeyboardInterrupt, SystemExit): raise' before "
                            "it or re-raise unconditionally in the handler",
                        )
                if reraises:
                    reraised |= caught

    # -- R3: TrafficSource contract --------------------------------------

    def _rule_r3(self, module: ModuleInfo) -> Iterator[Violation]:
        for info in module.classes.values():
            lineage = self.model.subclass_lineage(module, info, "TrafficSource")
            if lineage is None or self._is_abstract(info):
                continue
            if any(cls.defines("next_injection_cycle") for cls in lineage):
                continue
            yield Violation(
                module.display_path, info.node.lineno, info.node.col_offset, "R3",
                f"TrafficSource subclass {info.name!r} does not override "
                "next_injection_cycle; the conservative default disables "
                "quiescence fast-forward",
            )

    @staticmethod
    def _is_abstract(info: ClassInfo) -> bool:
        for item in info.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in item.decorator_list:
                    name = decorator_name(dec) or ""
                    if name.split(".")[-1] in ("abstractmethod", "abstractproperty"):
                        return True
        return False

    # -- R4: observer skip-safety ----------------------------------------

    def _rule_r4(self, module: ModuleInfo) -> Iterator[Violation]:
        for info in module.classes.values():
            if "on_cycle" not in info.methods:
                continue
            lineage = self.model.subclass_lineage(module, info, "Observer")
            if lineage is None:
                continue
            if any(
                cls.defines("on_idle_span") or _is_true(cls.assigns.get("unskippable"))
                for cls in lineage
            ):
                continue
            yield Violation(
                module.display_path, info.node.lineno, info.node.col_offset, "R4",
                f"observer {info.name!r} overrides on_cycle without "
                "on_idle_span; define on_idle_span or declare "
                "'unskippable = True' to document that fast-forward must stop",
            )

    # -- R5: config dataclass fields must serialize ----------------------

    def _rule_r5(self, module: ModuleInfo) -> Iterator[Violation]:
        for info in module.classes.values():
            if not info.is_dataclass or not info.name.endswith("Config"):
                continue
            for item in info.node.body:
                if not isinstance(item, ast.AnnAssign):
                    continue
                if isinstance(item.target, ast.Name) and item.target.id.startswith("_"):
                    continue
                if item.annotation is not None and dotted_name(item.annotation) == "ClassVar":
                    continue
                if not self._annotation_serializable(item.annotation):
                    field = item.target.id if isinstance(item.target, ast.Name) else "?"
                    yield Violation(
                        module.display_path, item.lineno, item.col_offset, "R5",
                        f"field {info.name}.{field} has non-JSON-serializable "
                        f"annotation {ast.unparse(item.annotation)!r}; the sweep "
                        "cache key would fall back to repr()",
                    )

    # -- R6: no container allocation in # repro-hot functions ------------

    def _rule_r6(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_hot_function(module, node):
                continue
            yield from self._r6_scan(module, node.name, node.body)

    @staticmethod
    def _is_hot_function(
        module: ModuleInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> bool:
        """The ``# repro-hot`` marker sits on the def line or just above."""
        lines = module.lines
        def_line = lines[node.lineno - 1] if node.lineno <= len(lines) else ""
        above = lines[node.lineno - 2] if node.lineno >= 2 else ""
        return bool(_HOT_RE.search(def_line) or _HOT_RE.search(above))

    def _r6_scan(
        self, module: ModuleInfo, func_name: str, body: Sequence[ast.stmt]
    ) -> Iterator[Violation]:
        """Walk *body* flagging allocations, skipping ``raise`` subtrees."""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Raise):
                # Error paths may allocate freely: they run at most once.
                continue
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)
            ):
                # Parallel assignment (``a, b = x, y``): CPython unpacks
                # on the stack, no tuple is built. Scan the element
                # expressions but not the value tuple itself.
                stack.extend(node.targets[0].elts)
                stack.extend(node.value.elts)
                continue
            if self._is_deepcopy_call(node):
                yield Violation(
                    module.display_path, node.lineno, node.col_offset, "R6",
                    f"copy.deepcopy() in # repro-hot function {func_name!r} "
                    "is O(total state) per call; copy only the mutable "
                    "fields",
                )
                stack.extend(ast.iter_child_nodes(node))
                continue
            message = self._r6_allocation_message(node)
            if message is not None:
                yield Violation(
                    module.display_path, node.lineno, node.col_offset, "R6",
                    f"{message} allocates in # repro-hot function "
                    f"{func_name!r}; hoist it to setup code or reuse a "
                    "pooled/preallocated container",
                )
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_deepcopy_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = dotted_name(node.func)
        return name in ("copy.deepcopy", "deepcopy")

    @staticmethod
    def _r6_allocation_message(node: ast.AST) -> str | None:
        for node_type, label in _R6_LITERALS:
            if isinstance(node, node_type):
                return label
        if isinstance(node, (ast.List, ast.Tuple)):
            if isinstance(node.ctx, ast.Load):
                return (
                    "list literal" if isinstance(node, ast.List)
                    else "tuple literal"
                )
            return None
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                return None
            if name.split(".")[-1] in _R6_CONSTRUCTORS:
                return f"{name}() constructor call"
            parts = name.split(".")
            if len(parts) == 2 and parts[0] in _R6_NUMPY_MODULES:
                func = parts[1]
                if func in _R6_NUMPY_ALLOCATORS:
                    return f"numpy array allocation ({name}())"
                if func in _R6_NUMPY_OUT_AWARE and not any(
                    keyword.arg == "out" for keyword in node.keywords
                ):
                    return f"numpy temporary ({name}() without out=)"
        return None

    # -- R8: DVS policy purity -------------------------------------------

    def _rule_r8(self, module: ModuleInfo) -> Iterator[Violation]:
        for info in module.classes.values():
            if "decide" not in info.methods:
                continue
            if self.model.subclass_lineage(module, info, "DVSPolicy") is None:
                continue
            for item in info.node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "decide"
                ):
                    yield from self._r8_scan(module, info.name, item)

    def _r8_scan(
        self,
        module: ModuleInfo,
        class_name: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        path = module.display_path
        where = f"{class_name}.decide()"
        suffix = (
            "; decide() must be a pure function of its inputs and self "
            "(Serial vs ProcessPool bit-identity, sweep-cache soundness)"
        )
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                keyword = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield Violation(path, node.lineno, node.col_offset, "R8",
                                f"{keyword} statement in {where}{suffix}")
            elif isinstance(node, ast.Call):
                found = _rng_or_clock(node)
                if found is not None:
                    flavor, name = found
                    message = _R8_MESSAGES[flavor].format(name=name, where=where)
                    yield Violation(path, node.lineno, node.col_offset, "R8",
                                    message + suffix)
        # Plain-name stores inside decide() bind locals, never globals (the
        # `global` statement flagged above is what would change that), so
        # a local shadowing a module name is not a purity breach.
        for write in module_state_writes(func, module.module_assigns):
            target = write.target
            if write.method is None:
                message = f"store to module-level state {write.root!r} in {where}"
            else:
                message = (
                    f"mutation of module-level state {write.root!r} "
                    f"(.{write.method}()) in {where}"
                )
            yield Violation(path, target.lineno, target.col_offset, "R8",
                            message + suffix)

    def _annotation_serializable(self, annotation: ast.expr) -> bool:
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return True
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return False
                return self._annotation_serializable(parsed)
            return False
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return self._annotation_serializable(
                annotation.left
            ) and self._annotation_serializable(annotation.right)
        if isinstance(annotation, ast.Subscript):
            container = dotted_name(annotation.value)
            if container is None:
                return False
            if container == "ClassVar" or container.split(".")[-1] == "ClassVar":
                return True
            if container.split(".")[-1] not in _JSON_CONTAINERS:
                return False
            slice_node = annotation.slice
            elements = (
                list(slice_node.elts)
                if isinstance(slice_node, ast.Tuple)
                else [slice_node]
            )
            return all(
                isinstance(element, ast.Constant) and element.value is Ellipsis
                or self._annotation_serializable(element)
                for element in elements
            )
        name = dotted_name(annotation)
        if name is None:
            return False
        last = name.split(".")[-1]
        if last in _JSON_LEAVES:
            return True
        return last in self._dataclass_names


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_paths(
    paths: Sequence[str | Path],
    *,
    include_fixtures: bool = False,
    baseline: str | Path | None = None,
) -> tuple[list[Violation], list[str]]:
    """Lint *paths*; returns ``(violations, parse_errors)``.

    With *baseline*, findings matching the committed baseline file are
    filtered out — only new findings are returned.
    """
    linter = Linter(include_fixtures=include_fixtures)
    linter.add_paths(paths)
    violations = linter.run()
    if baseline is not None:
        entries = baseline_io.load(baseline)
        violations, _, _ = baseline_io.apply(
            violations, entries, linter.source_line
        )
    return violations, linter.errors


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=(
            "repo-specific static-analysis rules R1-R11 "
            "(see docs/static_analysis.md)"
        ),
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--include-fixtures", action="store_true",
        help="also lint directories named 'fixtures' (skipped by default)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help=(
            "baseline file of known findings (default: "
            f"{baseline_io.DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=(
            "rewrite the baseline from the current findings (preserving "
            "justifications of surviving entries) and exit 0"
        ),
    )
    args = parser.parse_args(argv)

    linter = Linter(include_fixtures=args.include_fixtures)
    linter.add_paths(args.paths)
    violations = linter.run()
    errors = linter.errors

    baseline_path: Path | None = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif Path(baseline_io.DEFAULT_BASELINE).is_file():
            baseline_path = Path(baseline_io.DEFAULT_BASELINE)

    if args.update_baseline:
        target = baseline_path or Path(baseline_io.DEFAULT_BASELINE)
        previous: list[dict[str, object]] = []
        if target.is_file():
            try:
                previous = baseline_io.load(target)
            except baseline_io.BaselineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        count = baseline_io.save(
            target, violations, linter.source_line, previous
        )
        print(f"repro-lint: wrote {count} baseline entrie(s) to {target}")
        return 2 if errors else 0

    matched: list[Violation] = []
    stale: list[str] = []
    if baseline_path is not None:
        try:
            entries = baseline_io.load(baseline_path)
        except baseline_io.BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        violations, matched, stale = baseline_io.apply(
            violations, entries, linter.source_line
        )

    if args.format == "json":
        print(
            json.dumps(
                {
                    "violations": [v.as_dict() for v in violations],
                    "errors": errors,
                    "rules": RULES,
                    "suppressions": dict(sorted(linter.suppressed_counts.items())),
                    "baseline": {
                        "path": str(baseline_path) if baseline_path else None,
                        "matched": len(matched),
                        "stale": stale,
                    },
                    "warnings": linter.warnings,
                },
                indent=2,
            )
        )
    elif args.format == "sarif":
        print(sarif.render(violations, RULES))
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
    else:
        for violation in violations:
            print(violation.render())
        for warning in linter.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        for warning in stale:
            print(f"warning: {warning}", file=sys.stderr)
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        if not violations and not errors:
            suffix = f" ({len(matched)} baseline finding(s))" if matched else ""
            print(f"repro-lint: clean{suffix}")
        elif violations:
            counts: dict[str, int] = {}
            for violation in violations:
                counts[violation.rule] = counts.get(violation.rule, 0) + 1
            summary = ", ".join(
                f"{rule} x{count}" for rule, count in sorted(counts.items())
            )
            print(f"repro-lint: {len(violations)} violation(s) ({summary})")
    if errors:
        return 2
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
