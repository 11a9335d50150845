"""Shared project model for the static-analysis framework.

Every pass in :mod:`repro.analysis` — the per-file syntactic rules
R1–R8 that grew up in :mod:`repro.analysis.lint` and the
interprocedural passes R9–R11 (:mod:`~repro.analysis.taint`,
:mod:`~repro.analysis.dimensions`, :mod:`~repro.analysis.isolation`) —
works off the structures built here, so the source tree is parsed and
indexed exactly once per lint run:

* :class:`ModuleInfo` — one parsed file: AST, source lines, the
  suppression table (including multi-line statement spans), the class
  table, the function table (module functions *and* methods), the
  import table mapping local names to absolute dotted targets, and the
  module-level assignment table with a mutability classification.
* :class:`ProjectModel` — the file set: module lookup by dotted name
  and by path, a project-wide class index, and the call-graph builder.
  Call resolution is *alias-aware*: a local bound to a function
  (``runner = run_simulation``) or to an instance of a known class
  (``sim = Simulator(cfg)`` followed by ``sim.run()``), and instance
  attributes assigned a known class (``self._engine = Engine(...)``
  then ``self._engine.step()``), all resolve to their targets. Names
  the model cannot prove anything about resolve to ``None`` and simply
  contribute no edges — every pass built on the graph is therefore
  best-effort-but-sound-in-practice rather than exhaustive, which the
  committed baseline workflow accounts for (see
  docs/static_analysis.md).

Everything here is stdlib-only on purpose: the linter must run in CI
and pre-commit before any dependency is importable.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections import deque
from typing import Iterator, Sequence

#: Matches ``# repro-lint: ignore[R2]`` / ``ignore[R1,R4]`` pragmas.
SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9,\s]+)\]")
#: Matches the whole-file opt-out pragma (first ten lines only).
SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")

# -- shared rule vocabulary --------------------------------------------------
# The determinism rules (per-file R1/R8 in lint.py, interprocedural R9 in
# taint.py) agree on what counts as a nondeterminism source; the tables
# live here so the definitions cannot drift apart.

#: Wall-clock call chains banned in simulation-semantics code.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)
#: random.* attributes that are fine: seeded generator constructors and
#: state plumbing, not draws from the shared global generator.
RANDOM_OK = frozenset({"Random", "SystemRandom", "getstate", "setstate"})
#: numpy.random constructors that are fine when given an explicit seed.
NP_RANDOM_SEEDED_OK = frozenset({"default_rng", "RandomState", "Generator", "SeedSequence"})
#: Environment reads (taint kind ``env``): configuration smuggled past the
#: config fingerprint breaks the sweep cache's soundness claim.
ENV_READ_CALLS = frozenset({"os.getenv", "os.environ.get", "os.environ.setdefault"})
#: Filesystem access (taint kind ``filesystem``): bare function names and
#: ``os.``/``os.path.`` chains treated as host-state reads/writes.
FILESYSTEM_CALLS = frozenset(
    {
        "open",
        "os.listdir",
        "os.scandir",
        "os.walk",
        "os.stat",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.rename",
        "os.replace",
        "glob.glob",
        "glob.iglob",
    }
)
#: Method names (matched on any receiver) that read or write files.
FILESYSTEM_METHODS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)


def nondeterminism_kind(name: str, node: ast.Call) -> tuple[str, str] | None:
    """Classify call *name* as a nondeterminism source.

    Returns ``(kind, detail)`` with kind one of ``rng``/``clock``/``env``/
    ``filesystem``, or ``None`` for a clean call. Seeded constructors
    (``random.Random(seed)``, ``np.random.default_rng(seed)``) are clean.
    """
    if name.startswith("random.") and name.split(".", 1)[1] not in RANDOM_OK:
        return "rng", name
    if name in WALL_CLOCK_CALLS:
        return "clock", name
    for prefix in ("numpy.random.", "np.random."):
        if name.startswith(prefix):
            tail = name[len(prefix):]
            seeded = tail in NP_RANDOM_SEEDED_OK and bool(node.args or node.keywords)
            if not seeded:
                return "rng", name
            return None
    if name in ENV_READ_CALLS or name == "os.environ":
        return "env", name
    if name in FILESYSTEM_CALLS:
        return "filesystem", name
    if name.split(".")[-1] in FILESYSTEM_METHODS:
        return "filesystem", name
    return None


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    return dotted_name(node)


def module_name_for_path(path: str) -> str:
    """Dotted module name for *path* (best effort, used as an index key).

    ``src/repro/core/registry.py`` -> ``repro.core.registry`` and
    ``tests/test_lint.py`` -> ``tests.test_lint``; unrecognizable paths
    fall back to the path itself with separators dotted, which keeps
    keys unique without claiming package membership.
    """
    posix = path.replace("\\", "/")
    for anchor in ("/src/", "src/"):
        if posix.startswith(anchor) or anchor in posix:
            _, _, tail = posix.rpartition(anchor)
            posix = tail
            break
    if posix.endswith(".py"):
        posix = posix[: -len(".py")]
    if posix.endswith("/__init__"):
        posix = posix[: -len("/__init__")]
    return posix.strip("/").replace("/", ".")


@dataclasses.dataclass(frozen=True, slots=True)
class Violation:
    """One finding, sortable into stable report order."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        from .lint import RULES  # cycle-free at call time

        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": RULES.get(self.rule, self.rule),
            "message": self.message,
        }


@dataclasses.dataclass
class ClassInfo:
    """What the rules need to know about one class definition."""

    name: str
    bases: tuple[str, ...]
    methods: frozenset[str]
    assigns: dict[str, ast.expr]
    is_dataclass: bool
    node: ast.ClassDef
    #: ``self.<attr> = ClassName(...)`` seen in any method: attr -> class
    #: name. Feeds alias-aware resolution of ``self.<attr>.method()``.
    attr_classes: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a function body."""

    name: str
    node: ast.Call
    line: int
    col: int


@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition plus its local def-use facts."""

    qualname: str
    local_name: str
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None
    is_generator: bool
    calls: tuple[CallSite, ...]
    #: Local name -> last syntactic assignment value (alias-aware
    #: def-use; conditional paths collapse to "last assignment wins",
    #: which is the right bias for alias resolution: a wrong alias only
    #: ever produces an extra or missing edge, never a crash).
    assigns: dict[str, ast.expr]

    @property
    def name(self) -> str:
        return self.node.name


def _is_generator(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
            # yields inside a nested def belong to that def
            owner = _owning_function(node, sub)
            if owner is node:
                return True
    return False


def _owning_function(
    root: ast.FunctionDef | ast.AsyncFunctionDef, target: ast.AST
) -> ast.AST | None:
    """The innermost function around *target* inside *root* (linear scan)."""
    stack: list[tuple[ast.AST, ast.AST]] = [(root, root)]
    while stack:
        node, owner = stack.pop()
        if node is target:
            return owner
        for child in ast.iter_child_nodes(node):
            child_owner = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not root
                else owner
            )
            stack.append((child, child_owner))
    return None


class ModuleInfo:
    """One parsed source file plus its symbol and suppression tables."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.display_path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.module_name = module_name_for_path(path)
        self.package = (
            self.module_name.rpartition(".")[0] if "." in self.module_name else ""
        )

        self.suppressions: dict[int, frozenset[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = SUPPRESS_RE.search(line)
            if match:
                rules = frozenset(
                    part.strip().upper() for part in match.group(1).split(",")
                )
                self.suppressions[lineno] = rules
        self.skip_file = any(SKIP_FILE_RE.search(line) for line in self.lines[:10])

        self.classes = self._collect_classes()
        self.imports = self._collect_imports()
        self.module_assigns = self._collect_module_assigns()
        self.mutable_globals = self._classify_mutable_globals()
        self.functions = self._collect_functions()
        #: Suppression pragmas widened to full statement spans, so a
        #: pragma anywhere inside a multi-line statement suppresses
        #: findings reported on any line of that statement.
        self.suppression_spans = self._widen_suppressions()

    # -- symbol collection -----------------------------------------------

    def _collect_classes(self) -> dict[str, ClassInfo]:
        classes: dict[str, ClassInfo] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                name for name in (dotted_name(base) for base in node.bases) if name
            )
            methods = frozenset(
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            assigns: dict[str, ast.expr] = {}
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            assigns[target.id] = item.value
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    if isinstance(item.target, ast.Name):
                        assigns[item.target.id] = item.value
            is_dataclass = any(
                (decorator_name(dec) or "").split(".")[-1] == "dataclass"
                for dec in node.decorator_list
            )
            info = ClassInfo(node.name, bases, methods, assigns, is_dataclass, node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._collect_attr_classes(item, info)
            classes[node.name] = info
        return classes

    @staticmethod
    def _collect_attr_classes(
        method: ast.FunctionDef | ast.AsyncFunctionDef, info: ClassInfo
    ) -> None:
        for node in ast.walk(method):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            callee = dotted_name(node.value.func)
            if callee is None:
                continue
            last = callee.split(".")[-1]
            if not (last[:1].isupper()):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attr_classes.setdefault(target.attr, last)

    def _collect_imports(self) -> dict[str, str]:
        """Local name -> absolute dotted target (module or module.attr)."""
        imports: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    imports[local] = f"{base}.{alias.name}" if base else alias.name
        return imports

    def _resolve_from(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or ""
        # Relative import: climb from this module's package.
        parts = self.module_name.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def _collect_module_assigns(self) -> dict[str, ast.expr]:
        assigns: dict[str, ast.expr] = {}
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            assigns[node.id] = stmt.value
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    value = getattr(stmt, "value", None)
                    assigns[stmt.target.id] = (
                        value if value is not None else ast.Constant(value=None)
                    )
        return assigns

    def _classify_mutable_globals(self) -> frozenset[str]:
        """Module-level names bound to provably mutable containers."""
        mutable: set[str] = set()
        for name, value in self.module_assigns.items():
            if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                  ast.DictComp, ast.SetComp)):
                mutable.add(name)
            elif isinstance(value, ast.Call):
                callee = dotted_name(value.func) or ""
                if callee.split(".")[-1] in (
                    "list", "dict", "set", "bytearray", "deque", "defaultdict",
                    "Counter", "OrderedDict",
                ):
                    mutable.add(name)
        return frozenset(mutable)

    def _collect_functions(self) -> dict[str, FunctionInfo]:
        functions: dict[str, FunctionInfo] = {}

        def visit(
            body: Sequence[ast.stmt], class_name: str | None, prefix: str
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local = f"{prefix}{stmt.name}"
                    functions[local] = self._build_function(stmt, class_name, local)
                elif isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, stmt.name, f"{stmt.name}.")
                elif isinstance(stmt, (ast.If, ast.Try)):
                    # Guarded module-level defs (TYPE_CHECKING, fallbacks).
                    for sub_body in (
                        [stmt.body]
                        + ([stmt.orelse] if stmt.orelse else [])
                        + ([h.body for h in stmt.handlers] if isinstance(stmt, ast.Try) else [])
                    ):
                        visit(sub_body, class_name, prefix)

        visit(self.tree.body, None, "")
        return functions

    def _build_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
        local: str,
    ) -> FunctionInfo:
        calls: list[CallSite] = []
        assigns: dict[str, ast.expr] = {}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name is None and isinstance(sub.func, ast.Attribute):
                    # Chained receiver, e.g. ``Engine(cfgs).run()`` — keep
                    # the method name with a marker head so the resolver
                    # can look at the receiver expression.
                    name = f"<expr>.{sub.func.attr}"
                if name is not None:
                    calls.append(
                        CallSite(name, sub, sub.lineno, sub.col_offset)
                    )
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        assigns[target.id] = sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                if isinstance(sub.target, ast.Name):
                    assigns[sub.target.id] = sub.value
        return FunctionInfo(
            qualname=f"{self.module_name}.{local}",
            local_name=local,
            module=self,
            node=node,
            class_name=class_name,
            is_generator=_is_generator(node),
            calls=tuple(calls),
            assigns=assigns,
        )

    # -- suppressions ------------------------------------------------------

    def _statement_spans(self) -> list[tuple[int, int]]:
        """(start, end) line spans of "simple" statements.

        Compound statements contribute only their header span (``def``/
        ``if``/``for`` line down to the line before their first body
        statement) so a pragma inside a function body never silences the
        whole function.
        """
        spans: list[tuple[int, int]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            body = getattr(node, "body", None)
            if body and isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                end = min(end, body[0].lineno - 1)
            if end >= node.lineno:
                spans.append((node.lineno, end))
        return spans

    def _widen_suppressions(self) -> list[tuple[int, int, frozenset[str]]]:
        spans = self._statement_spans()
        widened: list[tuple[int, int, frozenset[str]]] = []
        for lineno, rules in self.suppressions.items():
            best: tuple[int, int] | None = None
            for start, end in spans:
                if start <= lineno <= end and end > start:
                    if best is None or (end - start) < (best[1] - best[0]):
                        best = (start, end)
            if best is not None:
                widened.append((best[0], best[1], rules))
        return widened

    def suppressed(self, lineno: int, rule: str) -> bool:
        rules = self.suppressions.get(lineno)
        if rules is not None and (rule in rules or "ALL" in rules):
            return True
        for start, end, span_rules in self.suppression_spans:
            if start <= lineno <= end and (rule in span_rules or "ALL" in span_rules):
                return True
        return False

    # -- class-hierarchy helpers (per-file; cross-file bases match by name)

    def inherits_from(self, info: ClassInfo, root: str) -> bool:
        seen: set[str] = set()
        stack = list(info.bases)
        while stack:
            base = stack.pop()
            last = base.split(".")[-1]
            if last == root:
                return True
            if last in seen:
                continue
            seen.add(last)
            parent = self.classes.get(last)
            if parent is not None:
                stack.extend(parent.bases)
        return False

    def hierarchy_defines(self, info: ClassInfo, member: str) -> bool:
        """Whether *info* or any in-file ancestor defines *member*."""
        seen: set[str] = set()
        stack: list[ClassInfo] = [info]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            if member in current.methods or member in current.assigns:
                return True
            for base in current.bases:
                parent = self.classes.get(base.split(".")[-1])
                if parent is not None:
                    stack.append(parent)
        return False

    def hierarchy_assigns_true(self, info: ClassInfo, attr: str) -> bool:
        seen: set[str] = set()
        stack: list[ClassInfo] = [info]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            value = current.assigns.get(attr)
            if isinstance(value, ast.Constant) and value.value is True:
                return True
            for base in current.bases:
                parent = self.classes.get(base.split(".")[-1])
                if parent is not None:
                    stack.append(parent)
        return False


class ProjectModel:
    """The parsed file set plus cross-file indexes and the call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.by_path: dict[str, ModuleInfo] = {}
        #: class name -> [(module, info)] across the whole file set.
        self.class_index: dict[str, list[tuple[ModuleInfo, ClassInfo]]] = {}
        #: fully qualified function name -> FunctionInfo.
        self.functions: dict[str, FunctionInfo] = {}
        self._edges: dict[str, tuple[str, ...]] | None = None

    def add_module(self, module: ModuleInfo) -> None:
        self.modules[module.module_name] = module
        self.by_path[module.path] = module
        for name, info in module.classes.items():
            self.class_index.setdefault(name, []).append((module, info))
        for function in module.functions.values():
            self.functions[function.qualname] = function
        self._edges = None

    def iter_modules(self) -> Iterator[ModuleInfo]:
        yield from self.modules.values()

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """All functions whose unqualified name is *name*."""
        return [f for f in self.functions.values() if f.name == name]

    # -- resolution --------------------------------------------------------

    def _class_method(
        self, class_name: str, method: str, hint: ModuleInfo | None = None
    ) -> FunctionInfo | None:
        """Resolve ``ClassName.method`` through the project class index,
        walking base classes by name. Prefers classes in *hint*'s module."""
        candidates = self.class_index.get(class_name, [])
        if hint is not None:
            candidates = sorted(
                candidates, key=lambda pair: pair[0] is not hint
            )
        seen: set[str] = set()
        queue: deque[tuple[ModuleInfo, ClassInfo]] = deque(candidates)
        while queue:
            module, info = queue.popleft()
            key = f"{module.module_name}.{info.name}"
            if key in seen:
                continue
            seen.add(key)
            found = module.functions.get(f"{info.name}.{method}")
            if found is not None:
                return found
            for base in info.bases:
                base_last = base.split(".")[-1]
                for pair in self.class_index.get(base_last, []):
                    queue.append(pair)
        return None

    def _resolve_absolute(self, target: str) -> FunctionInfo | None:
        """Resolve an absolute dotted target to a function, method, or a
        class (mapped to its ``__init__``)."""
        found = self.functions.get(target)
        if found is not None:
            return found
        head, _, tail = target.rpartition(".")
        if not tail:
            return None
        # module.Class -> Class.__init__
        module = self.modules.get(target)
        if module is None and head:
            module = self.modules.get(head)
            if module is not None:
                info = module.classes.get(tail)
                if info is not None:
                    return module.functions.get(f"{tail}.__init__")
                function = module.functions.get(tail)
                if function is not None:
                    return function
        # module.Class.method
        if head:
            mod_name, _, cls_name = head.rpartition(".")
            owner = self.modules.get(mod_name) if mod_name else None
            if owner is not None and cls_name in owner.classes:
                return owner.functions.get(f"{cls_name}.{tail}")
        return None

    def _alias_target(
        self, caller: FunctionInfo, name: str
    ) -> str | None:
        """Class name a local/attribute alias refers to, if provable."""
        value = caller.assigns.get(name)
        if value is None and caller.class_name is not None:
            owner = caller.module.classes.get(caller.class_name)
            if owner is not None and name.startswith("self."):
                return owner.attr_classes.get(name[len("self."):])
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee is not None:
                last = callee.split(".")[-1]
                if last[:1].isupper():
                    return last
        return None

    def resolve_call(
        self, caller: FunctionInfo, call: CallSite
    ) -> FunctionInfo | None:
        name = call.name
        module = caller.module
        parts = name.split(".")
        head = parts[0]

        # <expr>.method — chained receiver; resolve instantiation chains
        # like ``Engine(cfgs).run()``, ``super().method()`` through the
        # caller's bases, and ``make(cfg).run()`` where ``make`` is a
        # project function annotated to return a project class.
        if head == "<expr>":
            func = call.node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
                receiver = dotted_name(func.value.func)
                if receiver == "super" and caller.class_name is not None:
                    owner = module.classes.get(caller.class_name)
                    for base in owner.bases if owner is not None else ():
                        found = self._class_method(
                            base.split(".")[-1], parts[-1], hint=module
                        )
                        if found is not None:
                            return found
                    return None
                if receiver is not None:
                    cls = self._local_class_name(module, receiver)
                    if cls is not None:
                        return self._class_method(cls, parts[-1], hint=module)
                    maker = self.resolve_call(
                        caller, CallSite(receiver, func.value, call.line, call.col)
                    )
                    if maker is not None and maker.node.returns is not None:
                        returned = dotted_name(maker.node.returns)
                        if returned is not None:
                            return self._class_method(
                                returned.split(".")[-1], parts[-1], hint=maker.module
                            )
            return None

        # self.method() / cls.method() and self.attr.method()
        if head in ("self", "cls") and caller.class_name is not None:
            if len(parts) == 2:
                return self._class_method(
                    caller.class_name, parts[1], hint=module
                )
            if len(parts) == 3:
                owner = module.classes.get(caller.class_name)
                if owner is not None:
                    attr_cls = owner.attr_classes.get(parts[1])
                    if attr_cls is not None:
                        return self._class_method(attr_cls, parts[2], hint=module)
            return None

        # Plain local name: alias to a function or a class?
        if len(parts) == 1:
            aliased = caller.assigns.get(head)
            if isinstance(aliased, ast.Name):
                return self.resolve_call(
                    caller,
                    CallSite(aliased.id, call.node, call.line, call.col),
                )
            if head in module.functions:
                return module.functions[head]
            cls = self._local_class_name(module, head)
            if cls is not None:
                return self._class_method(cls, "__init__", hint=module)
            target = module.imports.get(head)
            if target is not None:
                return self._resolve_absolute(target)
            return None

        # alias.method() where alias is a local bound to a known class.
        alias_cls = self._alias_target(caller, head)
        if alias_cls is not None and len(parts) == 2:
            return self._class_method(alias_cls, parts[1], hint=module)

        # Imported module/class attribute chains.
        target = module.imports.get(head)
        if target is not None:
            absolute = ".".join([target] + parts[1:])
            return self._resolve_absolute(absolute)

        # ClassName.method inside the defining module.
        if head in module.classes and len(parts) == 2:
            return self._class_method(head, parts[1], hint=module)
        return None

    @staticmethod
    def _local_class_name(module: ModuleInfo, name: str) -> str | None:
        last = name.split(".")[-1]
        if last in module.classes:
            return last
        target = module.imports.get(name)
        if target is not None and target.split(".")[-1][:1].isupper():
            return target.split(".")[-1]
        return None

    # -- call graph --------------------------------------------------------

    def call_graph(self) -> dict[str, tuple[str, ...]]:
        """qualname -> callee qualnames (resolved edges only), cached."""
        if self._edges is None:
            edges: dict[str, tuple[str, ...]] = {}
            for function in self.functions.values():
                seen: list[str] = []
                for call in function.calls:
                    resolved = self.resolve_call(function, call)
                    if resolved is not None and resolved.qualname not in seen:
                        seen.append(resolved.qualname)
                edges[function.qualname] = tuple(seen)
            self._edges = edges
        return self._edges

    def reachable_from(self, roots: Sequence[str]) -> dict[str, tuple[str, ...]]:
        """BFS closure over the call graph.

        Returns ``qualname -> call chain`` (shortest path from a root,
        inclusive) for every function reachable from *roots*.
        """
        graph = self.call_graph()
        chains: dict[str, tuple[str, ...]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in graph.get(current, ()):
                if callee not in chains:
                    chains[callee] = chains[current] + (callee,)
                    queue.append(callee)
        return chains
