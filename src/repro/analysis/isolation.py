"""R11: worker-isolation for the process-pool and distributed backends.

The sweep harness ships work to pool and fabric workers by pickling
configs and replaying them in a fresh interpreter. That contract is
invisible to per-function lint rules, and it has bitten this repo before
(the ``OnOffSourceSet`` live-generator bug, once fixed by hand). R11
makes it machine-checked, in two parts:

**Global reachability.** Starting from the worker entry points
(:data:`WORKER_ENTRY_POINTS`: ``run_point``, ``run_chunk``,
``run_worker_chunk``), walk the project call graph and flag every
reachable function that stores a ``global`` or mutates a module-level
mutable container. A worker that writes process-global state produces
results that depend on what else ran in that worker — exactly the
cross-talk the pool backend's determinism guarantee forbids. Findings
carry the shortest call chain from the entry point.

**Picklability by construction.** For the pickled class set — dataclasses
whose name ends in ``Config`` plus every class defined under
``repro/traffic/`` — flag field annotations naming ``Generator``,
dataclass defaults that are lambdas, and (the PR 7 bug, generalized)
instance state assigned from a call to a *generator function*: live
generators cannot be pickled or deepcopied, so they must never reach
``self``. A generator-valued local that escapes into instance state via
``self.<attr>.append(...)``-style calls is flagged too.

Deliberate, justified exceptions (the policy registry's idempotent
once-flag, say) belong in the committed baseline, not in pragmas — see
docs/static_analysis.md.
"""

from __future__ import annotations

import ast

from .model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Violation,
    dotted_name,
)

#: Functions treated as worker entry points (matched by unqualified name).
#: ``run_worker_chunk`` is the distributed fabric's work unit
#: (:mod:`repro.harness.distributed.worker`) — remote workers must obey
#: the same isolation contract as pool workers.
WORKER_ENTRY_POINTS = ("run_point", "run_chunk", "run_worker_chunk")

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
        "extendleft", "sort", "reverse",
    }
)

#: Path fragment selecting traffic-source classes for the pickled set.
TRAFFIC_SCOPE = "repro/traffic/"


def _chain_text(chain: tuple[str, ...]) -> str:
    return " -> ".join(chain)


def _function_locals(function: FunctionInfo) -> set[str]:
    """Names that are provably local bindings inside *function*."""
    local: set[str] = set()
    args = function.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        local.add(arg.arg)
    if args.vararg:
        local.add(args.vararg.arg)
    if args.kwarg:
        local.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for sub in ast.walk(target):
                    # Only Store-context names bind: in ``x[k] = v`` or
                    # ``x.attr = v`` the base ``x`` is a *read* of an
                    # existing name, not a new local.
                    if isinstance(sub, ast.Name) and isinstance(
                        sub.ctx, ast.Store
                    ):
                        local.add(sub.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    local.add(sub.id)
        elif isinstance(node, ast.comprehension):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    local.add(sub.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for sub in ast.walk(item.optional_vars):
                        if isinstance(sub, ast.Name):
                            local.add(sub.id)
    return local - declared_global


def _global_stores(function: FunctionInfo) -> list[tuple[int, int, str]]:
    """(line, col, name) for stores to ``global``-declared names."""
    declared: set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return []
    stores: list[tuple[int, int, str]] = []
    for node in ast.walk(function.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    stores.append((node.lineno, node.col_offset, target.id))
    return stores


def _global_mutations(function: FunctionInfo) -> list[tuple[int, int, str, str]]:
    """(line, col, name, how) for in-place mutations of module globals."""
    module = function.module
    local = _function_locals(function)
    candidates = set(module.mutable_globals) - local
    if not candidates:
        return []
    mutations: list[tuple[int, int, str, str]] = []
    for node in ast.walk(function.node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in candidates
                and node.func.attr in MUTATOR_METHODS
            ):
                mutations.append(
                    (node.lineno, node.col_offset, receiver.id,
                     f".{node.func.attr}(...)")
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in candidates
                ):
                    mutations.append(
                        (node.lineno, node.col_offset, target.value.id,
                         "[...] = ...")
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in candidates
                ):
                    mutations.append(
                        (node.lineno, node.col_offset, target.value.id,
                         "del [...]")
                    )
    return mutations


def check(model: ProjectModel) -> list[Violation]:
    """Run R11 over *model*; returns sorted violations."""
    violations: list[Violation] = []
    violations.extend(_check_reachability(model))
    violations.extend(_check_picklability(model))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


# -- part 1: mutable-global reachability -------------------------------------


def _check_reachability(model: ProjectModel) -> list[Violation]:
    roots = [
        function.qualname
        for name in WORKER_ENTRY_POINTS
        for function in model.functions_named(name)
    ]
    chains = model.reachable_from(roots)
    violations: list[Violation] = []
    for qualname, chain in sorted(chains.items()):
        function = model.functions[qualname]
        path = function.module.display_path
        where = function.local_name
        via = _chain_text(chain)
        for line, col, name in _global_stores(function):
            violations.append(
                Violation(
                    path, line, col, "R11",
                    f"{where} stores module global {name!r} and is reachable "
                    f"from a worker entry point via {via}; workers must not "
                    "mutate process-global state",
                )
            )
        for line, col, name, how in _global_mutations(function):
            violations.append(
                Violation(
                    path, line, col, "R11",
                    f"{where} mutates module-level container {name!r} "
                    f"({name}{how}) and is reachable from a worker entry "
                    f"point via {via}; workers must not mutate "
                    "process-global state",
                )
            )
    return violations


# -- part 2: picklability by construction ------------------------------------


def _pickled_classes(module: ModuleInfo) -> list[ClassInfo]:
    picked: list[ClassInfo] = []
    for info in module.classes.values():
        if info.is_dataclass and info.name.endswith("Config"):
            picked.append(info)
        elif TRAFFIC_SCOPE in module.path:
            picked.append(info)
    return picked


def _annotation_mentions_generator(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    for sub in ast.walk(annotation):
        name = None
        if isinstance(sub, (ast.Name, ast.Attribute)):
            name = dotted_name(sub)
        if name is not None and name.split(".")[-1] in (
            "Generator", "AsyncGenerator",
        ):
            return True
    return False


def _generator_valued(
    model: ProjectModel, function: FunctionInfo, value: ast.expr
) -> str | None:
    """Why *value* is a live generator, or ``None`` if it provably is not.

    Recognizes generator expressions, calls to project functions that are
    generators, and ``iter(...)`` wrappers around either.
    """
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is None and isinstance(value.func, ast.Attribute):
            name = f"<expr>.{value.func.attr}"
        if name == "iter" and value.args:
            return _generator_valued(model, function, value.args[0])
        if name is not None:
            from .model import CallSite

            resolved = model.resolve_call(
                function, CallSite(name, value, value.lineno, value.col_offset)
            )
            if resolved is not None and resolved.is_generator:
                return f"a call to generator function {resolved.local_name}"
    return None


def _check_picklability(model: ProjectModel) -> list[Violation]:
    violations: list[Violation] = []
    for module in model.iter_modules():
        for info in _pickled_classes(module):
            violations.extend(_check_class_fields(module, info))
            violations.extend(_check_instance_state(model, module, info))
    return violations


def _check_class_fields(module: ModuleInfo, info: ClassInfo) -> list[Violation]:
    violations: list[Violation] = []
    path = module.display_path
    for item in info.node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            field = item.target.id
            if _annotation_mentions_generator(item.annotation):
                violations.append(
                    Violation(
                        path, item.lineno, item.col_offset, "R11",
                        f"field {info.name}.{field} is annotated as a "
                        "generator; live generators cannot be pickled or "
                        "deepcopied, so they must not be instance state",
                    )
                )
            if info.is_dataclass and isinstance(item.value, ast.Lambda):
                violations.append(
                    Violation(
                        path, item.lineno, item.col_offset, "R11",
                        f"field {info.name}.{field} defaults to a lambda; "
                        "lambdas cannot be pickled, so the field value "
                        "breaks the pool backend by construction",
                    )
                )
            if info.is_dataclass and isinstance(item.value, ast.Call):
                callee = dotted_name(item.value.func) or ""
                if callee.split(".")[-1] == "field":
                    for keyword in item.value.keywords:
                        if keyword.arg == "default" and isinstance(
                            keyword.value, ast.Lambda
                        ):
                            violations.append(
                                Violation(
                                    path, item.lineno, item.col_offset, "R11",
                                    f"field {info.name}.{field} defaults to "
                                    "a lambda; lambdas cannot be pickled, so "
                                    "the field value breaks the pool backend "
                                    "by construction",
                                )
                            )
    return violations


def _check_instance_state(
    model: ProjectModel, module: ModuleInfo, info: ClassInfo
) -> list[Violation]:
    violations: list[Violation] = []
    path = module.display_path
    for item in info.node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        function = module.functions.get(f"{info.name}.{item.name}")
        if function is None:
            continue
        tainted: dict[str, str] = {}
        for node in ast.walk(item):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                why = _generator_valued(model, function, value)
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        if why is not None:
                            violations.append(
                                Violation(
                                    path, node.lineno, node.col_offset, "R11",
                                    f"{info.name}.{item.name} stores {why} in "
                                    f"self.{target.attr}; live generators "
                                    "cannot be pickled or deepcopied",
                                )
                            )
                    elif isinstance(target, ast.Name):
                        if why is not None:
                            tainted[target.id] = why
                        else:
                            tainted.pop(target.id, None)
            elif isinstance(node, ast.Call) and tainted:
                # A tainted local escaping into instance state through a
                # mutator call whose receiver or argument names self.<attr>
                # (``self._heap.append((t, i, gen))``, ``heapq.heappush(
                # self._heap, (t, i, gen))``).
                touches_self = any(
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    for arg in [node.func, *node.args]
                    for sub in ast.walk(arg)
                )
                if not touches_self:
                    continue
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name) and sub.id in tainted:
                            violations.append(
                                Violation(
                                    path, node.lineno, node.col_offset, "R11",
                                    f"{info.name}.{item.name} lets {sub.id} "
                                    f"({tainted[sub.id]}) escape into "
                                    "instance state; live generators cannot "
                                    "be pickled or deepcopied",
                                )
                            )
                            break
    return violations
