"""R9: interprocedural determinism taint.

R1 bans *direct* unseeded-randomness and wall-clock calls in
simulation-semantics code (:data:`~repro.analysis.model.SIMULATION_SCOPE`:
``repro/network/``, ``repro/traffic/``, ``repro/core/``). R9 generalizes
the contract through the call graph of the shared
:class:`~repro.analysis.model.ProjectModel`:

* a function anywhere in the file set that reads a nondeterminism
  source — the shared global RNG, the wall clock, ``os.environ``, or
  the filesystem, as classified by
  :func:`~repro.analysis.model.nondeterminism_kind`, the classifier R1
  and R8 use too — is *tainted* with that kind;
* taint propagates callee-to-caller to a fixed point, so a seeded-RNG
  leak hidden behind one (or five) helper calls is as visible as a
  direct call;
* a finding is reported at the call site inside scoped code where the
  taint crosses in, with the full witness chain down to the concrete
  source call in the message.

Direct ``rng``/``clock`` calls inside scoped files are *not* re-reported
(R1 already owns those); direct ``env``/``filesystem`` reads in scope are
new with R9 and are reported here. Pre-existing findings are tracked in
the committed baseline (see docs/static_analysis.md) rather than
suppressed inline.
"""

from __future__ import annotations

import ast
import dataclasses

from .model import (
    FunctionInfo,
    ProjectModel,
    Violation,
    dotted_name,
    in_simulation_scope,
    nondeterminism_kind,
)

_KIND_LABEL = {
    "rng": "unseeded randomness",
    "clock": "wall-clock time",
    "env": "environment state",
    "filesystem": "filesystem state",
}


@dataclasses.dataclass(frozen=True, slots=True)
class TaintSource:
    """One concrete nondeterminism read: where and what."""

    kind: str
    call: str
    path: str
    line: int

    def describe(self) -> str:
        return f"{self.call} at {self.path}:{self.line}"


def _direct_sources(function: FunctionInfo) -> tuple[TaintSource, ...]:
    sources: list[TaintSource] = []
    path = function.module.display_path
    for call in function.calls:
        classified = nondeterminism_kind(call.name, call.node)
        if classified is not None:
            kind, detail = classified
            sources.append(TaintSource(kind, detail, path, call.line))
    # ``os.environ[...]`` reads are subscripts, not calls.
    for node in ast.walk(function.node):
        if isinstance(node, ast.Subscript):
            name = dotted_name(node.value)
            if name in ("os.environ", "environ"):
                sources.append(
                    TaintSource("env", "os.environ[...]", path, node.lineno)
                )
    return tuple(sources)


class TaintAnalysis:
    """Fixed-point determinism taint over the project call graph."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        #: qualname -> sources introduced directly in that function.
        self.direct: dict[str, tuple[TaintSource, ...]] = {}
        #: qualname -> one witness source per taint kind (transitive).
        self.tainted: dict[str, dict[str, TaintSource]] = {}
        #: qualname -> kind -> callee qualname that carried the taint in
        #: (empty string for directly introduced taint).
        self.carrier: dict[str, dict[str, str]] = {}
        self._solve()

    def _solve(self) -> None:
        graph = self.model.call_graph()
        callers: dict[str, list[str]] = {}
        for caller, callees in graph.items():
            for callee in callees:
                callers.setdefault(callee, []).append(caller)

        worklist: list[str] = []
        for qualname, function in self.model.functions.items():
            sources = _direct_sources(function)
            self.direct[qualname] = sources
            if sources:
                kinds: dict[str, TaintSource] = {}
                carried: dict[str, str] = {}
                for source in sources:
                    kinds.setdefault(source.kind, source)
                    carried.setdefault(source.kind, "")
                self.tainted[qualname] = kinds
                self.carrier[qualname] = carried
                worklist.append(qualname)

        while worklist:
            current = worklist.pop()
            current_kinds = self.tainted.get(current, {})
            for caller in callers.get(current, ()):
                caller_kinds = self.tainted.setdefault(caller, {})
                caller_carriers = self.carrier.setdefault(caller, {})
                changed = False
                for kind, source in current_kinds.items():
                    if kind not in caller_kinds:
                        caller_kinds[kind] = source
                        caller_carriers[kind] = current
                        changed = True
                if changed:
                    worklist.append(caller)

    def witness_chain(self, qualname: str, kind: str, limit: int = 8) -> list[str]:
        """Callee chain from *qualname* down to the direct source."""
        chain: list[str] = []
        current = qualname
        for _ in range(limit):
            carrier = self.carrier.get(current, {}).get(kind)
            if not carrier:
                break
            chain.append(carrier)
            current = carrier
        return chain


def check(model: ProjectModel) -> list[Violation]:
    """Run R9 over *model*; returns sorted violations."""
    analysis = TaintAnalysis(model)
    violations: list[Violation] = []
    for module in model.iter_modules():
        if not in_simulation_scope(module.path):
            continue
        for function in module.functions.values():
            violations.extend(_check_function(model, analysis, function))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def _check_function(
    model: ProjectModel, analysis: TaintAnalysis, function: FunctionInfo
) -> list[Violation]:
    violations: list[Violation] = []
    path = function.module.display_path
    where = function.local_name

    # Direct env/filesystem reads in scope are R9 findings (R1 does not
    # cover them); direct rng/clock stays R1's report.
    reported_direct: set[tuple[str, int]] = set()
    for source in analysis.direct.get(function.qualname, ()):
        if source.kind in ("env", "filesystem"):
            key = (source.kind, source.line)
            if key in reported_direct:
                continue
            reported_direct.add(key)
            violations.append(
                Violation(
                    path, source.line, function.node.col_offset, "R9",
                    f"{where} reads {_KIND_LABEL[source.kind]} directly "
                    f"({source.call}); simulation-semantics code must be a "
                    "pure function of its seeded config",
                )
            )

    # Indirect taint: a call to a helper that is (transitively) tainted.
    # Only out-of-scope callees are reported here — a tainted helper
    # *inside* scope already carries its own R1/R9 finding at the root
    # cause, and repeating it at every caller would bury the signal.
    seen_edges: set[tuple[str, str]] = set()
    for call in function.calls:
        resolved = model.resolve_call(function, call)
        if resolved is None or resolved.qualname == function.qualname:
            continue
        if in_simulation_scope(resolved.module.path):
            continue
        callee_kinds = analysis.tainted.get(resolved.qualname)
        if not callee_kinds:
            continue
        for kind in sorted(callee_kinds):
            source = callee_kinds[kind]
            edge = (resolved.qualname, kind)
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            chain = [resolved.qualname] + analysis.witness_chain(
                resolved.qualname, kind
            )
            via = " -> ".join(chain)
            violations.append(
                Violation(
                    path, call.line, call.col, "R9",
                    f"{where} reaches {_KIND_LABEL[kind]} through "
                    f"{via} ({source.describe()}); taint must not leak "
                    "into simulation-semantics code",
                )
            )
    return violations
