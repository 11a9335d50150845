"""Static and runtime correctness tooling.

Two independent layers keep the simulator's correctness contracts from
silently rotting as the codebase grows (see ``docs/static_analysis.md``):

* :mod:`repro.analysis.lint` — **repro-lint**, a multi-pass static
  analysis framework with repo-specific rules R1-R11. Syntactic AST rules
  (determinism of simulation code, fast-forward safety of observers,
  totality of the sweep-cache key) run alongside interprocedural passes,
  all built on the shared :mod:`~repro.analysis.model` project model:
  determinism taint (:mod:`~repro.analysis.taint`), unit/dimension
  checking (:mod:`~repro.analysis.dimensions`), and worker isolation
  (:mod:`~repro.analysis.isolation`). Known findings live in a committed
  baseline (:mod:`~repro.analysis.baseline`); CI consumes SARIF
  (:mod:`~repro.analysis.sarif`). Run it as
  ``python -m repro.analysis.lint src tests``.
* :mod:`repro.analysis.sanitizer` — the **network sanitizer**, an opt-in
  family of instrumentation-bus observers that assert conservation
  invariants (credits, flits, VC allocation, DVS transition legality)
  every simulated cycle. Enable with ``--sanitize`` on the CLI,
  ``sanitize=True`` on :class:`~repro.network.simulator.Simulator`, or
  ``REPRO_SANITIZE=1`` in the environment.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lint import Linter, Violation, lint_paths
    from .model import ModuleInfo, ProjectModel
    from .sanitizer import (
        ConservationSanitizer,
        DVSTransitionSanitizer,
        NetworkSanitizer,
        SanitizerObserver,
        SanitizerViolation,
        TrafficContractSanitizer,
        VCAllocationSanitizer,
    )

#: Public name -> defining submodule, resolved lazily (PEP 562) so that
#: ``python -m repro.analysis.lint`` does not import the module twice and
#: importing the package does not drag in the simulator stack.
_EXPORTS = {
    "Linter": "lint",
    "Violation": "lint",
    "lint_paths": "lint",
    "ModuleInfo": "model",
    "ProjectModel": "model",
    "ConservationSanitizer": "sanitizer",
    "DVSTransitionSanitizer": "sanitizer",
    "NetworkSanitizer": "sanitizer",
    "SanitizerObserver": "sanitizer",
    "SanitizerViolation": "sanitizer",
    "TrafficContractSanitizer": "sanitizer",
    "VCAllocationSanitizer": "sanitizer",
}


def __getattr__(name: str) -> object:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "ConservationSanitizer",
    "DVSTransitionSanitizer",
    "Linter",
    "ModuleInfo",
    "NetworkSanitizer",
    "ProjectModel",
    "SanitizerObserver",
    "SanitizerViolation",
    "TrafficContractSanitizer",
    "VCAllocationSanitizer",
    "Violation",
    "lint_paths",
]
