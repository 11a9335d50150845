"""JSON serialization of experiment results.

Experiment result objects are nested dataclasses containing floats, ints,
dicts and lists; :func:`to_json` converts them recursively (dataclasses to
dicts, NaN preserved as the string ``"nan"`` for portability) and
:func:`write_json` persists them.

This module serializes *results*, not engines. Pickling or
``copy.deepcopy``-ing a live ``Simulator`` walks the entire object graph
(immutable config, topology, route memos and all); a run is a pure
function of its config, so re-running the config reproduces it instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path


def to_json(obj: object) -> object:
    """Recursively convert *obj* into JSON-compatible primitives."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_json(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): to_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(item) for item in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    # Fall back to repr for exotic leaves (enums, objects) — lossy but
    # never raises, which matters for best-effort experiment archiving.
    return repr(obj)


def canonical_json(obj: object) -> str:
    """Deterministic compact JSON for content addressing.

    Keys are sorted and separators fixed, so two structurally equal
    objects always produce byte-identical strings — the property the
    sweep cache's fingerprints rely on.
    """
    return json.dumps(to_json(obj), sort_keys=True, separators=(",", ":"))


def write_json(obj: object, path: str | Path) -> Path:
    """Serialize *obj* with :func:`to_json` and write it to *path*."""
    path = Path(path)
    path.write_text(json.dumps(to_json(obj), indent=2))
    return path
