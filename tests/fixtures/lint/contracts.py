"""Fixture: R3 (traffic contract), R4 (observer skip-safety), R5 (config),
R6 (hot-path allocation), R8 (policy purity)."""

import random
from dataclasses import dataclass
from typing import Callable

from repro.core.policy import DVSAction, DVSPolicy
from repro.instrument.bus import Observer
from repro.traffic.base import TrafficSource

_DECISION_LOG = []


class UnpredictableTraffic(TrafficSource):  # one R3 violation
    def injections(self, now):
        return []


class PredictableTraffic(TrafficSource):  # clean: overrides the predictor
    def injections(self, now):
        return []

    def next_injection_cycle(self, now):
        return now + 1


class GreedyObserver(Observer):  # one R4 violation
    def on_cycle(self, now):
        pass


class DeclaredObserver(Observer):  # clean: documents the intent
    unskippable = True

    def on_cycle(self, now):
        pass


@dataclass(frozen=True)
class CallbackConfig:  # one R5 violation: a callable cannot be a cache key
    rate: float = 1.0
    on_drop: Callable[[int], None] = print


class CoinFlipPolicy(DVSPolicy):  # one R8 violation in decide()
    def decide(self, inputs):
        if random.randrange(2):  # unseeded: shared global generator
            return DVSAction.STEP_DOWN
        return DVSAction.HOLD


class AuditedPolicy(DVSPolicy):  # suppressed R8: must NOT be reported
    def decide(self, inputs):
        _DECISION_LOG.append(inputs)  # repro-lint: ignore[R8]
        return DVSAction.HOLD


class SeededPolicy(DVSPolicy):  # clean: seeded generator on self is pure
    def __init__(self):
        self._rng = random.Random(7)

    def decide(self, inputs):
        if self._rng.random() < 0.5:
            return DVSAction.STEP_DOWN
        return DVSAction.HOLD


def collect_ready(queues) -> int:  # repro-hot
    ready = []  # one R6 violation: list literal in a hot function
    for queue in queues:
        if queue:
            ready.append(queue[0])
    return len(ready)


def snapshot_counts(pairs):  # repro-hot
    # Suppressed R6: must NOT be reported.
    table = dict(pairs)  # repro-lint: ignore[R6]
    if not table:
        raise ValueError(f"no pairs in {list(pairs)!r}")  # clean: raise path
    return table
