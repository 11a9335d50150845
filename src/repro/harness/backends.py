"""Unified execution backends for batches of simulations.

Every sweep in the harness reduces to the same shape of work: a list of
(picklable, frozen) :class:`~repro.config.SimulationConfig` objects, each
run through :func:`~repro.harness.runner.run_simulation`, results wanted
in input order. An :class:`ExecutionBackend` owns exactly that mapping;
:mod:`repro.harness.sweep` builds its points on top of it instead of
carrying its own execution logic; pass ``backend=make_backend(n)`` to any
sweep to run it across *n* processes.

Determinism: a simulation is fully described by its config, so
:class:`SerialBackend` and :class:`ProcessPoolBackend` produce
bit-identical result lists — the backend choice is purely a wall-clock
decision. Set the ``REPRO_PROCESSES`` environment variable to make every
backend-unaware sweep (including every simulating figure of
:mod:`repro.harness.experiments` except Figures 3-5) fan out
transparently. Figures 3-5 build their simulators in process, because
the utilization probes' histograms they plot are not part of a cached
:class:`~repro.network.simulator.SimulationResult`.

Failure semantics (see :mod:`repro.harness.resilience`): every point runs
under a :class:`~repro.harness.resilience.RetryPolicy` — bounded retries
with deterministic backoff, optional per-point timeout, interrupts always
re-raised. :meth:`ExecutionBackend.run` returns partial results plus a
:class:`~repro.harness.resilience.FailureReport`;
:meth:`ExecutionBackend.map_configs` is the strict wrapper that raises a
structured :class:`~repro.errors.SweepExecutionError` when any point is
lost. The process pool isolates worker crashes: a ``BrokenProcessPool``
respawns the pool and resubmits only the chunks that died with it.

One chunk lifecycle serves every backend. :meth:`ExecutionBackend.run`
answers previously simulated configs from the sweep result cache
(:mod:`repro.harness.cache`), slices the misses into chunks, and hands
them to the backend's transport — in-process, a process pool, or the
distributed fabric. Each transport calls one ``settle`` callback as every
chunk lands, which records the chunk's failures and *checkpoints* its
fresh results at once — the serial path stores each point as it is
computed, the pool and the fabric each chunk as it completes — so an
interrupted campaign can be resumed from the cache. Caching does not
change results and is disabled entirely via ``REPRO_CACHE=off`` or the
CLI's ``--no-cache``.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, cast

from ..config import SimulationConfig
from ..errors import ExperimentError
from ..network.simulator import SimulationResult
from .cache import get_cache
from .resilience import (
    DEFAULT_RETRY_POLICY,
    FailureReport,
    PointFailure,
    RetryPolicy,
    run_chunk,
    run_point,
)
from .runner import run_simulation

#: One point as a transport returns it: the run_chunk per-point shape.
Outcome = tuple[Optional[SimulationResult], Optional[PointFailure]]


@dataclass
class _Chunk:
    """One submitted work unit: a slice of configs plus their positions."""

    configs: list[SimulationConfig]
    indices: list[int]

    def incident(self, outcome: str, attempts: int, error: str) -> PointFailure:
        """A recovered incident covering the whole chunk (it runs again)."""
        return PointFailure(
            fingerprint=self.configs[0].fingerprint(),
            outcome=outcome,
            attempts=attempts,
            error=error,
            recovered=True,
            points=len(self.configs),
        )


#: What every transport calls as a chunk lands: ``settle(chunk, outcomes)``.
Settle = Callable[[_Chunk, Sequence[Outcome]], None]


class ExecutionBackend:
    """Maps a batch of simulation configs to results, preserving order.

    :meth:`run` owns the chunk lifecycle; a backend supplies only its
    transport, :meth:`_chunk_size` and :meth:`_execute`.
    """

    def run(
        self, configs: Iterable[SimulationConfig]
    ) -> tuple[list[Optional[SimulationResult]], FailureReport]:
        """Run every config, degrading failed points to ``None`` holes.

        Returns the results in input order plus the
        :class:`FailureReport` explaining every hole (and every recovered
        incident). Never raises for per-point faults.
        """
        configs = list(configs)
        report = FailureReport()
        cache = get_cache()
        if cache is None:
            results: list[Optional[SimulationResult]] = [None] * len(configs)
            miss_indices, miss_configs = list(range(len(configs))), configs
        else:
            results, miss_indices, miss_configs = cache.partition(configs)
        size = self._chunk_size(len(miss_configs))
        chunks = [
            _Chunk(miss_configs[start:start + size], miss_indices[start:start + size])
            for start in range(0, len(miss_configs), size)
        ]

        def settle(chunk: _Chunk, outcomes: Sequence[Outcome]) -> None:
            if len(outcomes) != len(chunk.configs):
                raise ExperimentError(
                    f"backend returned {len(outcomes)} results for a chunk of "
                    f"{len(chunk.configs)} configs"
                )
            for (result, failure), config, index in zip(
                outcomes, chunk.configs, chunk.indices, strict=True
            ):
                if failure is not None:
                    report.record(failure)
                # A fabric worker sharing this cache directory has already
                # stored (and pushed) the points it computed.
                if (
                    result is not None
                    and cache is not None
                    and not cache.contains(config)
                ):
                    cache.store(config, result)
                results[index] = result

        if chunks:
            self._execute(chunks, settle, report)
        return results, report

    def map_configs(
        self, configs: Iterable[SimulationConfig]
    ) -> list[SimulationResult]:
        """Strict variant of :meth:`run`: all results or a structured error.

        Raises :class:`~repro.errors.SweepExecutionError` (with the
        per-point :class:`PointFailure` records attached) when any point
        failed after retries.
        """
        results, report = self.run(configs)
        report.raise_if_failures(total=len(results))
        return cast("list[SimulationResult]", results)

    # -- the transport -----------------------------------------------------

    def _chunk_size(self, misses: int) -> int:
        """Configs per chunk when *misses* configs need simulating."""
        raise NotImplementedError

    def _execute(
        self, chunks: list[_Chunk], settle: Settle, report: FailureReport
    ) -> None:
        """Run every chunk, calling *settle* with its outcomes as it lands.

        *report* takes what only the transport sees: recovered chunk
        incidents (a respawned pool, a re-dispatched chunk) and chunks
        it gives up on. Per-point failures travel in the outcomes.
        """
        raise NotImplementedError


def _run_in_process(
    chunks: list[_Chunk], settle: Settle, retry: RetryPolicy
) -> None:
    """The in-process transport: run and settle one chunk at a time."""
    for chunk in chunks:
        # run_simulation is resolved through the module global on purpose:
        # tests monkeypatch repro.harness.backends.run_simulation.
        settle(
            chunk,
            [run_point(config, retry, runner=run_simulation) for config in chunk.configs],
        )


class SerialBackend(ExecutionBackend):
    """Runs the batch in-process, one simulation at a time."""

    def __init__(self, *, retry: Optional[RetryPolicy] = None) -> None:
        self.retry = DEFAULT_RETRY_POLICY if retry is None else retry

    def _chunk_size(self, misses: int) -> int:
        # One point per chunk: each result is checkpointed as it lands.
        return 1

    def _execute(
        self, chunks: list[_Chunk], settle: Settle, report: FailureReport
    ) -> None:
        _run_in_process(chunks, settle, self.retry)

    def __repr__(self) -> str:
        if self.retry is DEFAULT_RETRY_POLICY:
            return "SerialBackend()"
        return f"SerialBackend(retry={self.retry!r})"


class ProcessPoolBackend(ExecutionBackend):
    """Fans the batch out over a :class:`ProcessPoolExecutor`.

    Chunks are submitted individually (``submit`` + wait, not
    ``pool.map``), which buys three things: results checkpoint to the
    sweep cache as each chunk completes, a raising config comes back as a
    :class:`PointFailure` for just that point, and a worker crash
    (``BrokenProcessPool``) is isolated — the pool is respawned and only
    the chunks that died with it are resubmitted, up to
    ``max_pool_respawns`` times.

    ``chunksize`` controls how many configs each worker receives per IPC
    round-trip; the default sizes chunks so each worker sees ~4 of them
    over the batch, amortizing pickling without starving the pool on
    unevenly sized simulations. A single-process pool degenerates to the
    serial path (no pool spawn).
    """

    def __init__(
        self,
        processes: int = 4,
        *,
        chunksize: int | None = None,
        retry: Optional[RetryPolicy] = None,
        max_pool_respawns: int = 3,
    ) -> None:
        if processes < 1:
            raise ExperimentError("need at least one process")
        if chunksize is not None and chunksize < 1:
            raise ExperimentError("chunksize must be positive")
        if max_pool_respawns < 0:
            raise ExperimentError("max_pool_respawns cannot be negative")
        self.processes = processes
        self.chunksize = chunksize
        self.retry = DEFAULT_RETRY_POLICY if retry is None else retry
        self.max_pool_respawns = max_pool_respawns

    # -- execution --------------------------------------------------------

    def _chunk_size(self, misses: int) -> int:
        return self.chunksize or max(1, misses // (self.processes * 4))

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.processes)

    def _execute(
        self, chunks: list[_Chunk], settle: Settle, report: FailureReport
    ) -> None:
        """Submit every chunk; respawn a broken pool, resubmit what it lost."""
        if self.processes == 1:
            _run_in_process(chunks, settle, self.retry)
            return

        pool = self._spawn()
        pending: dict[Future, _Chunk] = {}
        respawns = 0
        try:
            for chunk in chunks:
                pending[self._submit(pool, chunk)] = chunk
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                lost: list[_Chunk] = []
                for future in done:
                    self._settle(future, pending.pop(future), settle, report, lost)
                if not lost:
                    continue
                # The pool is broken: every other in-flight future dies
                # with it (already-finished ones still return fine).
                for future, chunk in list(pending.items()):
                    self._settle(future, chunk, settle, report, lost)
                pending.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                respawns += 1
                if respawns > self.max_pool_respawns:
                    for chunk in lost:
                        self._fail_chunk(
                            chunk, report, outcome="worker-crash",
                            attempts=respawns,
                            error=(
                                "worker pool broke "
                                f"{respawns} times; giving up on this chunk"
                            ),
                        )
                    continue
                pool = self._spawn()
                for chunk in lost:
                    report.record(
                        chunk.incident(
                            "worker-crash",
                            respawns,
                            "BrokenProcessPool: chunk lost with the pool; "
                            "respawned and resubmitted",
                        )
                    )
                    pending[self._submit(pool, chunk)] = chunk
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _submit(self, pool: ProcessPoolExecutor, chunk: _Chunk) -> Future:
        return pool.submit(run_chunk, chunk.configs, self.retry)

    def _settle(
        self,
        future: Future,
        chunk: _Chunk,
        settle: Settle,
        report: FailureReport,
        lost: list[_Chunk],
    ) -> None:
        """Settle one finished future (or mark its chunk lost)."""
        try:
            outcomes = future.result()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BrokenProcessPool:
            lost.append(chunk)
            return
        except Exception as exc:
            # Submit-side failures (e.g. results that cannot unpickle):
            # the chunk is charged, the rest of the batch proceeds.
            self._fail_chunk(
                chunk, report, outcome="executor", attempts=1, error=repr(exc)
            )
            return
        settle(chunk, outcomes)

    @staticmethod
    def _fail_chunk(
        chunk: _Chunk,
        report: FailureReport,
        *,
        outcome: str,
        attempts: int,
        error: str,
    ) -> None:
        for config in chunk.configs:
            report.record(
                PointFailure(
                    fingerprint=config.fingerprint(),
                    outcome=outcome,
                    attempts=attempts,
                    error=error,
                )
            )

    def __repr__(self) -> str:
        return (
            f"ProcessPoolBackend(processes={self.processes}, "
            f"chunksize={self.chunksize})"
        )


def make_backend(
    processes: int | None = None,
    *,
    chunksize: int | None = None,
    retry: Optional[RetryPolicy] = None,
    kernel: str = "scalar",
    progress=None,
    backend: str = "local",
    workers: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ExecutionBackend:
    """Backend for *processes* workers (``None``/``0``/``1`` = serial).

    ``backend="distributed"`` selects the fault-tolerant TCP fabric
    (:class:`~repro.harness.distributed.DistributedBackend`): *workers*
    loopback workers are forked from the coordinator for the run (0
    means serve externally started ``repro worker`` processes, e.g. on
    other hosts, on *host*:*port*). *progress* receives the fabric's
    one-line status reports; the local backends ignore it.

    *kernel* is deprecated: the batched lockstep kernel is gone, and
    ``kernel="batched"`` warns and builds the scalar backend.
    """
    if processes is not None and processes < 0:
        raise ExperimentError("process count cannot be negative")
    if kernel not in ("scalar", "batched"):
        raise ExperimentError(
            f"unknown kernel {kernel!r}: expected 'scalar' or 'batched'"
        )
    if kernel == "batched":
        warnings.warn(
            "kernel='batched' is deprecated: the batched kernel was removed "
            "and the scalar kernel runs instead",
            DeprecationWarning,
            stacklevel=2,
        )
    if backend not in ("local", "distributed"):
        raise ExperimentError(
            f"unknown backend {backend!r}: expected 'local' or 'distributed'"
        )
    if backend == "distributed":
        # Imported lazily: the coordinator imports this module for the
        # chunk machinery, so a top-level import would be circular.
        from .distributed import DistributedBackend

        return DistributedBackend(
            spawn_workers=workers,
            host=host,
            port=port,
            chunksize=chunksize or 1,
            retry=retry,
            progress=progress,
        )
    if not processes or processes == 1:
        return SerialBackend(retry=retry)
    return ProcessPoolBackend(processes, chunksize=chunksize, retry=retry)


def default_backend(*, retry: Optional[RetryPolicy] = None) -> ExecutionBackend:
    """The backend selected by the ``REPRO_PROCESSES`` environment variable.

    Unset, empty, or ``1`` means serial — the safe default for tests and
    nested pools. Invalid values raise rather than silently serializing.
    """
    raw = os.environ.get("REPRO_PROCESSES", "").strip()
    if not raw:
        return SerialBackend(retry=retry)
    try:
        processes = int(raw)
    except ValueError as exc:
        raise ExperimentError(
            f"REPRO_PROCESSES must be an integer, got {raw!r}"
        ) from exc
    return make_backend(processes, retry=retry)
