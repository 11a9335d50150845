"""The distributed sweep coordinator: a fault-tolerant ExecutionBackend.

:class:`DistributedBackend` is the third execution backend (after serial
and the process pool): the transport that dispatches the
:class:`~repro.harness.backends._Chunk` units planned by
:meth:`~repro.harness.backends.ExecutionBackend.run` to remote workers
over asyncio TCP. That shared lifecycle keeps every local guarantee —
results in input order, per-point
:class:`~repro.harness.resilience.PointFailure` records, immediate
per-chunk cache checkpointing (so ``--resume`` works across a killed
campaign) — and the fabric adds fault tolerance:

* **Leases.** Every dispatched chunk carries a deadline. A chunk whose
  lease expires (slow host, stalled network) is *stolen*: re-queued for
  the next idle worker, recorded as a recovered ``lease-expired``
  incident. The original worker keeps running; if its late result
  arrives after a steal settled the chunk it is simply ignored
  (results are deterministic, so either copy is bit-identical).
* **Heartbeats.** Workers announce liveness on a side channel. A worker
  that misses heartbeats past ``heartbeat_timeout_s`` — killed,
  partitioned, frozen — is declared lost: its in-flight chunk re-queues
  as a recovered ``host-lost`` incident and its connection is dropped.
  A lost worker that was merely frozen simply re-registers and keeps
  serving.
* **Degrade to local.** When the last worker is gone (and no spawned
  worker process can come back), the coordinator stops waiting and runs
  every unsettled chunk in-process through the unchanged resilience
  path — a sweep never hangs or fails because the fleet died; it only
  gets slower, and says so via a recovered ``degraded-local`` incident.

No fabric fault can change sweep *results*: workers compute
deterministic functions of their configs, duplicated work is settled
first-wins, and lost work is recomputed. The chaos acceptance tests
assert bit-identity against the serial backend under worker kills,
partitions, stalls, and corrupted frames.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import sys
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing.process import BaseProcess
from typing import Callable, Optional

from ...errors import DistributedError, ExperimentError
from ..backends import ExecutionBackend, Settle, _Chunk
from ..resilience import DEFAULT_RETRY_POLICY, FailureReport, RetryPolicy
from .protocol import read_message, write_message
from .worker import run_worker, run_worker_chunk


def _forked_worker(
    listener: socket.socket,
    host: str,
    port: int,
    worker_id: str,
    heartbeat_s: float,
    quiet: bool,
) -> None:
    """Body of one forked loopback worker: the ``repro worker`` loop.

    The child closes its copy of the coordinator's listener first: a
    worker orphaned by a dead coordinator would otherwise rejoin into
    that listener's backlog and hang there instead of giving up after
    ``max_rejoins``. fd 1 goes to ``/dev/null``, so nothing the worker
    prints reaches the coordinator's stdout.
    """
    listener.close()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    sys.exit(
        run_worker(
            host, port, worker_id=worker_id, heartbeat_s=heartbeat_s,
            quiet=quiet,
        )
    )


@dataclass
class _WorkerState:
    """One connected worker, as the coordinator sees it."""

    worker_id: str
    writer: asyncio.StreamWriter
    last_seen: float
    #: The chunk currently leased to this worker, if any.
    chunk_id: Optional[int] = None


@dataclass
class _FabricRun:
    """All mutable state for one :meth:`DistributedBackend._execute` call."""

    chunks: list[_Chunk]
    settle: Settle
    report: FailureReport
    pending: deque[int]
    settled: list[bool]
    unsettled: int
    workers: dict[str, _WorkerState] = field(default_factory=dict)
    #: chunk id -> lease deadline (event-loop clock).
    leases: dict[int, float] = field(default_factory=dict)
    ever_registered: bool = False
    #: True once leasing may start (see ``_fleet_ready``).
    fleet_ready: bool = False
    workerless_since: float = 0.0
    #: Set when a worker registers, a chunk settles, or a chunk is
    #: re-queued: the serve loop dispatches on it instead of on its tick.
    wake: asyncio.Event = field(default_factory=asyncio.Event)
    send_tasks: set["asyncio.Task[None]"] = field(default_factory=set)
    handler_tasks: set["asyncio.Task[None]"] = field(default_factory=set)


class DistributedBackend(ExecutionBackend):
    """Fans a sweep out to remote ``repro worker`` processes over TCP.

    ``spawn_workers=N`` forks N loopback workers from the coordinator
    for the duration of the run (the zero-setup path behind ``repro
    sweep --backend distributed --workers N``). They fork before the
    event loop starts, so each begins with the coordinator's imports
    and sweep-cache selection, and needs the ``fork`` start method
    (POSIX). With ``spawn_workers=0`` the coordinator only serves
    externally started ``repro worker`` processes, which learn the
    bound port from *on_listening* (tests) or the operator (real use).

    ``chunksize`` defaults to 1: the finest work-stealing granularity,
    the right default when each point is seconds of simulation and the
    fabric must reassign work at host death. Raise it when per-point
    cost is tiny relative to a network round-trip.
    """

    def __init__(
        self,
        *,
        spawn_workers: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        chunksize: int = 1,
        retry: Optional[RetryPolicy] = None,
        heartbeat_s: float = 0.25,
        heartbeat_timeout_s: float = 1.5,
        lease_s: float = 30.0,
        register_grace_s: float = 10.0,
        host_loss_grace_s: float = 2.0,
        progress: Optional[Callable[[str], None]] = None,
        on_listening: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if spawn_workers < 0:
            raise ExperimentError("spawn_workers cannot be negative")
        if spawn_workers and "fork" not in multiprocessing.get_all_start_methods():
            raise ExperimentError(
                "loopback workers are forked from the coordinator, and this "
                "platform cannot fork; use --workers 0 and start "
                "'repro worker' processes yourself"
            )
        if chunksize < 1:
            raise ExperimentError("chunksize must be positive")
        if heartbeat_s <= 0:
            raise ExperimentError("heartbeat_s must be positive")
        if heartbeat_timeout_s <= heartbeat_s:
            raise ExperimentError(
                "heartbeat_timeout_s must exceed heartbeat_s, or every "
                "worker is declared lost between two heartbeats"
            )
        if lease_s <= 0:
            raise ExperimentError("lease_s must be positive")
        if register_grace_s < 0 or host_loss_grace_s < 0:
            raise ExperimentError("grace periods cannot be negative")
        self.spawn_workers = spawn_workers
        self.host = host
        self.port = port
        self.chunksize = chunksize
        self.retry = DEFAULT_RETRY_POLICY if retry is None else retry
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.lease_s = lease_s
        self.register_grace_s = register_grace_s
        self.host_loss_grace_s = host_loss_grace_s
        self.progress = progress
        self.on_listening = on_listening
        #: The actually bound port (useful with ``port=0``).
        self.bound_port: Optional[int] = None
        self._tick_s = max(
            0.01, min(0.25, heartbeat_timeout_s / 8, lease_s / 8)
        )
        self.stats: dict[str, int] = {
            "chunks": 0,
            "dispatches": 0,
            "registrations": 0,
            "host_losses": 0,
            "steals": 0,
            "duplicate_results": 0,
            "degraded_points": 0,
        }

    # -- the ExecutionBackend transport -----------------------------------

    def _chunk_size(self, misses: int) -> int:
        return self.chunksize

    def _execute(
        self, chunks: list[_Chunk], settle: Settle, report: FailureReport
    ) -> None:
        self.stats["chunks"] += len(chunks)
        run = _FabricRun(
            chunks=chunks,
            settle=settle,
            report=report,
            pending=deque(range(len(chunks))),
            settled=[False] * len(chunks),
            unsettled=len(chunks),
        )
        # Bind and fork before the event loop exists: a child forked
        # inside a running loop would still be inside it.
        listener = socket.create_server((self.host, self.port))
        procs: list[BaseProcess] = []
        try:
            host, port = listener.getsockname()[:2]
            self.bound_port = port
            self._log(
                f"coordinator listening on {host}:{port}, "
                f"{len(chunks)} chunks to place"
            )
            self._spawn(listener, procs)
            if self.on_listening is not None:
                self.on_listening(host, port)
            asyncio.run(self._serve(run, listener, procs))
        finally:
            listener.close()
            self._reap(procs)
        if run.unsettled:
            self._degrade_locally(run)

    # -- the asyncio fabric ------------------------------------------------

    async def _serve(
        self,
        run: _FabricRun,
        listener: socket.socket,
        procs: list[BaseProcess],
    ) -> None:
        """Serve workers until every chunk settles or the fleet is gone."""
        loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            partial(self._handle, run), sock=listener
        )
        try:
            start = loop.time()
            run.workerless_since = start
            while run.unsettled:
                now = loop.time()
                self._reap_losses(run, now)
                run.fleet_ready = run.fleet_ready or self._fleet_ready(
                    run, procs, now, start
                )
                if run.fleet_ready:
                    self._dispatch(run, loop)
                if (
                    run.unsettled
                    and not run.workers
                    and self._should_degrade(run, procs, now, start)
                ):
                    break
                # Events dispatch at once; the tick only paces liveness.
                run.wake.clear()
                try:
                    await asyncio.wait_for(run.wake.wait(), self._tick_s)
                except asyncio.TimeoutError:
                    pass
            await self._shutdown_workers(run)
        finally:
            # Closed worker connections EOF their handlers; give them a
            # beat to unwind so loop teardown has nothing to cancel.
            if run.handler_tasks:
                await asyncio.wait(list(run.handler_tasks), timeout=1.0)
            server.close()
            try:
                await server.wait_closed()
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                pass

    async def _handle(
        self,
        run: _FabricRun,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One worker connection: register, then heartbeats and results."""
        loop = asyncio.get_running_loop()
        worker_id: Optional[str] = None
        state: Optional[_WorkerState] = None
        task = asyncio.current_task()
        if task is not None:
            run.handler_tasks.add(task)
        try:
            message = await read_message(reader)
            if message.get("type") != "register" or "worker_id" not in message:
                raise DistributedError(
                    "first message on a worker connection must be register"
                )
            worker_id = str(message["worker_id"])
            if worker_id in run.workers:
                # A rejoining worker reusing its id: the stale connection
                # is dead weight, drop it (re-queueing any leased chunk).
                self._lose_worker(
                    run, worker_id, "replaced by a new registration",
                    loop.time(),
                )
            state = _WorkerState(
                worker_id=worker_id, writer=writer, last_seen=loop.time()
            )
            run.workers[worker_id] = state
            run.ever_registered = True
            run.wake.set()
            self.stats["registrations"] += 1
            self._log(
                f"worker {worker_id} registered "
                f"({len(run.workers)} connected)"
            )
            while True:
                message = await read_message(reader)
                kind = message.get("type")
                if kind == "heartbeat":
                    state.last_seen = loop.time()
                elif kind == "result":
                    state.last_seen = loop.time()
                    self._settle(run, state, message)
                else:
                    raise DistributedError(
                        f"coordinator received unexpected message "
                        f"type {kind!r}"
                    )
        except (KeyboardInterrupt, SystemExit):
            raise
        except asyncio.CancelledError:
            # Loop teardown after the sweep settled: end quietly instead
            # of letting the streams machinery log a spurious traceback.
            return
        except (
            ConnectionError,
            OSError,
            EOFError,
            asyncio.IncompleteReadError,
            DistributedError,
        ) as exc:
            # Identity check: _lose_worker may already have evicted this
            # connection (heartbeat miss closes the writer, which lands
            # here) or a rejoin may have replaced it.
            if worker_id is not None and run.workers.get(worker_id) is state:
                self._lose_worker(run, worker_id, repr(exc), loop.time())
        finally:
            if task is not None:
                run.handler_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                pass

    def _fleet_ready(
        self,
        run: _FabricRun,
        procs: list[BaseProcess],
        now: float,
        start: float,
    ) -> bool:
        """True once every spawned worker has registered, or cannot.

        The first lease waits for the loopback fleet to assemble: an idle
        worker gets its next chunk at once, so with points of tens of
        milliseconds the first worker up could drain a small sweep
        before its siblings finish starting, and they would have been
        spawned for nothing. A spawned worker exiting, or
        ``register_grace_s`` passing, ends the wait. External workers
        (``spawn_workers=0``) are leased to as they arrive.
        """
        return (
            len(run.workers) >= self.spawn_workers
            or any(proc.exitcode is not None for proc in procs)
            or now - start > self.register_grace_s
        )

    def _dispatch(
        self, run: _FabricRun, loop: asyncio.AbstractEventLoop
    ) -> None:
        """Lease pending chunks to idle workers."""
        while run.pending:
            chunk_id = run.pending[0]
            if run.settled[chunk_id]:
                # A stolen copy whose original already settled.
                run.pending.popleft()
                continue
            worker = next(
                (w for w in run.workers.values() if w.chunk_id is None), None
            )
            if worker is None:
                return
            run.pending.popleft()
            worker.chunk_id = chunk_id
            run.leases[chunk_id] = loop.time() + self.lease_s
            self.stats["dispatches"] += 1
            task = loop.create_task(self._send_chunk(run, worker, chunk_id))
            run.send_tasks.add(task)
            task.add_done_callback(run.send_tasks.discard)

    async def _send_chunk(
        self, run: _FabricRun, state: _WorkerState, chunk_id: int
    ) -> None:
        chunk = run.chunks[chunk_id]
        try:
            await write_message(
                state.writer,
                {
                    "type": "chunk",
                    "chunk_id": chunk_id,
                    "configs": chunk.configs,
                    "retry": self.retry,
                },
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if run.workers.get(state.worker_id) is state:
                self._lose_worker(
                    run,
                    state.worker_id,
                    f"chunk dispatch failed: {exc!r}",
                    asyncio.get_running_loop().time(),
                )

    def _settle(
        self, run: _FabricRun, state: _WorkerState, message: dict
    ) -> None:
        """Settle one result message; duplicates are ignored, first wins."""
        chunk_id = message.get("chunk_id")
        if not isinstance(chunk_id, int) or not 0 <= chunk_id < len(run.chunks):
            raise DistributedError(f"result for unknown chunk {chunk_id!r}")
        chunk = run.chunks[chunk_id]
        outcomes = message.get("outcomes")
        if not isinstance(outcomes, list) or len(outcomes) != len(chunk.configs):
            raise DistributedError(
                f"worker {state.worker_id} returned "
                f"{len(outcomes) if isinstance(outcomes, list) else '?'} "
                f"outcomes for chunk {chunk_id} of {len(chunk.configs)} configs"
            )
        if state.chunk_id == chunk_id:
            state.chunk_id = None
        run.leases.pop(chunk_id, None)
        run.wake.set()
        if run.settled[chunk_id]:
            # The chunk was stolen and the thief won; deterministic
            # results make either copy equally correct.
            self.stats["duplicate_results"] += 1
            return
        run.settled[chunk_id] = True
        run.unsettled -= 1
        run.settle(chunk, outcomes)

    # -- fault handling ----------------------------------------------------

    def _reap_losses(self, run: _FabricRun, now: float) -> None:
        """Declare heartbeat-missing workers lost, steal expired leases."""
        for worker_id, state in list(run.workers.items()):
            silence = now - state.last_seen
            if silence > self.heartbeat_timeout_s:
                self._lose_worker(
                    run, worker_id,
                    f"missed heartbeats for {silence:.2f}s", now,
                )
        for chunk_id, deadline in list(run.leases.items()):
            if now <= deadline:
                continue
            run.leases.pop(chunk_id)
            if run.settled[chunk_id]:
                continue
            self.stats["steals"] += 1
            self._requeue(
                run, chunk_id,
                outcome="lease-expired",
                error=(
                    f"lease on chunk {chunk_id} expired after "
                    f"{self.lease_s:g}s; chunk re-dispatched"
                ),
            )

    def _lose_worker(
        self, run: _FabricRun, worker_id: str, reason: str, now: float
    ) -> None:
        """Evict one worker, re-queueing whatever chunk it was leased."""
        state = run.workers.pop(worker_id, None)
        if state is None:
            return
        self.stats["host_losses"] += 1
        self._log(f"worker {worker_id} lost: {reason}")
        chunk_id = state.chunk_id
        if chunk_id is not None:
            run.leases.pop(chunk_id, None)
            if not run.settled[chunk_id]:
                self._requeue(
                    run, chunk_id,
                    outcome="host-lost",
                    error=(
                        f"worker {worker_id} lost ({reason}); "
                        "chunk re-dispatched"
                    ),
                )
        state.writer.close()
        if not run.workers:
            run.workerless_since = now

    def _requeue(
        self, run: _FabricRun, chunk_id: int, *, outcome: str, error: str
    ) -> None:
        """Put a chunk back on the queue, recording a recovered incident."""
        run.pending.append(chunk_id)
        run.wake.set()
        run.report.record(run.chunks[chunk_id].incident(outcome, 1, error))

    def _should_degrade(
        self,
        run: _FabricRun,
        procs: list[BaseProcess],
        now: float,
        start: float,
    ) -> bool:
        """True when no worker is left and none can plausibly come back.

        Called only while ``run.workers`` is empty. Spawned worker
        processes still alive get ``register_grace_s`` to (re)register;
        external workers get ``host_loss_grace_s`` to rejoin after a
        loss (and ``register_grace_s`` to appear at all).
        """
        spawned_alive = any(proc.exitcode is None for proc in procs)
        if spawned_alive:
            since = start if not run.ever_registered else run.workerless_since
            return now - since > self.register_grace_s
        if procs and not run.ever_registered:
            # Every spawned worker died before registering; nothing to
            # wait for.
            return True
        if not run.ever_registered:
            return now - start > self.register_grace_s
        return now - run.workerless_since > self.host_loss_grace_s

    def _degrade_locally(self, run: _FabricRun) -> None:
        """Finish every unsettled chunk in-process: slower, never stuck."""
        remaining = [
            chunk
            for chunk, settled in zip(run.chunks, run.settled, strict=True)
            if not settled
        ]
        points = sum(len(chunk.configs) for chunk in remaining)
        self.stats["degraded_points"] += points
        self._log(
            f"no live workers remain; degrading {points} points over "
            f"{len(remaining)} chunks to local execution"
        )
        incident = remaining[0].incident(
            "degraded-local",
            1,
            "every worker was lost; remaining chunks ran locally "
            "through the resilience path",
        )
        run.report.record(replace(incident, points=points))
        for chunk in remaining:
            run.settle(chunk, run_worker_chunk(chunk.configs, self.retry))

    # -- worker lifecycle --------------------------------------------------

    async def _shutdown_workers(self, run: _FabricRun) -> None:
        """Best-effort shutdown notices so workers exit instead of rejoin."""
        for state in list(run.workers.values()):
            try:
                await write_message(state.writer, {"type": "shutdown"})
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                pass
            state.writer.close()
        run.workers.clear()

    def _spawn(self, listener: socket.socket, procs: list[BaseProcess]) -> None:
        """Fork the loopback worker fleet (``spawn_workers`` strong).

        ``multiprocessing``'s fork start flushes the standard streams
        before forking and leaves the child through ``os._exit``, so no
        buffered output is duplicated and no caller teardown runs twice.
        """
        if not self.spawn_workers:
            return
        context = multiprocessing.get_context("fork")
        port = listener.getsockname()[1]
        for index in range(self.spawn_workers):
            proc = context.Process(
                target=_forked_worker,
                args=(
                    listener, self.host, port, f"spawned-{index}",
                    self.heartbeat_s, self.progress is None,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        self._log(f"spawned {len(procs)} loopback workers")

    def _reap(self, procs: list[BaseProcess]) -> None:
        """Give notified workers one tick to exit, then stop the rest."""
        deadline = time.monotonic() + self._tick_s
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in procs:
            if proc.exitcode is None:
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
            if proc.exitcode is None:
                proc.kill()
                proc.join(timeout=5)

    def _log(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def __repr__(self) -> str:
        return (
            f"DistributedBackend(spawn_workers={self.spawn_workers}, "
            f"chunksize={self.chunksize})"
        )
