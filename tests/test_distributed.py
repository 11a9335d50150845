"""The distributed sweep fabric: protocol, coordinator, fault recovery.

These tests run workers as in-process threads (``run_worker`` is just a
blocking function around an asyncio client), so every fabric path —
registration, dispatch, heartbeat loss, lease stealing, corrupt frames,
degrade-to-local — is exercised without process startup cost.
:class:`TestLoopbackFleet` covers what only the forked ``spawn_workers``
fleet can get wrong: what the children inherit and what they write. The
chaos acceptance test with real killed worker *processes* lives in
``test_distributed_chaos.py``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import re
import struct
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import DistributedError, ExperimentError
from repro.harness import cache as cache_mod
from repro.harness.backends import SerialBackend, make_backend
from repro.harness.cache import SweepCache, set_cache
from repro.harness.chaos import ChaosPlan, set_plan
from repro.harness.distributed import (
    MAX_FRAME_BYTES,
    DistributedBackend,
    decode_payload,
    encode_frame,
    read_message,
    run_worker,
)
from repro.harness.resilience import RetryPolicy

from .conftest import small_config, subprocess_env


def _configs(*rates: float):
    return [small_config(rate=r, warmup=100, measure=400) for r in rates]


def _attach_threads(count: int, threads: list, **worker_kwargs):
    """An ``on_listening`` callback starting *count* worker threads."""

    def attach(host: str, port: int) -> None:
        for index in range(count):
            thread = threading.Thread(
                target=run_worker,
                args=(host, port),
                kwargs={
                    "worker_id": f"thread-{index}",
                    "heartbeat_s": 0.05,
                    "rejoin_delay_s": 0.1,
                    **worker_kwargs,
                },
                daemon=True,
            )
            thread.start()
            threads.append(thread)

    return attach


def _fast_backend(threads: list, workers: int = 1, **kwargs) -> DistributedBackend:
    defaults = dict(
        heartbeat_s=0.05,
        heartbeat_timeout_s=0.4,
        lease_s=10.0,
        register_grace_s=10.0,
        host_loss_grace_s=3.0,
        on_listening=_attach_threads(workers, threads),
    )
    defaults.update(kwargs)
    return DistributedBackend(**defaults)


def _join_all(threads: list) -> None:
    for thread in threads:
        thread.join(timeout=10)
    assert all(not t.is_alive() for t in threads)


class TestProtocol:
    def test_frame_roundtrip(self):
        message = {"type": "heartbeat", "worker_id": "w0", "busy": False}
        frame = encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        digest, payload = frame[4:36], frame[36:]
        assert length == len(payload)
        assert decode_payload(digest, payload) == message

    def test_corrupt_flag_defeats_the_digest(self):
        frame = encode_frame({"type": "shutdown"}, corrupt=True)
        with pytest.raises(DistributedError, match="digest mismatch"):
            decode_payload(frame[4:36], frame[36:])

    def test_payload_must_be_a_typed_dict(self):
        frame = encode_frame({"type": "x"})
        # Re-frame a non-dict payload by hand.
        import hashlib
        import pickle

        payload = pickle.dumps([1, 2, 3])
        with pytest.raises(DistributedError, match="typed message"):
            decode_payload(hashlib.sha256(payload).digest(), payload)

    def test_read_message_roundtrip_and_length_bound(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"type": "shutdown"}))
            message = await read_message(reader)
            assert message == {"type": "shutdown"}

            huge = asyncio.StreamReader()
            huge.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"\0" * 32)
            with pytest.raises(DistributedError, match="exceeds"):
                await read_message(huge)

        asyncio.run(scenario())

    def test_eof_mid_frame_raises_incomplete_read(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"type": "shutdown"})[:10])
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await read_message(reader)

        asyncio.run(scenario())


class TestDistributedBackend:
    def test_clean_sweep_is_bit_identical_to_serial(self):
        configs = _configs(0.2, 0.3, 0.4, 0.5)
        expected, _ = SerialBackend().run(configs)
        threads: list = []
        backend = _fast_backend(threads, workers=2)
        results, report = backend.run(configs)
        _join_all(threads)
        assert results == expected
        assert report.ok and not report.incidents
        assert backend.stats["registrations"] == 2
        assert backend.stats["chunks"] == len(configs)
        assert backend.stats["dispatches"] == len(configs)
        assert backend.stats["host_losses"] == 0

    def test_idle_worker_is_dispatched_without_waiting_for_a_tick(self):
        """A settle wakes the serve loop: the next chunk goes out within an
        event-loop turn, not on the liveness tick (default timing here)."""
        configs = _configs(*(0.1 + 0.05 * i for i in range(8)))
        threads: list = []
        backend = DistributedBackend(on_listening=_attach_threads(1, threads))
        settle, dispatch = backend._settle, backend._dispatch
        settles: list[float] = []
        dispatches: list[float] = []

        def stamped_settle(run, state, message):
            settle(run, state, message)
            settles.append(asyncio.get_running_loop().time())

        def stamped_dispatch(run, loop):
            before = backend.stats["dispatches"]
            dispatch(run, loop)
            if backend.stats["dispatches"] > before:
                dispatches.append(loop.time())

        backend._settle = stamped_settle
        backend._dispatch = stamped_dispatch
        results, report = backend.run(configs)
        _join_all(threads)
        assert report.ok and all(r is not None for r in results)
        assert len(settles) == len(dispatches) == len(configs)
        gaps = [
            min(d for d in dispatches if d >= s) - s for s in settles[:-1]
        ]
        assert max(gaps) < backend._tick_s / 4, gaps

    def test_empty_batch(self):
        results, report = DistributedBackend(register_grace_s=0.1).run([])
        assert results == [] and report.ok

    def test_no_workers_degrades_to_local(self):
        configs = _configs(0.2, 0.3)
        expected, _ = SerialBackend().run(configs)
        backend = DistributedBackend(register_grace_s=0.2)
        results, report = backend.run(configs)
        assert results == expected
        assert report.ok
        assert [i.outcome for i in report.incidents] == ["degraded-local"]
        assert backend.stats["degraded_points"] == len(configs)

    def test_chunks_checkpoint_to_the_cache_and_resume(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        set_cache(cache)
        configs = _configs(0.2, 0.3, 0.4)
        threads: list = []
        first = _fast_backend(threads, workers=1)
        results, report = first.run(configs)
        _join_all(threads)
        assert report.ok
        assert all(cache.contains(config) for config in configs)
        # Resume: everything replays from checkpoints; the fabric never
        # starts (no chunks survive the cache partition).
        second = DistributedBackend(register_grace_s=0.1)
        again, report2 = second.run(configs)
        assert again == results
        assert report2.ok and not report2.incidents
        assert second.stats["chunks"] == 0
        assert cache.hits == len(configs)

    def test_worker_cache_hits_skip_recompute(self, tmp_path):
        """run_worker_chunk consults the cache per point (shared-store
        semantics): pre-stored points are answered without simulating."""
        from repro.harness.distributed import run_worker_chunk

        cache = SweepCache(tmp_path / "cache")
        set_cache(cache)
        configs = _configs(0.2, 0.3)
        expected, _ = SerialBackend().run(configs)  # also stores both
        assert cache.hits == 0
        outcomes = run_worker_chunk(configs, RetryPolicy())
        assert [result for result, _ in outcomes] == expected
        assert cache.hits == len(configs)

    def test_validation(self):
        with pytest.raises(ExperimentError, match="spawn_workers"):
            DistributedBackend(spawn_workers=-1)
        with pytest.raises(ExperimentError, match="chunksize"):
            DistributedBackend(chunksize=0)
        with pytest.raises(ExperimentError, match="heartbeat_timeout_s"):
            DistributedBackend(heartbeat_s=1.0, heartbeat_timeout_s=0.5)
        with pytest.raises(ExperimentError, match="lease_s"):
            DistributedBackend(lease_s=0.0)
        with pytest.raises(ExperimentError, match="grace"):
            DistributedBackend(register_grace_s=-1.0)

    def test_make_backend_wiring(self):
        backend = make_backend(1, backend="distributed", workers=3, chunksize=2)
        assert isinstance(backend, DistributedBackend)
        assert backend.spawn_workers == 3
        assert backend.chunksize == 2
        with pytest.raises(ExperimentError, match="unknown backend"):
            make_backend(1, backend="carrier-pigeon")


class TestFaultRecovery:
    """Seeded network chaos against in-thread workers: every fault is
    recovered and the sweep stays bit-identical to a clean serial run."""

    def _expected(self, configs):
        set_cache(None)
        expected, _ = SerialBackend().run(configs)
        return expected

    def test_disconnect_recovers_via_host_loss(self, tmp_path):
        configs = _configs(0.2, 0.3)
        expected = self._expected(configs)
        set_plan(ChaosPlan(disconnect_rate=1.0, state_dir=str(tmp_path)))
        threads: list = []
        backend = _fast_backend(threads, workers=1)
        results, report = backend.run(configs)
        _join_all(threads)
        assert results == expected
        assert report.ok
        assert backend.stats["host_losses"] >= 1
        assert any(i.outcome == "host-lost" for i in report.incidents)

    def test_stalled_heartbeats_mark_the_host_lost(self, tmp_path):
        configs = _configs(0.2)
        expected = self._expected(configs)
        set_plan(
            ChaosPlan(
                stall_heartbeat_rate=1.0, stall_s=1.0,
                state_dir=str(tmp_path),
            )
        )
        threads: list = []
        backend = _fast_backend(threads, workers=1, heartbeat_timeout_s=0.3)
        results, report = backend.run(configs)
        _join_all(threads)
        assert results == expected
        assert report.ok
        assert any(
            i.outcome == "host-lost" and "missed heartbeats" in i.error
            for i in report.incidents
        )

    def test_slow_host_triggers_lease_stealing(self, tmp_path):
        configs = _configs(0.2, 0.3)
        expected = self._expected(configs)
        set_plan(
            ChaosPlan(
                slow_host_rate=1.0, slow_host_s=1.0, state_dir=str(tmp_path)
            )
        )
        threads: list = []
        backend = _fast_backend(threads, workers=1, lease_s=0.3)
        results, report = backend.run(configs)
        _join_all(threads)
        assert results == expected
        assert report.ok
        assert backend.stats["steals"] >= 1
        assert any(i.outcome == "lease-expired" for i in report.incidents)

    def test_corrupt_result_frame_is_rejected_and_redispatched(self, tmp_path):
        configs = _configs(0.2)
        expected = self._expected(configs)
        set_plan(
            ChaosPlan(corrupt_payload_rate=1.0, state_dir=str(tmp_path))
        )
        threads: list = []
        backend = _fast_backend(threads, workers=1)
        results, report = backend.run(configs)
        _join_all(threads)
        assert results == expected
        assert report.ok
        assert any(
            i.outcome == "host-lost" and "digest mismatch" in i.error
            for i in report.incidents
        )


class TestWorkerEntry:
    def test_worker_rejects_bad_port(self):
        with pytest.raises(DistributedError, match="positive port"):
            run_worker("127.0.0.1", 0)

    def test_worker_gives_up_when_no_coordinator_exists(self):
        # Nothing listens on this port; the worker exhausts its rejoin
        # budget and reports failure instead of spinning forever.
        status = run_worker(
            "127.0.0.1", 1, max_rejoins=1, rejoin_delay_s=0.01
        )
        assert status == 1


class TestLoopbackFleet:
    """``spawn_workers=N``: workers forked from the coordinator."""

    def test_no_cache_reaches_the_forked_workers(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--no-cache`` is an in-process override, not an environment
        variable: workers that did not inherit it used to fall back to
        ``$XDG_CACHE_HOME/repro/sweeps`` and write every point there."""
        monkeypatch.delenv("REPRO_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        sweep = ["sweep", "--rates", "0.2", "--scale", "smoke", "--no-cache"]
        assert main(sweep) == 0
        serial = capsys.readouterr().out
        assert main([*sweep, "--backend", "distributed", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert not list(tmp_path.rglob("*.pkl"))

    def test_forked_workers_write_nothing_to_the_parent_stdout(self):
        """Buffered parent output is flushed once, before the fork, and
        the children's fd 1 is ``/dev/null``: the parent's stdout holds
        exactly what the parent printed."""
        script = (
            "from repro.harness.distributed import DistributedBackend\n"
            "from tests.conftest import small_config\n"
            "print('marker')\n"
            "configs = [small_config(rate=r, warmup=100, measure=400)"
            " for r in (0.2, 0.3)]\n"
            "results, report = DistributedBackend(spawn_workers=2).run(configs)\n"
            "assert report.ok and None not in results\n"
            "print('done')\n"
        )
        env = {**subprocess_env(), "REPRO_CACHE": "off"}
        env.pop("PYTHONUNBUFFERED", None)  # keep 'marker' in the buffer
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(__file__).resolve().parents[1], env=env,
            capture_output=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr.decode()
        assert completed.stdout == b"marker\ndone\n"

    def test_each_point_is_put_to_the_shared_store_once(
        self, tmp_path, monkeypatch
    ):
        """A loopback worker has already stored and pushed every point it
        computed into the coordinator's own cache directory, so settling
        it must not push the same entry a second time."""
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "cache-server",
             str(tmp_path / "store"), "--port", "0"],
            env=subprocess_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            banner = server.stdout.readline().decode()
            match = re.search(r" at (http://\S+) ", banner)
            assert match is not None, banner
            url = match.group(1)
            monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
            monkeypatch.setenv("REPRO_RESULT_STORE", url)
            cache_mod.reset_cache()
            configs = _configs(0.2, 0.3, 0.4, 0.5)
            results, report = DistributedBackend(spawn_workers=2).run(configs)
            assert report.ok and None not in results
            with urllib.request.urlopen(f"{url}/stats", timeout=10) as reply:
                stats = json.load(reply)
            assert stats["stored"] == stats["entries"] == len(configs)
        finally:
            cache_mod.reset_cache()
            server.terminate()
            server.wait(timeout=10)
            server.stdout.close()

    def test_spawning_needs_fork(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ExperimentError, match="--workers 0"):
            DistributedBackend(spawn_workers=2)
        assert DistributedBackend(spawn_workers=0).spawn_workers == 0
