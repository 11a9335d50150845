"""Chaos acceptance for the distributed fabric, with real worker processes.

The ISSUE acceptance criterion: a distributed sweep whose workers are
killed, partitioned, and frozen mid-run by the seeded chaos layer must
complete with results bit-identical to a fault-free serial run, report
every injected fault as a recovered incident, and leave a checkpoint
cache a follow-up ``--resume`` replays without touching the fabric.

Workers here are real processes, forked by the coordinator from its
own warm interpreter, so the crash fault really does ``os._exit`` a live
process and the partition really does sever a TCP connection.
:class:`TestWorkerCommand` starts ``python -m repro worker`` processes
instead, the way an operator joins workers on other hosts.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.harness import cache as cache_mod
from repro.harness import chaos
from repro.harness.backends import SerialBackend
from repro.harness.chaos import CHAOS_ENV, ChaosPlan
from repro.harness.distributed import DistributedBackend

from .conftest import small_config, subprocess_env

RATES = (0.2, 0.3, 0.4, 0.5, 0.6)


def _configs():
    return [small_config(rate=r, warmup=100, measure=400) for r in RATES]


def _backend(**kwargs) -> DistributedBackend:
    defaults = dict(
        spawn_workers=2,
        chunksize=1,
        heartbeat_s=0.1,
        heartbeat_timeout_s=0.5,
        lease_s=20.0,
        register_grace_s=30.0,
        host_loss_grace_s=5.0,
    )
    defaults.update(kwargs)
    return DistributedBackend(**defaults)


class TestSpawnedFleet:
    def test_clean_spawned_sweep_is_bit_identical_to_serial(
        self, tmp_path, monkeypatch
    ):
        """The zero-setup path (``--backend distributed --workers 2``):
        forked loopback workers, shared checkpoint cache, no faults."""
        configs = _configs()
        expected, _ = SerialBackend().run(configs)
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        cache_mod.reset_cache()
        backend = _backend()
        results, report = backend.run(configs)
        assert results == expected
        assert report.ok and not report.incidents
        assert backend.stats["registrations"] >= 2
        assert backend.stats["chunks"] == len(configs)

    def test_acceptance_killed_partitioned_stalled_workers_are_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """One worker process is crashed outright, one chunk's connection
        is severed on arrival, one host freezes past the heartbeat
        timeout — and the sweep still converges bit-identically."""
        configs = _configs()
        fingerprints = [config.fingerprint() for config in configs]
        expected, _ = SerialBackend().run(configs)  # fault-free baseline

        # Choose a seed, purely from the plan, that injects exactly one
        # worker crash (so one of the two spawned processes survives)
        # plus at least one disconnect and one heartbeat stall.
        rates = dict(
            crash_rate=0.3, disconnect_rate=0.3, stall_heartbeat_rate=0.3
        )
        for seed in range(2000):
            probe = ChaosPlan(seed=seed, **rates)
            point_faults = [probe.fault_for(fp) for fp in fingerprints]
            net_faults = [probe.network_fault_for(fp) for fp in fingerprints]
            if (
                point_faults.count("crash") == 1
                and net_faults.count("disconnect") >= 1
                and net_faults.count("stall-heartbeat") >= 1
            ):
                break
        else:  # pragma: no cover - seed search is deterministic
            pytest.fail("no suitable chaos seed in range")
        plan = ChaosPlan(
            seed=seed, **rates,
            # Freeze longer than the coordinator's heartbeat timeout so
            # the stall is *observable* as a host loss.
            stall_s=1.5,
            state_dir=str(tmp_path / "chaos"), main_pid=os.getpid(),
        )
        path = plan.write(tmp_path / "plan.json")
        monkeypatch.setenv(CHAOS_ENV, str(path))
        chaos.reset_plan()
        # Forked workers inherit both variables: the whole fleet
        # shares one chaos plan and one checkpoint cache.
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        cache_mod.reset_cache()

        backend = _backend()
        results, report = backend.run(configs)

        assert results == expected  # bit-identical despite the carnage
        assert report.ok  # every incident recovered
        assert any(i.outcome == "host-lost" for i in report.incidents)
        # Crash, partition, and stall each cost (at least) one host.
        assert backend.stats["host_losses"] >= 3
        fired = plan.fired()
        assert len([m for m in fired if m.startswith("crash-")]) == 1
        assert len([m for m in fired if m.startswith("disconnect-")]) >= 1
        assert len([m for m in fired if m.startswith("stall-heartbeat-")]) >= 1

        # Resume: the checkpoint cache answers everything; the fabric
        # never even starts (zero chunks survive the partition).
        resumed = DistributedBackend(register_grace_s=0.1)
        again, report2 = resumed.run(configs)
        assert again == expected
        assert report2.ok and not report2.incidents
        assert resumed.stats["chunks"] == 0


class TestWorkerCommand:
    def test_repro_worker_processes_are_bit_identical_to_serial(self):
        """Two ``python -m repro worker`` processes serve a coordinator
        that spawns none, and both exit 0 on its shutdown notice."""
        configs = _configs()
        expected, _ = SerialBackend().run(configs)
        procs: list[subprocess.Popen[bytes]] = []

        def start_workers(host: str, port: int) -> None:
            for _ in range(2):
                procs.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker",
                         "--host", host, "--port", str(port)],
                        env=subprocess_env(), stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE,
                    )
                )
            # The coordinator serves once this returns. Both workers must
            # be in its backlog by then: one that arrived after the sweep
            # ended would find no coordinator, and exit 1.
            for proc in procs:
                for line in proc.stderr:
                    if b"registered with coordinator" in line:
                        break

        try:
            backend = _backend(spawn_workers=0, on_listening=start_workers)
            results, report = backend.run(configs)
            for proc in procs:
                proc.communicate(timeout=30)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
        assert results == expected
        assert report.ok and not report.incidents
        assert backend.stats["registrations"] == 2
        assert [proc.returncode for proc in procs] == [0, 0]
