"""Tests for the instrumentation bus, observers, and trace recorder."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.instrument import (
    InstrumentBus,
    Observer,
    TraceRecorder,
    TransitionEvent,
)
from repro.network.engine import SimulationEngine
from repro.network.simulator import Simulator

from .conftest import small_config


class CycleCounter(Observer):
    unskippable = True

    def __init__(self):
        self.cycles = 0

    def on_cycle(self, now: int) -> None:
        self.cycles += 1


class WindowCounter(Observer):
    def __init__(self, window_cycles: int):
        self.window_cycles = window_cycles
        self.closes: list[int] = []

    def on_window_close(self, now: int) -> None:
        self.closes.append(now)


class TestBus:
    def test_observer_lands_only_on_overridden_hooks(self):
        bus = InstrumentBus()
        counter = bus.attach(CycleCounter())
        assert bus.cycle_hooks == [counter]
        assert bus.offered_hooks == []
        assert bus.ejected_hooks == []
        assert bus.transition_hooks == []

    def test_double_attach_rejected(self):
        bus = InstrumentBus()
        counter = bus.attach(CycleCounter())
        with pytest.raises(ConfigError):
            bus.attach(counter)

    def test_detach_removes_from_all_hooks(self):
        bus = InstrumentBus()
        counter = bus.attach(CycleCounter())
        bus.detach(counter)
        assert bus.cycle_hooks == []
        assert len(bus) == 0
        with pytest.raises(ConfigError):
            bus.detach(counter)

    def test_window_observer_requires_positive_window(self):
        bus = InstrumentBus()
        with pytest.raises(ConfigError):
            bus.attach(WindowCounter(0))

    def test_no_op_base_observer_attaches_to_nothing(self):
        bus = InstrumentBus()
        bus.attach(Observer())
        assert len(bus) == 1
        assert not bus.cycle_hooks and not bus.window_hooks


class TestEngineDispatch:
    def test_cycle_hook_fires_every_cycle(self):
        engine = SimulationEngine(small_config(rate=0.0))
        counter = engine.bus.attach(CycleCounter())
        engine.run_cycles(250)
        assert counter.cycles == 250

    def test_window_hook_fires_on_multiples_only(self):
        engine = SimulationEngine(small_config(rate=0.0))
        windows = engine.bus.attach(WindowCounter(100))
        engine.run_cycles(350)
        assert windows.closes == [100, 200, 300]

    def test_engine_has_no_measurement_state(self):
        """The kernel must not own any collector — that's the facade's job."""
        engine = SimulationEngine(small_config(rate=0.1))
        for collector in ("meter", "accountant", "series", "probes"):
            assert not hasattr(engine, collector)
        engine.run_cycles(200)  # runs fine with an empty bus

    def test_offered_and_ejected_hooks_see_packets(self):
        class PacketTap(Observer):
            def __init__(self):
                self.offered = 0
                self.ejected = 0

            def on_packet_offered(self, packet, now):
                self.offered += 1

            def on_packet_ejected(self, packet, now):
                self.ejected += 1

        simulator = Simulator(small_config(rate=0.2))
        tap = simulator.bus.attach(PacketTap())
        simulator.run()
        simulator.drain()
        assert tap.offered > 0
        assert tap.ejected == tap.offered


class TestTraceRecorder:
    def test_captures_every_transition_the_accountant_counts(self):
        """Acceptance: trace ramp starts == PowerAccountant transitions."""
        config = small_config(
            policy="history",
            rate=0.25,
            workload_kind="two_level",
            warmup=0,
            measure=3_000,
            average_tasks=4,
            average_task_duration_s=3.0e-6,
            onoff_sources_per_task=4,
        )
        simulator = Simulator(config)
        recorder = simulator.bus.attach(TraceRecorder())
        result = simulator.run()
        assert result.power.transition_count > 0
        assert len(recorder.ramp_starts()) == result.power.transition_count

    def test_trace_attaches_without_modifying_engine(self):
        """The seam proof: an engine field-for-field identical run, with and
        without a recorder attached, produces the same result."""
        bare = Simulator(small_config(policy="history", rate=0.3)).run()
        traced_sim = Simulator(small_config(policy="history", rate=0.3))
        traced_sim.bus.attach(TraceRecorder())
        traced = traced_sim.run()
        assert bare == traced

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = small_config(
            policy="history", rate=0.3, warmup=200, measure=1_000
        )
        with TraceRecorder(path) as recorder:
            simulator = Simulator(config)
            simulator.bus.attach(recorder)
            simulator.run()
        records = TraceRecorder.read(path)
        assert records == recorder.records
        kinds = {r["kind"] for r in records if r["event"] == "transition"}
        assert kinds <= {"ramp_start", "phase_end"}
        labels = [r["label"] for r in records if r["event"] == "mark"]
        assert labels == ["measurement_begin", "measurement_end"]
        for line in path.read_text().splitlines():
            json.loads(line)  # every line is standalone JSON

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(path)
        recorder.on_mark("only", 1)
        recorder.close()
        recorder.on_mark("late", 2)
        recorder.close()
        assert len(TraceRecorder.read(path)) == 1

    def test_transition_events_carry_channel_ids(self):
        simulator = Simulator(small_config(policy="history", rate=0.4))
        recorder = simulator.bus.attach(TraceRecorder())
        simulator.run()
        valid_ids = {channel.spec.channel_id for channel in simulator.channels}
        channels_seen = {r["channel"] for r in recorder.ramp_starts()}
        assert channels_seen
        assert channels_seen <= valid_ids


class TestSeriesWithDVS:
    def test_series_window_with_active_policy_does_not_crash(self):
        """Regression: series finalize used to raise LinkStateError when a
        window boundary landed inside a transition's pre-billed span."""
        config = small_config(
            policy="history",
            rate=0.3,
            workload_kind="two_level",
            average_tasks=4,
            average_task_duration_s=3.0e-6,
            onoff_sources_per_task=4,
        )
        result = Simulator(config, series_window=500).run()
        assert result.power.transition_count > 0
        assert len(result.series["power_w"]) == 4
        assert all(p >= 0.0 for p in result.series["power_w"].values)


def test_transition_event_is_frozen():
    event = TransitionEvent(
        cycle=1,
        channel=2,
        kind="ramp_start",
        phase="voltage_ramp",
        level=3,
        voltage_level=4,
        target_level=3,
    )
    with pytest.raises(AttributeError):
        event.cycle = 5
