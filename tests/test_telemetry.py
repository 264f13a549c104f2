"""The in-sim telemetry plane: bus semantics, sampler cadence, and the
non-perturbation guarantee.

The load-bearing properties: the bus never stalls or perturbs the
publisher (bounded queues, drop counting), the sampler ticks at
drift-free ``epoch + k·interval`` absolute sim times, and attaching a
sampler leaves every experiment output bit-identical — including
across worker counts.
"""

import dataclasses

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.experiment import ExperimentHandle, run_experiment
from repro.core.scenario import run_configs
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    MetricsSampler,
    TelemetryBus,
    TelemetrySample,
    classify_root_cause,
)
from repro.sim.engine import Simulator


def sample(time, name, value, kind="counter"):
    return TelemetrySample(time=time, name=name, kind=kind, value=value)


def tiny_config(seed=3, sample_interval=None):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=2)),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=0.5e-3, duration=1e-3, seed=seed,
                      sample_interval=sample_interval),
    )


class TestTelemetryBus:
    def test_subscribe_receives_published(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        bus.publish(sample(1.0, "nic.drops", 3))
        bus.publish(sample(2.0, "nic.drops", 5))
        got = sub.poll()
        assert [(s.time, s.value) for s in got] == [(1.0, 3), (2.0, 5)]
        assert sub.poll() == []  # poll drains

    def test_prefix_filtering(self):
        bus = TelemetryBus()
        nic_only = bus.subscribe(prefix="nic.")
        everything = bus.subscribe()
        bus.publish(sample(1.0, "nic.drops", 1))
        bus.publish(sample(1.0, "host.throughput", 9, kind="gauge"))
        assert [s.name for s in nic_only.poll()] == ["nic.drops"]
        assert len(everything.poll()) == 2

    def test_unsubscribe_stops_delivery(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        assert bus.unsubscribe(sub) is True
        assert bus.unsubscribe(sub) is False  # already gone
        bus.publish(sample(1.0, "nic.drops", 1))
        assert sub.poll() == []

    def test_close_is_unsubscribe(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        sub.close()
        bus.publish(sample(1.0, "nic.drops", 1))
        assert len(sub) == 0

    def test_bounded_queue_drops_oldest_and_counts(self):
        bus = TelemetryBus()
        sub = bus.subscribe(maxlen=2)
        for i in range(5):
            bus.publish(sample(float(i), "nic.drops", i))
        assert sub.dropped == 3
        assert sub.delivered == 5
        # Most recent survive — a slow consumer sees fresh data.
        assert [s.value for s in sub.poll()] == [3, 4]

    def test_last_value_queries(self):
        bus = TelemetryBus()
        bus.publish(sample(1.0, "nic.drops", 3))
        bus.publish(sample(2.0, "nic.drops", 7))
        assert bus.names() == ["nic.drops"]
        assert bus.last("nic.drops").time == 2.0
        assert bus.value("nic.drops") == 7
        assert bus.value("missing", default=-1.0) == -1.0
        assert bus.last("missing") is None

    def test_delta_and_rate_over_window(self):
        bus = TelemetryBus()
        for t, v in ((0.0, 0.0), (1.0, 10.0), (2.0, 30.0),
                     (3.0, 60.0)):
            bus.publish(sample(t, "nic.drops", v))
        # Window of 2s from t=3: baseline is the sample at t=1.
        assert bus.delta("nic.drops", window=2.0) == 50.0
        assert bus.rate("nic.drops", window=2.0) == 25.0
        # Window larger than history falls back to the oldest sample.
        assert bus.delta("nic.drops", window=100.0) == 60.0

    def test_delta_needs_two_samples(self):
        bus = TelemetryBus()
        assert bus.delta("nic.drops", 1.0) is None
        bus.publish(sample(1.0, "nic.drops", 5))
        assert bus.delta("nic.drops", 1.0) is None
        assert bus.rate("nic.drops", 1.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryBus(history=1)
        with pytest.raises(ValueError):
            TelemetryBus().subscribe(maxlen=0)


class TestMetricsSampler:
    def make(self, interval=1e-4, select=None):
        sim = Simulator()
        registry = MetricsRegistry()
        counter = registry.counter("polls", "nic")
        registry.gauge("depth", "nic", fn=lambda: 2.5)
        bus = TelemetryBus()
        sampler = MetricsSampler(sim, registry, bus,
                                 interval=interval, select=select)
        return sim, counter, bus, sampler

    def test_drift_free_absolute_tick_times(self):
        sim, _counter, bus, sampler = self.make(interval=1e-4)
        sub = bus.subscribe(prefix="nic.polls")
        sim.at(3e-4, sampler.start)  # epoch mid-run, not at zero
        sim.run(until=8.05e-4)
        times = [s.time for s in sub.poll()]
        assert times == pytest.approx(
            [4e-4, 5e-4, 6e-4, 7e-4, 8e-4], abs=1e-12)
        assert sampler.ticks == 5

    def test_samples_carry_live_registry_values(self):
        sim, counter, bus, sampler = self.make(interval=1e-4)
        sub = bus.subscribe(prefix="nic.polls")
        sim.at(0.5e-4, lambda: counter.inc(3))
        sim.at(1.5e-4, lambda: counter.inc(4))
        sampler.start()
        sim.run(until=2.5e-4)
        assert [s.value for s in sub.poll()] == [3.0, 7.0]

    def test_select_restricts_polled_names(self):
        sim, _counter, bus, sampler = self.make(
            interval=1e-4, select=("nic.depth",))
        sub = bus.subscribe()
        sampler.start()
        sim.run(until=1.5e-4)
        names = {s.name for s in sub.poll()}
        assert names == {"nic.depth"}

    def test_stop_disarms_pending_tick(self):
        sim, _counter, bus, sampler = self.make(interval=1e-4)
        sampler.start()
        sim.at(2.5e-4, sampler.stop)
        sim.run(until=9e-4)
        assert sampler.ticks == 2  # ticks at 1e-4 and 2e-4 only

    def test_start_is_idempotent(self):
        sim, _counter, _bus, sampler = self.make(interval=1e-4)
        sampler.start()
        sampler.start()
        sim.run(until=1.5e-4)
        assert sampler.ticks == 1

    def test_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MetricsSampler(sim, MetricsRegistry(), TelemetryBus(),
                           interval=0.0)

    def test_no_drift_over_long_run(self):
        # 1e-4 is inexact in binary: over tens of thousands of ticks,
        # chained relative delays would accumulate float error.  Every
        # tick must land exactly on the epoch + k * interval grid.
        sim, _counter, bus, sampler = self.make(interval=1e-4)
        sub = bus.subscribe(prefix="nic.polls", maxlen=20_000)
        sampler.start()
        sim.run(until=2.0)
        times = [s.time for s in sub.poll()]
        assert len(times) == 20_000
        for k, t in enumerate(times, start=1):
            assert t == k * 1e-4, f"tick {k} drifted: {t!r}"

    def test_stop_lets_the_heap_drain(self):
        sim, _counter, _bus, sampler = self.make(interval=1e-4)
        sampler.start()
        sim.at(2.5e-4, sampler.stop)
        # No `until`: the run must end on its own, so the stopped
        # sampler's pending tick must not reschedule.
        sim.run()
        assert sampler.ticks == 2
        assert sim.peek() is None

    def test_restart_after_stop_rebases_epoch(self):
        sim, _counter, bus, sampler = self.make(interval=1e-4)
        sub = bus.subscribe(prefix="nic.polls")
        sampler.start()
        sim.run(until=2.5e-4)
        sampler.stop()
        sim.run(until=7.2e-4)
        sampler.start()
        sim.run(until=9.5e-4)
        # Two ticks before the stop, then 8.2e-4 and 9.2e-4 after the
        # restart.
        assert [s.time for s in sub.poll()] == pytest.approx(
            [1e-4, 2e-4, 8.2e-4, 9.2e-4], abs=1e-12)


class TestExperimentIntegration:
    def test_sampler_does_not_perturb_results(self):
        plain = run_experiment(tiny_config())
        sampled = run_experiment(
            tiny_config(sample_interval=1e-4))
        assert sampled.metrics == plain.metrics
        assert sampled.message_latency_us == plain.message_latency_us

    def test_params_identical_with_and_without_sampler(self):
        # sample_interval is observability config, not an experiment
        # parameter: it must not show up in params (or cache keys).
        plain = run_experiment(tiny_config())
        sampled = run_experiment(tiny_config(sample_interval=1e-4))
        assert sampled.params == plain.params

    def test_disabled_by_default(self):
        handle = ExperimentHandle(tiny_config())
        assert handle.sampler is None
        assert handle.telemetry is None
        assert handle.telemetry_samples() == []
        handle.run_warmup()
        handle.run_measurement()
        assert "telemetry" not in handle.metrics_snapshot()

    def test_snapshot_carries_telemetry_block(self):
        config = tiny_config(sample_interval=1e-4)
        handle = ExperimentHandle(config)
        handle.run_warmup()
        handle.run_measurement()
        handle.collect()
        block = handle.metrics_snapshot()["telemetry"]
        assert block["interval"] == 1e-4
        # warmup 0.5 ms + duration 1 ms at 0.1 ms cadence = 10 ticks.
        assert block["ticks"] == 10
        assert block["dropped"] == 0
        assert len(block["samples"]) == block["ticks"] * (
            len(block["samples"]) // block["ticks"])
        first = block["samples"][0]
        assert len(first) == 4  # [time, name, kind, value]
        assert first[0] >= config.sim.warmup

    def test_telemetry_samples_accessor(self):
        handle = ExperimentHandle(tiny_config(sample_interval=1e-4))
        handle.run_warmup()
        handle.run_measurement()
        samples = handle.telemetry_samples()
        assert samples
        assert all(isinstance(s, TelemetrySample) for s in samples)
        names = {s.name for s in samples}
        assert any(name.startswith("nic") for name in names)
        # The sampler's own counters are registered too.
        assert any(name.startswith("sampler") for name in names)

    def test_epoch_is_warmup_boundary(self):
        config = tiny_config(sample_interval=1e-4)
        handle = ExperimentHandle(config)
        handle.run_warmup()
        handle.run_measurement()
        times = sorted({s.time for s in handle.telemetry_samples()})
        warmup = config.sim.warmup
        expected = [warmup + (k + 1) * 1e-4 for k in range(10)]
        assert times == pytest.approx(expected, abs=1e-12)


class TestWorkerDeterminism:
    def test_sampler_output_identical_workers_1_vs_4(self):
        def configs():
            return [
                dataclasses.replace(
                    tiny_config(seed=seed),
                    sim=SimConfig(warmup=0.5e-3, duration=1e-3,
                                  seed=seed, sample_interval=2e-4))
                for seed in (3, 4, 5)
            ]

        serial_snaps: list = []
        parallel_snaps: list = []
        run_configs(configs(), workers=1, snapshots_out=serial_snaps)
        run_configs(configs(), workers=4, snapshots_out=parallel_snaps)
        assert len(serial_snaps) == 3
        assert serial_snaps == parallel_snaps  # telemetry included
        for snap in serial_snaps:
            assert snap["telemetry"]["ticks"] > 0
            assert snap["telemetry"]["samples"]


class TestClassifyRootCause:
    def test_taxonomy(self):
        assert classify_root_cause(
            {"antagonist_cores": 12}) == "memory-bus"
        assert classify_root_cause(
            {"iommu": True, "cores": 12}) == "iommu"
        assert classify_root_cause(
            {"iommu": True, "cores": 4}) == "cpu-or-none"
        assert classify_root_cause({}) == "cpu-or-none"
        assert classify_root_cause(
            {"antagonist_cores": "garbage"}) == "unknown"
