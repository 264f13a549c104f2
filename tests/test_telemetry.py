"""The in-sim telemetry plane: sampler ring, cadence, and the
non-perturbation guarantee.

The load-bearing properties: the sampler's ring stays bounded (drop
oldest, counted), the sampler ticks at
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
    TelemetrySample,
    classify_root_cause,
)
from repro.sim.engine import Simulator


def polled(sampler, name="nic.polls"):
    """The sampler's ring, filtered to one metric."""
    return [s for s in sampler.samples if s.name == name]


def tiny_config(seed=3, sample_interval=None):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=2)),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=0.5e-3, duration=1e-3, seed=seed,
                      sample_interval=sample_interval),
    )


class TestMetricsSampler:
    def make(self, interval=1e-4, cls=MetricsSampler):
        sim = Simulator()
        registry = MetricsRegistry()
        counter = registry.counter("polls", "nic")
        registry.gauge("depth", "nic", fn=lambda: 2.5)
        sampler = cls(sim, registry, interval=interval)
        return sim, counter, sampler

    def test_drift_free_absolute_tick_times(self):
        sim, _counter, sampler = self.make(interval=1e-4)
        sim.at(3e-4, sampler.start)  # epoch mid-run, not at zero
        sim.run(until=8.05e-4)
        times = [s.time for s in polled(sampler)]
        assert times == pytest.approx(
            [4e-4, 5e-4, 6e-4, 7e-4, 8e-4], abs=1e-12)
        assert sampler.ticks == 5

    def test_samples_carry_live_registry_values(self):
        sim, counter, sampler = self.make(interval=1e-4)
        sim.at(0.5e-4, lambda: counter.inc(3))
        sim.at(1.5e-4, lambda: counter.inc(4))
        sampler.start()
        sim.run(until=2.5e-4)
        assert [s.value for s in polled(sampler)] == [3.0, 7.0]

    def test_ring_drops_oldest_and_counts(self):
        class SmallRing(MetricsSampler):
            maxlen = 3

        sim, _counter, sampler = self.make(interval=1e-4, cls=SmallRing)
        sampler.start()
        sim.run(until=2.5e-4)
        # Two ticks of two metrics: four samples into a ring of three.
        assert sampler.samples_emitted == 4
        assert sampler.dropped == 1
        # The newest survive — a reader sees fresh data.
        assert [s.time for s in sampler.samples] == pytest.approx(
            [1e-4, 2e-4, 2e-4], abs=1e-12)

    def test_stop_disarms_pending_tick(self):
        sim, _counter, sampler = self.make(interval=1e-4)
        sampler.start()
        sim.at(2.5e-4, sampler.stop)
        sim.run(until=9e-4)
        assert sampler.ticks == 2  # ticks at 1e-4 and 2e-4 only

    def test_start_is_idempotent(self):
        sim, _counter, sampler = self.make(interval=1e-4)
        sampler.start()
        sampler.start()
        sim.run(until=1.5e-4)
        assert sampler.ticks == 1

    def test_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MetricsSampler(sim, MetricsRegistry(), interval=0.0)

    def test_no_drift_over_long_run(self):
        # 1e-4 is inexact in binary: over tens of thousands of ticks,
        # chained relative delays would accumulate float error.  Every
        # tick must land exactly on the epoch + k * interval grid.
        sim, _counter, sampler = self.make(interval=1e-4)
        sampler.start()
        sim.run(until=2.0)
        times = [s.time for s in polled(sampler)]
        assert len(times) == 20_000
        for k, t in enumerate(times, start=1):
            assert t == k * 1e-4, f"tick {k} drifted: {t!r}"

    def test_stop_lets_the_heap_drain(self):
        sim, _counter, sampler = self.make(interval=1e-4)
        sampler.start()
        sim.at(2.5e-4, sampler.stop)
        # No `until`: the run must end on its own, so the stopped
        # sampler's pending tick must not reschedule.
        sim.run()
        assert sampler.ticks == 2
        assert sim.peek() is None

    def test_restart_after_stop_rebases_epoch(self):
        sim, _counter, sampler = self.make(interval=1e-4)
        sampler.start()
        sim.run(until=2.5e-4)
        sampler.stop()
        sim.run(until=7.2e-4)
        sampler.start()
        sim.run(until=9.5e-4)
        # Two ticks before the stop, then 8.2e-4 and 9.2e-4 after the
        # restart.
        assert [s.time for s in polled(sampler)] == pytest.approx(
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
