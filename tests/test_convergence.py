"""Tests for sawtooth/convergence analysis, including the paper's
sawtooth claim demonstrated end-to-end."""

import math

import pytest

from repro.analysis.convergence import (
    convergence_time,
    sawtooth_metrics,
)


class TestSawtoothMetrics:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            sawtooth_metrics([0, 1], [1, 2, 3])

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            sawtooth_metrics([0, 1], [1, 2])

    def test_flat_series_not_oscillating(self):
        times = [i * 0.1 for i in range(20)]
        metrics = sawtooth_metrics(times, [5.0] * 20)
        assert metrics.amplitude == 0.0
        assert not metrics.oscillating
        assert metrics.period is None

    def test_sine_wave_detected(self):
        times = [i * 0.01 for i in range(400)]
        values = [10 + 5 * math.sin(2 * math.pi * t) for t in times]
        metrics = sawtooth_metrics(times, values)
        assert metrics.oscillating
        assert metrics.cycles == pytest.approx(4, abs=1)
        assert metrics.period == pytest.approx(1.0, rel=0.1)
        assert metrics.amplitude == pytest.approx(10.0, rel=0.1)

    def test_relative_amplitude_zero_mean(self):
        times = [0, 1, 2, 3]
        metrics = sawtooth_metrics(times, [-1, 1, -1, 1])
        assert metrics.relative_amplitude == 0.0  # guarded division


class TestConvergenceTime:
    def test_settled_series_converges_at_start(self):
        times = list(range(10))
        assert convergence_time(times, [5.0] * 10) == 0

    def test_step_series_converges_after_step(self):
        times = list(range(10))
        values = [0.0] * 5 + [10.0] * 5
        assert convergence_time(times, values) == 5

    def test_never_settling_returns_none(self):
        times = list(range(100))
        values = [(-1) ** i * 10.0 + 20 for i in range(100)]
        assert convergence_time(times, values, tolerance=0.05) is None

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            convergence_time([0, 1], [1, 2], window=5)


class TestPaperSawtooth:
    """The paper §3.1: Swift shows sawtooth behaviour under host
    congestion (rate cut → delay falls → rate grows → drops again)."""

    @pytest.fixture(scope="class")
    def buffer_series(self):
        from repro.core.config import (
            CpuConfig,
            ExperimentConfig,
            HostConfig,
            SimConfig,
        )
        from repro.core.experiment import ExperimentHandle

        def record(transport):
            # The telemetry sampler ticks every 0.1 ms from the warmup
            # boundary; the NIC's buffer_fraction gauge is the probe.
            config = ExperimentConfig(
                host=HostConfig(cpu=CpuConfig(cores=12)),
                transport=transport,
                sim=SimConfig(warmup=3e-3, duration=8e-3, seed=1,
                              sample_interval=0.1e-3))
            handle = ExperimentHandle(config)
            handle.run_measurement()
            samples = [s for s in handle.telemetry_samples()
                       if s.name == "nic.buffer_fraction"]
            return ([s.time for s in samples],
                    [s.value for s in samples])

        return {t: record(t) for t in ("swift", "hostcc")}

    def test_swift_buffer_oscillates_near_full(self, buffer_series):
        times, values = buffer_series["swift"]
        metrics = sawtooth_metrics(times, values)
        assert metrics.mean > 0.5          # pinned high (blind spot)
        assert metrics.cycles >= 3         # sawtooth present

    def test_hostcc_holds_buffer_lower_and_steadier(self, buffer_series):
        swift = sawtooth_metrics(*buffer_series["swift"])
        hostcc = sawtooth_metrics(*buffer_series["hostcc"])
        assert hostcc.mean < swift.mean
