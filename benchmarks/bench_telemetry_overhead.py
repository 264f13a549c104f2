"""Telemetry-plane overhead: sampler and ledger A/B measurements.

The telemetry plane's contract is "free when off, cheap when on":
``sample_interval=None`` (the default) builds no sampler and no
sample ring, so the hot path is untouched; enabled, the
drift-free sampler and the JSONL ledger sink must stay within a small
single-digit-percent budget.  The paired test interleaves off/on runs
(A/B/A/B) so machine drift hits both arms equally, and asserts a
CI-safe 1.25x ceiling while reporting the measured ratio — locally the
ratio sits well under the 1.05x acceptance target.
"""

import statistics
import time

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.experiment import run_experiment
from repro.core.ledger import LedgerWriter
from repro.core.parallel import run_many


def bench_config(seed=3, sample_interval=None):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=8)),
        workload=WorkloadConfig(senders=20),
        sim=SimConfig(warmup=1e-3, duration=3e-3, seed=seed,
                      sample_interval=sample_interval),
    )


def test_experiment_telemetry_off(benchmark):
    """Baseline: one experiment with the sampler disabled (default)."""
    result = benchmark.pedantic(
        lambda: run_experiment(bench_config()),
        rounds=5, iterations=1, warmup_rounds=1)
    assert result.metrics["packets_sent"] > 0


def test_experiment_telemetry_on(benchmark):
    """Same experiment polling every 50 us of sim time (~80 ticks)."""
    result = benchmark.pedantic(
        lambda: run_experiment(bench_config(sample_interval=5e-5)),
        rounds=5, iterations=1, warmup_rounds=1)
    assert result.metrics["packets_sent"] > 0


def test_sampler_overhead_budget(benchmark):
    """Paired off/on comparison with a hard ceiling.

    Interleaved arms, median-of-7 each; the ratio lands in
    ``extra_info`` for trend tracking and must stay under 1.25x (the
    acceptance target is 1.05x; the CI margin absorbs shared-runner
    noise).  The two arms must also produce identical metrics — the
    non-perturbation half of the contract, re-checked where the
    overhead is measured.
    """
    off_times, on_times = [], []
    baseline_metrics = sampled_metrics = None
    for _ in range(7):
        t0 = time.perf_counter()
        baseline_metrics = run_experiment(bench_config()).metrics
        off_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        sampled_metrics = run_experiment(
            bench_config(sample_interval=5e-5)).metrics
        on_times.append(time.perf_counter() - t0)
    assert sampled_metrics == baseline_metrics
    off = statistics.median(off_times)
    on = statistics.median(on_times)
    ratio = on / off
    benchmark.extra_info["median_off_s"] = round(off, 6)
    benchmark.extra_info["median_on_s"] = round(on, 6)
    benchmark.extra_info["on_off_ratio"] = round(ratio, 4)
    assert ratio < 1.25, (
        f"sampler overhead {ratio:.3f}x exceeds the 1.25x ceiling "
        f"(off={off:.4f}s on={on:.4f}s)")
    # Record the on-arm as the benchmark's own timing.
    benchmark.pedantic(
        lambda: run_experiment(bench_config(sample_interval=5e-5)),
        rounds=3, iterations=1)


def test_ledger_sink_overhead(benchmark, tmp_path):
    """run_many with a ledger sink vs without, on the same 3 configs.

    The sink costs one JSON encode + line write per lifecycle event —
    a handful of events per multi-second run — so the paired ratio
    must also hold under the 1.25x ceiling.
    """
    configs = [bench_config(seed=s) for s in (3, 4, 5)]
    plain_times, sink_times = [], []
    for i in range(5):
        t0 = time.perf_counter()
        run_many(list(configs))
        plain_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with LedgerWriter(tmp_path, label=f"bench-{i}") as ledger:
            run_many(list(configs), events=ledger)
        sink_times.append(time.perf_counter() - t0)
    plain = statistics.median(plain_times)
    sink = statistics.median(sink_times)
    ratio = sink / plain
    benchmark.extra_info["median_plain_s"] = round(plain, 6)
    benchmark.extra_info["median_ledger_s"] = round(sink, 6)
    benchmark.extra_info["ledger_ratio"] = round(ratio, 4)
    assert ratio < 1.25, (
        f"ledger overhead {ratio:.3f}x exceeds the 1.25x ceiling")
    benchmark.pedantic(
        lambda: run_many(list(configs)), rounds=3, iterations=1)
