"""Ablation — Swift's host target delay (paper §4).

The paper argues that "simply using a lower host target delay would not
resolve the problem": with CC reacting at RTT timescale, hundreds of
incast flows keep more than a NIC buffer's worth of bytes in flight
regardless of the target.  This bench sweeps the target at the 12-core
IOMMU-ON operating point and shows drops persist across targets.
"""

import dataclasses

from repro.core.config import baseline_config
from repro.core.experiment import run_experiment


def _run_with_target(host_target: float):
    base = baseline_config(warmup=5e-3, duration=8e-3)
    config = dataclasses.replace(
        base, swift=dataclasses.replace(base.swift,
                                        host_target=host_target))
    return run_experiment(config)


def test_lower_host_target_does_not_eliminate_drops(benchmark):
    targets_us = (50, 100, 200)

    def sweep():
        return {t: _run_with_target(t * 1e-6) for t in targets_us}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(f"{'target (us)':>12} {'tput (Gbps)':>12} {'drop %':>8}")
    for t, result in results.items():
        print(f"{t:>12} "
              f"{result.metrics['app_throughput_gbps']:>12.1f} "
              f"{result.metrics['drop_rate'] * 100:>8.2f}")
    # Paper claim: drops persist even at half the target.
    assert results[50].metrics["drop_rate"] > 0.005
    assert results[100].metrics["drop_rate"] > 0.005
