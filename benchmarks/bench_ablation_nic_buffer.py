"""Ablation — NIC input-buffer size.

The blind-spot arithmetic of paper §3.1 is buffer-size dependent: with
a 1 MB buffer the maximum NIC queueing delay stays below Swift's 100 µs
host target whenever the drain rate exceeds ~84 Gbps of wire rate.  A
large enough buffer moves the full-buffer delay above the target and
Swift regains control; a smaller buffer makes drops worse.
"""

import dataclasses

from repro.core.config import baseline_config
from repro.core.experiment import run_experiment


def _run_with_buffer(buffer_bytes: int):
    base = baseline_config(warmup=5e-3, duration=8e-3)
    config = dataclasses.replace(
        base,
        host=dataclasses.replace(
            base.host,
            nic=dataclasses.replace(base.host.nic,
                                    buffer_bytes=buffer_bytes)))
    return run_experiment(config)


def test_buffer_size_controls_the_blind_spot(benchmark):
    sizes_mb = (0.5, 1.0, 4.0)

    def sweep():
        return {mb: _run_with_buffer(int(mb * 2**20)) for mb in sizes_mb}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(f"{'buffer (MB)':>12} {'tput (Gbps)':>12} {'drop %':>8} "
          f"{'nic delay (us)':>15}")
    for mb, result in results.items():
        print(f"{mb:>12} "
              f"{result.metrics['app_throughput_gbps']:>12.1f} "
              f"{result.metrics['drop_rate'] * 100:>8.2f} "
              f"{result.metrics['mean_nic_delay_us']:>15.1f}")
    # 4 MB of buffer exceeds the host target delay at any drain rate
    # above ~33 Gbps wire: Swift sees the congestion and drops collapse.
    assert results[4.0].metrics["drop_rate"] < \
        0.5 * max(results[0.5].metrics["drop_rate"],
                  results[1.0].metrics["drop_rate"])
