"""Ablation — transport protocols at the host-congestion operating
point (12 cores, IOMMU ON).

- Swift: the paper's protocol — blind below its host target, ~2-4%
  steady drops.
- CUBIC: loss-only — no delay signal at all, drops at least as high.
- HostCC (paper §4 extension): sub-RTT response to explicit NIC-buffer
  occupancy — drops collapse by an order of magnitude while throughput
  stays at the interconnect limit.
"""

import dataclasses

from repro.core.config import baseline_config
from repro.core.experiment import run_experiment


def _run_with_transport(transport: str):
    base = baseline_config(warmup=5e-3, duration=8e-3)
    return run_experiment(dataclasses.replace(base, transport=transport))


def test_host_signal_cc_removes_the_blind_spot(benchmark):
    transports = ("swift", "cubic", "dctcp", "hostcc")

    def sweep():
        return {t: _run_with_transport(t) for t in transports}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(f"{'transport':>10} {'tput (Gbps)':>12} {'drop %':>8} "
          f"{'p99 read latency (us)':>22}")
    for t, result in results.items():
        print(f"{t:>10} "
              f"{result.metrics['app_throughput_gbps']:>12.1f} "
              f"{result.metrics['drop_rate'] * 100:>8.2f} "
              f"{result.message_latency_us['p99']:>22.1f}")
    swift_drop = results["swift"].metrics["drop_rate"]
    hostcc_drop = results["hostcc"].metrics["drop_rate"]
    assert swift_drop > 0.005, "Swift should show blind-spot drops"
    assert hostcc_drop < 0.3 * swift_drop, \
        "host-signal CC should collapse drops"
    # ...without giving up meaningful throughput (within 15%).
    assert results["hostcc"].metrics["app_throughput_gbps"] > \
        0.85 * results["swift"].metrics["app_throughput_gbps"]
