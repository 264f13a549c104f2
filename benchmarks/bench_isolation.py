"""Isolation study — the paper's §1 application-level claims.

"host congestion ... can lead to hundreds of microseconds of tail
latency, significant throughput drop, and violation of isolation
properties due to packet drops" — all applications share the NIC
buffer where the drops land.

One small-RPC victim per receiver thread shares the host with elephant
reads; the bench compares victim tail latency between a lightly-loaded
host and the paper's congested baseline (12 cores, IOMMU on).
"""

from repro.core.config import baseline_config
from repro.workload.isolation import congested_vs_uncongested


def test_host_congestion_violates_isolation(benchmark):
    base = baseline_config(warmup=5e-3, duration=8e-3)

    results = benchmark.pedantic(
        lambda: congested_vs_uncongested(base), rounds=1, iterations=1)
    congested = results["congested"]
    clean = results["uncongested"]
    print()
    print(f"{'case':>12} {'drop %':>7} {'victim p50':>11} "
          f"{'victim p99':>11} {'elephant p99':>13}")
    for name, r in results.items():
        print(f"{name:>12} {r.drop_rate * 100:>7.2f} "
              f"{r.victim.p50:>11.1f} {r.victim.p99:>11.1f} "
              f"{r.elephant.p99:>13.1f}")
    penalty = congested.victim_penalty_p99(clean)
    print(f"\nvictim p99 penalty: {penalty:.1f}x")
    # Hundreds of microseconds of tail latency for innocent RPCs.
    assert congested.victim.p99 > 100.0
    assert penalty > 2.0
    # The baseline really is clean.
    assert clean.drop_rate < 0.001
