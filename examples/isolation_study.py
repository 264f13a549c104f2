#!/usr/bin/env python3
"""Isolation under host congestion (paper §1).

One small-RPC "victim" per receiver thread shares the host with
elephant remote reads.  On a healthy host the victims' 4 KB RPCs finish
in tens of microseconds; on the paper's congested baseline they inherit
the NIC queue, the drops, and the retransmissions of their neighbours.

    python examples/isolation_study.py
"""

from repro.core.config import baseline_config
from repro.workload.isolation import congested_vs_uncongested


def main() -> None:
    print("running victim/elephant isolation study...\n")
    results = congested_vs_uncongested(
        baseline_config(warmup=4e-3, duration=8e-3))

    header = (f"{'case':>14} {'drop %':>7} {'victim p50':>11} "
              f"{'victim p99':>11} {'elephant p99':>13} {'tput':>6}")
    print(header)
    print("-" * len(header))
    for name, r in results.items():
        print(f"{name:>14} {r.drop_rate * 100:>7.2f} "
              f"{r.victim.p50:>11.1f} {r.victim.p99:>11.1f} "
              f"{r.elephant.p99:>13.1f} "
              f"{r.app_throughput_gbps:>6.1f}")

    penalty = results["congested"].victim_penalty_p99(
        results["uncongested"])
    print(f"\nvictim p99 penalty under host congestion: {penalty:.1f}x")
    print("The victims never exceeded a few Mbps — they pay because")
    print("every application shares the NIC buffer where host-")
    print("congestion drops land (paper §3: 'drop rate serves as a")
    print("proxy for violation of isolation properties').")


if __name__ == "__main__":
    main()
