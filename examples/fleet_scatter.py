#!/usr/bin/env python3
"""Reproduce Figure 1's fleet scatter in the terminal.

Samples a heterogeneous fleet of receiver hosts (cores, IOMMU settings,
hugepage policy, memory antagonists, transports), simulates each, and
renders the (link utilization, drop rate) scatter with root-cause
labels — the paper's two observations fall out: drops correlate with
utilization AND happen at low utilization on memory-antagonized hosts.

    python examples/fleet_scatter.py [--hosts 30]
"""

import argparse
from collections import Counter

from repro.analysis.text_plots import scatter_plot
from repro.workload.fleet import FleetSampler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    sampler = FleetSampler(seed=args.seed, warmup=3e-3, duration=6e-3)
    print(f"simulating {args.hosts} heterogeneous hosts...")
    samples = []
    for sample in sampler.stream(args.hosts):
        samples.append(sample)
        print(f"  host {len(samples)}/{args.hosts}", end="\r")
    print()

    points = [(s.link_utilization, s.drop_rate) for s in samples]
    print(scatter_plot(points,
                       title="Fig. 1: host drop rate vs link utilization",
                       x_label="link utilization",
                       y_label="drop rate"))

    droppers = [s for s in samples if s.drop_rate > 1e-4]
    low_util = [s for s in droppers if s.link_utilization < 0.5]
    print(f"\n{len(droppers)}/{len(samples)} hosts drop packets; "
          f"{len(low_util)} of them at <50% link utilization.")
    causes = Counter(s.congestion_class for s in droppers)
    print("root causes among dropping hosts:",
          dict(causes.most_common()))


if __name__ == "__main__":
    main()
