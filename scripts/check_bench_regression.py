#!/usr/bin/env python3
"""Benchmark regression gate: compare a pytest-benchmark run to the
committed baseline.

The baseline (``benchmarks/baseline.json``) records the median wall
time per benchmark, measured at the commit that last touched the
kernel hot path.  This script fails (exit 1) when any gated benchmark's
median regresses by more than ``--threshold`` (default 25 %) — a margin
chosen to sit above shared-runner noise while still catching real
algorithmic regressions (an accidental O(n) scan in the dispatch loop
shows up as 2×, not 25 %).

Faster-than-baseline results are reported; pass ``--update`` to rewrite
the baseline after a deliberate improvement (commit the diff).

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_micro.py \\
        benchmarks/bench_fig3_iommu.py -q --benchmark-only \\
        --benchmark-json=bench.json
    python scripts/check_bench_regression.py bench.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.json"

#: Only hot-path benchmarks are gated: figure-shape benches (fig1,
#: fig4..) assert their own criteria and are minutes-long, so they stay
#: out of the gate's runtime budget.  The telemetry benches guard the
#: "free when off, cheap when on" contract of the sampler and ledger;
#: the fluid bench guards the >=25x fluid-vs-packet speedup contract;
#: the fleet-memory bench guards the streaming pipeline's
#: RSS-independent-of-host-count contract; the fleet-throughput bench
#: guards the >=10x batched-vs-scalar fluid fleet contract; the
#: fabric-packet bench guards the multi-tier packet path (fat-tree
#: hops, routing select, flowlet state) that figure 3's star skips.
GATED_PREFIXES = ("bench_engine_micro", "bench_fabric_packet",
                  "bench_fig3_iommu", "bench_fleet_memory",
                  "bench_fleet_throughput", "bench_fluid_speedup",
                  "bench_telemetry_overhead")


def load_medians(path: Path) -> Dict[str, float]:
    """``fullname -> median seconds`` for every benchmark in a
    pytest-benchmark JSON document."""
    doc = json.loads(path.read_text())
    medians = {}
    for bench in doc.get("benchmarks", []):
        # fullname is "benchmarks/bench_engine_micro.py::test_x";
        # normalize to "bench_engine_micro::test_x" so the key survives
        # running pytest from a different working directory.
        module = Path(bench["fullname"].split("::")[0]).stem
        medians[f"{module}::{bench['name']}"] = bench["stats"]["median"]
    return medians


def gated(medians: Dict[str, float]) -> Dict[str, float]:
    return {name: median for name, median in medians.items()
            if name.startswith(GATED_PREFIXES)}


def compare(baseline: Dict[str, float], current: Dict[str, float],
            threshold: float) -> List[str]:
    """Violation messages; empty when every gated median holds."""
    problems = []
    for name, base in sorted(baseline.items()):
        med = current.get(name)
        if med is None:
            problems.append(f"{name}: missing from this run "
                            f"(was {base * 1e6:.0f} us)")
            continue
        ratio = med / base
        if ratio > 1.0 + threshold:
            problems.append(
                f"{name}: {base * 1e6:.0f} us -> {med * 1e6:.0f} us "
                f"({ratio:.2f}x, limit {1.0 + threshold:.2f}x)")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path,
                        help="pytest-benchmark JSON from this run")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help=f"baseline medians (default {BASELINE})")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed median regression (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    args = parser.parse_args(argv)

    current = gated(load_medians(args.results))
    if not current:
        print("bench-gate: no gated benchmarks in results "
              f"(need {GATED_PREFIXES})")
        return 1

    if args.update:
        args.baseline.write_text(json.dumps(
            {"medians_s": current}, indent=1, sort_keys=True) + "\n")
        print(f"bench-gate: baseline rewritten with "
              f"{len(current)} medians -> {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text())["medians_s"]
    problems = compare(baseline, current, args.threshold)
    for name, med in sorted(current.items()):
        base = baseline.get(name)
        note = f" (baseline {base * 1e6:.0f} us)" if base else " (ungated: new)"
        print(f"  {name}: {med * 1e6:.0f} us{note}")
    if problems:
        print(f"bench-gate: {len(problems)} regression(s) beyond "
              f"{args.threshold:.0%}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"bench-gate: OK ({len(baseline)} benchmarks within "
          f"{args.threshold:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
