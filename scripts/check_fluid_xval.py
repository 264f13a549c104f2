#!/usr/bin/env python3
"""Fluid-vs-packet agreement matrix over every bundled scenario spec.

Runs each bundled scenario at both fidelities (quick quality where the
spec defines presets) and checks the contracts declared in
:mod:`repro.analysis.xval`: per-point throughput within tolerance,
drop-onset knees within one grid position, isolation winners, and
fleet/day shape agreement.  Specs that plot the analytical model line
also hold their packet leg to the model (``xval.compare_model``).  Writes the full agreement report as JSON
(the CI artifact) and exits 1 with a table naming every disagreeing
spec and axis point.

Usage::

    python scripts/check_fluid_xval.py --workers auto \\
        --report fluid_xval_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import xval  # noqa: E402
from repro.core.scenario import ScenarioSpec, bundled_scenarios  # noqa: E402


def _x_key(spec: ScenarioSpec) -> str:
    render = spec.render
    if render is not None:
        if render.x:
            return render.x
        if render.panels:
            return render.panels[0].x
    return "cores"


def _plots_model(spec: ScenarioSpec) -> bool:
    """Whether the spec draws the Little's-law model overlay, i.e.
    claims the model agrees with its packet runs."""
    return spec.render is not None and any(
        series.kind == "model" for panel in spec.render.panels
        for series in panel.series)


def _quality(spec: ScenarioSpec, requested: Optional[str]):
    """The requested preset where the spec defines it; otherwise the
    spec's own defaults (walk-through specs bake quick settings into
    [base] instead of presets)."""
    if requested is not None and requested in spec.quality:
        return requested
    return None


def cross_validate(spec: ScenarioSpec, quality: Optional[str],
                   workers) -> xval.AgreementReport:
    quality = _quality(spec, quality)
    if spec.driver == "fleet":
        # Fleet specs cross-validate through the streaming aggregate
        # pipeline — the path `repro fleet` actually runs at scale.
        # The fluid leg uses the default backend ("auto" = the
        # lane-batched solver), so the packet-vs-fluid contract is
        # checked against the backend production runs use; a second
        # scalar fluid leg then pins the batched backend to exact
        # aggregate equality (xval.compare_fleet_backends).
        packet = spec.run_fleet_aggregate(quality=quality,
                                          fidelity="packet",
                                          workers=workers)
        fluid = spec.run_fleet_aggregate(quality=quality,
                                         fidelity="fluid")
        report = xval.compare_fleet_aggregate(spec.name, packet, fluid)
        scalar_fluid = spec.run_fleet_aggregate(
            quality=quality, fidelity="fluid", backend="scalar")
        backends = xval.compare_fleet_backends(spec.name, scalar_fluid,
                                               fluid)
        report.checks += backends.checks
        report.disagreements.extend(backends.disagreements)
        return report
    packet = spec.run(quality=quality, fidelity="packet",
                      workers=workers)
    fluid = spec.run(quality=quality, fidelity="fluid")
    if spec.driver == "sweep":
        report = xval.compare_sweep(spec.name, packet, fluid,
                                    _x_key(spec))
        extra = []
        claim = xval.ROUTING_CLAIMS.get(spec.name)
        if claim is not None:
            extra.append(xval.compare_routing_sweep(
                spec.name, packet, fluid, _x_key(spec), claim))
        if _plots_model(spec):
            extra.append(xval.compare_model(
                spec.name, spec.expand(quality, fidelity="packet"),
                packet))
        for other in extra:
            report.checks += other.checks
            report.disagreements.extend(other.disagreements)
        return report
    if spec.driver == "day":
        return xval.compare_day(spec.name, packet, fluid)
    return xval.compare_isolation(spec.name, packet, fluid)


def _workers_arg(value: str):
    return value if value == "auto" else int(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quality", default="quick",
                        help="quality preset where specs define one "
                             "(default quick)")
    parser.add_argument("--workers", type=_workers_arg, default=None,
                        help="worker processes for the packet runs")
    parser.add_argument("--report", default="fluid_xval_report.json",
                        help="agreement-report JSON path (CI artifact)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="restrict to these scenario names")
    args = parser.parse_args(argv)

    specs = bundled_scenarios()
    if args.only:
        missing = sorted(set(args.only) - set(specs))
        if missing:
            print(f"unknown scenario(s): {', '.join(missing)}")
            return 2
        specs = {name: specs[name] for name in args.only}

    reports: List[xval.AgreementReport] = []
    for name in sorted(specs):
        spec = specs[name]
        start = time.perf_counter()
        report = cross_validate(spec, args.quality, args.workers)
        elapsed = time.perf_counter() - start
        reports.append(report)
        status = "OK  " if report.ok else "FAIL"
        print(f"{status} {name:<20} {report.checks:>3} check(s)  "
              f"{elapsed:6.1f}s")

    payload = {
        "quality": args.quality,
        "tolerances": {
            "throughput_rtol": xval.THROUGHPUT_RTOL,
            "drop_onset_threshold": xval.DROP_ONSET_THRESHOLD,
            "onset_position_tolerance": xval.ONSET_POSITION_TOLERANCE,
            "day_cumulative_rtol": xval.DAY_CUMULATIVE_RTOL,
            "model_rtol": xval.MODEL_RTOL,
            "model_mean_rtol": xval.MODEL_MEAN_RTOL,
        },
        "scenarios": [report.to_dict() for report in reports],
    }
    Path(args.report).write_text(json.dumps(payload, indent=1))
    print(f"\nwrote agreement report to {args.report}")

    failures = [d for report in reports
                for d in report.disagreements]
    if failures:
        print(f"\n{len(failures)} disagreement(s):\n")
        print(f"{'scenario':<20} {'check':<18} {'point':<28} detail")
        print("-" * 100)
        for disagreement in failures:
            print(disagreement.format_row())
        return 1
    total = sum(report.checks for report in reports)
    print(f"all {len(reports)} scenario(s) agree across fidelities "
          f"({total} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
