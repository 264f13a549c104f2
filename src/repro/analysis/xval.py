"""Agreement checks: fluid vs packet, and the analytical model vs
packet.

The fluid engine earns its keep only while it reproduces the packet
kernel's *shapes and crossover points* — the paper's claims are about
knees (the cores value where IOMMU drops start), winners (which
isolation case hurts victims), and trends, not per-packet mechanics.
This module declares those contracts and checks them:

- **Per-point throughput** — app throughput agrees within
  :data:`THROUGHPUT_RTOL` relative error at every axis point.  This is
  the headline metric of every figure; 20% covers the worst observed
  divergence (13.6% at the figure-3 14-core point) with margin.
- **Drop onset** — the first axis point whose drop rate crosses
  :data:`DROP_ONSET_THRESHOLD` lands within
  :data:`ONSET_POSITION_TOLERANCE` grid positions at both fidelities
  (no-drops matches no-drops).  Onset *position* is the knee the paper
  cares about; drop *values* past the knee are deliberately not
  compared — the deterministic fluid sawtooth and the stochastic
  packet engine disagree up to ~3x there while agreeing exactly on
  where dropping starts.
- **Isolation winner** — the case ranking by victim p99 (uncongested
  beats congested) matches, and both engines agree the congested
  victim pays a tail penalty.
- **Fleet / day shapes** — drop rate correlates positively with link
  utilization in both populations, and each day bin's throughput
  agrees within the throughput tolerance *or* the cumulative
  delivered work through that bin agrees within
  :data:`DAY_CUMULATIVE_RTOL`.  The cumulative escape hatch exists
  because both engines carry sender-side demand backlog across bins
  (a reliable open-loop workload retransmits and queues), but they
  drain it on different schedules — packet flows sit out RTOs after a
  heavy-drop bin and then burst, while the deterministic fluid drains
  immediately — so a drain can land one bin apart while total
  delivered bytes agree within a few percent.
- **Model vs simulation** — the Little's-law model
  (:mod:`repro.core.model`), fed each packet run's measured IOTLB miss
  rate and memory utilization, predicts app throughput within
  :data:`MODEL_RTOL` at every point and :data:`MODEL_MEAN_RTOL` on
  average.  The model and the packet kernel are independent
  implementations of the same physics, so this is the repository's
  internal consistency check (the paper's "observed throughput closely
  matches the above model").

Each check either passes or yields a :class:`Disagreement` naming the
scenario, the check, and the axis point — the row format the
``fluid-xval`` CI job prints on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ExperimentConfig
from repro.core.model import modeled_app_throughput_bps
from repro.core.results import FailedRun, ResultTable

__all__ = [
    "DAY_CUMULATIVE_RTOL",
    "DROP_ONSET_THRESHOLD",
    "MODEL_MEAN_RTOL",
    "MODEL_RTOL",
    "ONSET_POSITION_TOLERANCE",
    "ROUTING_CLAIMS",
    "THROUGHPUT_RTOL",
    "AgreementReport",
    "Disagreement",
    "compare_day",
    "compare_fleet_aggregate",
    "compare_fleet_backends",
    "compare_isolation",
    "compare_model",
    "compare_routing_sweep",
    "compare_sweep",
    "drop_onset",
]

#: Relative tolerance on per-point app throughput (see module docstring).
THROUGHPUT_RTOL = 0.20
#: A point "drops" once its drop rate crosses this (2% — well above
#: stochastic noise, well below post-knee saturation).
DROP_ONSET_THRESHOLD = 0.02
#: Onset may land this many grid positions apart and still agree (the
#: knee sits between two grid points; the engines may round opposite
#: ways).
ONSET_POSITION_TOLERANCE = 1
#: Absolute floor (Gbps) under which throughput differences are noise.
_THROUGHPUT_ATOL_GBPS = 1.0
#: A day bin whose per-bin throughput misses :data:`THROUGHPUT_RTOL`
#: still agrees when cumulative delivered work through that bin is
#: this close — backlog-drain timing skew, not a capacity error (see
#: module docstring).
DAY_CUMULATIVE_RTOL = 0.05
#: Per-point relative error budget of the model against measured app
#: throughput.  Blind-spot operating points carry CC-induced
#: underutilization the model does not capture, hence the slack.
MODEL_RTOL = 0.25
#: Mean relative model error over a grid (much tighter than per point).
MODEL_MEAN_RTOL = 0.10


@dataclass(frozen=True)
class Disagreement:
    """One failed check: the row the CI failure table prints."""

    scenario: str
    check: str
    point: str
    detail: str

    def format_row(self) -> str:
        return (f"{self.scenario:<20} {self.check:<18} "
                f"{self.point:<28} {self.detail}")


@dataclass
class AgreementReport:
    """Outcome of cross-validating one scenario."""

    scenario: str
    checks: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def check(self, passed: bool, check: str, point: str,
              detail: str) -> None:
        self.checks += 1
        if not passed:
            self.disagreements.append(Disagreement(
                scenario=self.scenario, check=check, point=point,
                detail=detail))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "checks": self.checks,
            "disagreements": [
                {"check": d.check, "point": d.point, "detail": d.detail}
                for d in self.disagreements
            ],
        }


def drop_onset(drop_rates: Sequence[float],
               threshold: float = DROP_ONSET_THRESHOLD,
               ) -> Optional[int]:
    """Index of the first point at or past the drop threshold."""
    for index, rate in enumerate(drop_rates):
        if rate >= threshold:
            return index
    return None


def _throughput_agrees(packet: float, fluid: float,
                       rtol: float) -> bool:
    if abs(fluid - packet) <= _THROUGHPUT_ATOL_GBPS:
        return True
    return abs(fluid - packet) <= rtol * max(abs(packet), 1e-9)


def _series_groups(table: ResultTable,
                   x_key: str) -> List[Tuple[Tuple, List]]:
    """Rows grouped into series (all params but ``x_key``), preserving
    expansion order within and across groups."""
    groups: Dict[Tuple, List] = {}
    for result in table:
        key = tuple(sorted(
            (k, repr(v)) for k, v in result.params.items()
            if k != x_key))
        groups.setdefault(key, []).append(result)
    return list(groups.items())


def compare_sweep(
    scenario: str,
    packet: ResultTable,
    fluid: ResultTable,
    x_key: str,
    *,
    rtol: float = THROUGHPUT_RTOL,
    threshold: float = DROP_ONSET_THRESHOLD,
) -> AgreementReport:
    """Cross-validate two result tables from the same sweep spec."""
    report = AgreementReport(scenario=scenario)
    report.check(len(packet) == len(fluid), "row-count", "-",
                 f"packet has {len(packet)} rows, fluid {len(fluid)}")
    if len(packet) != len(fluid):
        return report
    for p_row, f_row in zip(packet, fluid):
        point = f"{x_key}={p_row.params.get(x_key)}"
        if p_row.params != f_row.params:
            report.check(False, "row-order", point,
                         f"params diverge: {p_row.params} vs "
                         f"{f_row.params}")
            return report
        if isinstance(p_row, FailedRun) or isinstance(f_row, FailedRun):
            report.check(False, "failed-run", point,
                         "a fidelity produced a FAILED row")
            continue
        p_app = p_row.metrics["app_throughput_gbps"]
        f_app = f_row.metrics["app_throughput_gbps"]
        report.check(
            _throughput_agrees(p_app, f_app, rtol),
            "throughput", _point_label(p_row.params, x_key),
            f"packet {p_app:.1f} Gbps vs fluid {f_app:.1f} Gbps "
            f"(rtol {rtol})")
    for key, p_rows in _series_groups(packet, x_key):
        f_rows = dict(_series_groups(fluid, x_key))[key]
        p_onset = drop_onset(
            [r.metrics["drop_rate"] for r in p_rows], threshold)
        f_onset = drop_onset(
            [r.metrics["drop_rate"] for r in f_rows], threshold)
        series = ", ".join(f"{k}={v}" for k, v in key
                           if k not in ("seed", "warmup_ms"))
        xs = [r.params.get(x_key) for r in p_rows]

        def _describe(onset):
            return ("none" if onset is None
                    else f"{x_key}={xs[onset]} (index {onset})")

        if p_onset is None or f_onset is None:
            agree = p_onset == f_onset
        else:
            agree = abs(p_onset - f_onset) <= ONSET_POSITION_TOLERANCE
        report.check(agree, "drop-onset", series or "-",
                     f"packet onset {_describe(p_onset)} vs fluid "
                     f"{_describe(f_onset)} "
                     f"(threshold {threshold:g}, "
                     f"tolerance ±{ONSET_POSITION_TOLERANCE})")
    return report


#: Routing-sweep claim each bundled multipath spec must reproduce
#: (consumed by ``scripts/check_fluid_xval.py``):
#:
#: - ``"host-invariant"`` — the congestion is inside the host, so the
#:   drop onset must land on the same grid position (±1) for every
#:   routing policy, at both fidelities (the incast spec's claim).
#: - ``"fabric-multipath"`` — the congestion is in the fabric, so
#:   routing decides the outcome: fabric drop onset orders static
#:   before ECMP before flowlet, and both engines crown the same
#:   (flowlet) throughput winner at the top load (the dumbbell spec).
ROUTING_CLAIMS: Dict[str, str] = {
    "incast": "host-invariant",
    "dumbbell": "fabric-multipath",
}

#: Routing policies ordered worst-to-best for multipath fabrics; the
#: fabric-multipath onset check asserts onsets are non-decreasing in
#: this order (an absent onset counts as "past the end of the grid").
_ROUTING_ORDER = ("static", "ecmp", "flowlet")


def _routing_series(table: ResultTable,
                    x_key: str) -> Dict[str, List]:
    """Rows per routing policy, in x order (expansion order)."""
    groups: Dict[str, List] = {}
    for result in table:
        if isinstance(result, FailedRun):
            continue
        groups.setdefault(result.params.get("routing"),
                          []).append(result)
    return groups


def compare_routing_sweep(
    scenario: str,
    packet: ResultTable,
    fluid: ResultTable,
    x_key: str,
    claim: str,
    *,
    threshold: float = DROP_ONSET_THRESHOLD,
) -> AgreementReport:
    """Check the routing-policy claim a multipath spec reproduces.

    Complements :func:`compare_sweep` (which already pins per-point
    throughput and per-series onset across fidelities) with the
    *cross-policy* structure: see :data:`ROUTING_CLAIMS`.
    """
    report = AgreementReport(scenario=f"{scenario}/routing")
    if claim not in ("host-invariant", "fabric-multipath"):
        raise ValueError(f"unknown routing claim {claim!r}")
    for label, table in (("packet", packet), ("fluid", fluid)):
        groups = _routing_series(table, x_key)
        report.check(len(groups) >= 2, "routing-series", label,
                     f"need >= 2 routing series, got {sorted(groups)}")
        if len(groups) < 2:
            continue
        if claim == "host-invariant":
            onsets = {
                name: drop_onset(
                    [r.metrics["drop_rate"] for r in rows], threshold)
                for name, rows in groups.items()}
            known = [o for o in onsets.values() if o is not None]
            agree = (len(known) == len(onsets)
                     and max(known) - min(known)
                     <= ONSET_POSITION_TOLERANCE)
            report.check(
                agree, "routing-onset-invariance", label,
                f"host-congestion onset must not move with the "
                f"routing policy; onsets {onsets} "
                f"(tolerance ±{ONSET_POSITION_TOLERANCE})")
        else:
            past_end = max(len(rows) for rows in groups.values())
            onsets = {
                name: drop_onset(
                    [r.metrics["fabric_drop_rate"] for r in rows],
                    threshold)
                for name, rows in groups.items()}
            ordered = [onsets.get(name, past_end)
                       if onsets.get(name) is not None else past_end
                       for name in _ROUTING_ORDER if name in groups]
            report.check(
                ordered == sorted(ordered), "fabric-onset-order", label,
                f"fabric drop onset must be non-decreasing "
                f"static -> ecmp -> flowlet; onsets {onsets}")
    if claim == "fabric-multipath":
        def top_load_winner(table: ResultTable) -> Optional[str]:
            groups = _routing_series(table, x_key)
            if not groups:
                return None
            return max(groups, key=lambda name:
                       groups[name][-1].metrics["app_throughput_gbps"])

        p_winner = top_load_winner(packet)
        f_winner = top_load_winner(fluid)
        report.check(
            p_winner == f_winner, "routing-winner", "top load",
            f"packet winner {p_winner!r} vs fluid {f_winner!r}")
        report.check(
            p_winner == "flowlet", "routing-winner", "top load",
            f"flowlet must win the top-load throughput in the packet "
            f"engine, got {p_winner!r}")
    return report


def compare_model(
    scenario: str,
    configs: Sequence[ExperimentConfig],
    table: ResultTable,
    *,
    rtol: float = MODEL_RTOL,
    mean_rtol: float = MODEL_MEAN_RTOL,
) -> AgreementReport:
    """Cross-validate the analytical model against a packet sweep.

    ``table`` is the result of running ``configs`` (same order).  The
    model is fed each row's *measured* miss rate and memory
    utilization: it predicts throughput given translation behaviour,
    not the translation behaviour itself.  The relative error is
    ``|model - measured| / measured``; a zero measured throughput is an
    infinite error.
    """
    report = AgreementReport(scenario=f"{scenario}/model")
    report.check(len(configs) == len(table), "row-count", "-",
                 f"{len(configs)} configs vs {len(table)} rows")
    if len(configs) != len(table):
        return report
    errors: List[float] = []
    for config, row in zip(configs, table):
        point = ", ".join(f"{k}={row.params.get(k)}" for k in
                          ("cores", "iommu", "antagonist_cores"))
        if isinstance(row, FailedRun):
            report.check(False, "failed-run", point,
                         "the packet run produced a FAILED row")
            continue
        measured = row.metrics["app_throughput_gbps"]
        predicted = modeled_app_throughput_bps(
            config, row.metrics["iotlb_misses_per_packet"],
            row.metrics["memory_utilization"]) / 1e9
        error = (abs(predicted - measured) / measured if measured
                 else math.inf)
        errors.append(error)
        report.check(error < rtol, "model-throughput", point,
                     f"measured {measured:.1f} Gbps vs model "
                     f"{predicted:.1f} Gbps: {error:.1%} error "
                     f"(rtol {rtol})")
    if errors:
        mean = sum(errors) / len(errors)
        report.check(mean < mean_rtol, "model-mean-error",
                     f"{len(errors)} points",
                     f"mean error {mean:.1%} (budget {mean_rtol:.0%}), "
                     f"worst {max(errors):.1%}")
    return report


def _point_label(params: Dict[str, Any], x_key: str) -> str:
    extras = [f"{k}={params[k]}" for k in ("iommu", "hugepages")
              if k in params]
    return f"{x_key}={params.get(x_key)}" + (
        f" ({', '.join(extras)})" if extras else "")


def compare_isolation(scenario: str, packet: Dict[str, Any],
                      fluid: Dict[str, Any]) -> AgreementReport:
    """Cross-validate the isolation study's case ranking."""
    report = AgreementReport(scenario=scenario)
    report.check(set(packet) == set(fluid), "cases", "-",
                 f"case sets differ: {sorted(packet)} vs "
                 f"{sorted(fluid)}")
    if set(packet) != set(fluid):
        return report

    def winner(results):
        return min(results, key=lambda name: results[name].victim.p99)

    p_winner, f_winner = winner(packet), winner(fluid)
    report.check(p_winner == f_winner, "isolation-winner", "victim p99",
                 f"packet winner {p_winner!r} vs fluid {f_winner!r}")
    if "uncongested" in packet and "congested" in packet:
        p_penalty = packet["congested"].victim_penalty_p99(
            packet["uncongested"])
        f_penalty = fluid["congested"].victim_penalty_p99(
            fluid["uncongested"])
        report.check(
            p_penalty > 1.0 and f_penalty > 1.0, "victim-penalty",
            "congested vs uncongested",
            f"penalty must exceed 1 at both fidelities "
            f"(packet {p_penalty:.2f}x, fluid {f_penalty:.2f}x)")
    return report


#: Max |packet - fluid| gap in per-stratum median link utilization.
STRATUM_UTIL_TOLERANCE = 0.15


def compare_fleet_aggregate(scenario: str, packet,
                            fluid) -> AgreementReport:
    """Cross-validate fleet populations through their streamed
    aggregates (:class:`~repro.workload.fleet_agg.FleetAggregate`).

    The Fig. 1 contract — positive utilization–drop rank correlation
    and matching dropper fractions at both fidelities — answered from
    the mergeable aggregates, plus per-stratum median link-utilization
    agreement (the strata are the population's ground truth, so their
    medians moving under a fidelity swap would mean the engines model
    different fleets).
    """
    report = AgreementReport(scenario=scenario)
    report.check(packet.hosts == fluid.hosts
                 and packet.failed == fluid.failed, "population", "-",
                 f"{packet.hosts} packet hosts ({packet.failed} "
                 f"failed) vs {fluid.hosts} fluid ({fluid.failed} "
                 f"failed)")
    if not packet.hosts or packet.hosts != fluid.hosts:
        return report
    p_corr = packet.rank_correlation()
    f_corr = fluid.rank_correlation()
    report.check(p_corr > 0 and f_corr > 0, "drop-correlation", "-",
                 f"drop rate must correlate positively with "
                 f"utilization at both fidelities "
                 f"(packet {p_corr:.2f}, fluid {f_corr:.2f})")
    p_frac, f_frac = packet.dropper_fraction, fluid.dropper_fraction
    report.check(abs(p_frac - f_frac) <= 0.25, "dropper-fraction", "-",
                 f"fraction of dropping hosts: packet {p_frac:.2f} vs "
                 f"fluid {f_frac:.2f} (tolerance 0.25)")
    strata = sorted(set(packet.stratum_sketches)
                    | set(fluid.stratum_sketches))
    for stratum in strata:
        point = f"stratum={stratum}"
        in_both = (stratum in packet.stratum_sketches
                   and stratum in fluid.stratum_sketches)
        report.check(in_both, "stratum-coverage", point,
                     "stratum must be populated at both fidelities")
        if not in_both:
            continue
        p_med = packet.stratum_median(stratum, "link_utilization")
        f_med = fluid.stratum_median(stratum, "link_utilization")
        report.check(
            abs(p_med - f_med) <= STRATUM_UTIL_TOLERANCE,
            "stratum-median-util", point,
            f"median link utilization: packet {p_med:.2f} vs fluid "
            f"{f_med:.2f} (tolerance {STRATUM_UTIL_TOLERANCE})")
    return report


def compare_fleet_backends(scenario: str, scalar,
                           batched) -> AgreementReport:
    """Scalar-vs-batched fluid fleet equivalence — an *exactness*
    contract, not a tolerance one.

    The lane-batched backend
    (:class:`~repro.sim.fluid_batch.BatchFluidSolver` over index
    ranges) promises the *same* per-host outcomes as the scalar fluid
    path, so the two :class:`~repro.workload.fleet_agg.FleetAggregate`
    objects must compare equal under the aggregate's own ``__eq__``
    (exact counters, exact sketch buckets).  When they do not, the
    targeted checks below name which layer drifted: a population
    mismatch means the in-worker config rebuild diverged from the
    ``(seed, i)`` substreams; a counter mismatch with matching
    populations means the vectorized step left the scalar trajectory.
    """
    report = AgreementReport(scenario=scenario)
    report.check(scalar.hosts == batched.hosts
                 and scalar.failed == batched.failed, "population", "-",
                 f"{scalar.hosts} scalar hosts ({scalar.failed} "
                 f"failed) vs {batched.hosts} batched "
                 f"({batched.failed} failed)")
    report.check(scalar.droppers == batched.droppers, "droppers", "-",
                 f"scalar {scalar.droppers} dropping hosts vs "
                 f"batched {batched.droppers} (must match exactly)")
    report.check(
        scalar.root_causes.to_dict() == batched.root_causes.to_dict(),
        "root-causes", "-",
        f"scalar {scalar.root_causes.to_dict()} vs batched "
        f"{batched.root_causes.to_dict()}")
    report.check(scalar == batched, "aggregate-equality", "-",
                 "FleetAggregate.__eq__ must hold between the scalar "
                 "and batched fluid backends for the same seed")
    return report


def compare_day(scenario: str, packet: Sequence, fluid: Sequence,
                *, rtol: float = THROUGHPUT_RTOL) -> AgreementReport:
    """Cross-validate per-bin day traces.

    A bin passes on per-bin throughput agreement, or — when a
    backlog drain lands on different sides of the bin boundary at the
    two fidelities — on cumulative delivered work through that bin
    (see :data:`DAY_CUMULATIVE_RTOL`).
    """
    report = AgreementReport(scenario=scenario)
    report.check(len(packet) == len(fluid), "bin-count", "-",
                 f"{len(packet)} packet bins vs {len(fluid)} fluid")
    if len(packet) != len(fluid):
        return report
    p_cum = f_cum = 0.0
    for p_bin, f_bin in zip(packet, fluid):
        p_cum += p_bin.app_throughput_gbps
        f_cum += f_bin.app_throughput_gbps
        point = (f"bin={p_bin.index} (load={p_bin.offered_load:.2f}, "
                 f"antagonists={p_bin.antagonist_cores})")
        per_bin = _throughput_agrees(p_bin.app_throughput_gbps,
                                     f_bin.app_throughput_gbps, rtol)
        cumulative = (abs(f_cum - p_cum)
                      <= DAY_CUMULATIVE_RTOL * max(p_cum, 1e-9))
        report.check(
            per_bin or cumulative, "throughput", point,
            f"packet {p_bin.app_throughput_gbps:.1f} Gbps vs fluid "
            f"{f_bin.app_throughput_gbps:.1f} Gbps (rtol {rtol}); "
            f"cumulative {p_cum:.0f} vs {f_cum:.0f} Gbps-bins "
            f"(rtol {DAY_CUMULATIVE_RTOL})")
    return report
