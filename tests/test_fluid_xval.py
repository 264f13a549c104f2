"""Shrunk-grid fluid-vs-packet cross-validation.

The full bundled-spec agreement matrix runs in the ``fluid-xval`` CI
job (``scripts/check_fluid_xval.py``); these tests hold the same
contracts — knees, winners, throughput tolerances from
:mod:`repro.analysis.xval` — on grids small enough for tier-1.
"""

import dataclasses

import pytest

from repro.analysis import xval
from repro.core.config import baseline_config
from repro.core.scenario import ScenarioSpec, SweepAxis
from repro.workload.day import diurnal_schedule, simulate_day
from repro.workload.fleet import FleetSampler
from repro.workload.isolation import congested_vs_uncongested

CORES = (2, 8, 12, 16)


def _base(fidelity, warmup=1e-3, duration=3e-3):
    return baseline_config(warmup=warmup, duration=duration,
                           fidelity=fidelity)


def _assert_agrees(report):
    assert report.ok, "\n".join(
        d.format_row() for d in report.disagreements)


@pytest.fixture(scope="module")
def sweep_tables():
    spec = ScenarioSpec(name="shrunk_figure3", axes=(
        SweepAxis("host.iommu.enabled", (True, False)),
        SweepAxis("host.cpu.cores", CORES)))
    return tuple(spec.run(base=_base(fidelity), fidelity=fidelity)
                 for fidelity in ("packet", "fluid"))


def test_sweep_throughput_and_knees_agree(sweep_tables):
    packet, fluid = sweep_tables
    assert packet != fluid  # two engines, not one engine run twice
    report = xval.compare_sweep("shrunk_figure3", packet, fluid,
                                "cores")
    _assert_agrees(report)
    # Both throughput points and per-series drop onsets were checked.
    assert report.checks >= len(packet) + 2


def test_sweep_agreement_is_not_vacuous(sweep_tables):
    """The shrunk grid must actually cross the IOTLB knee at high core
    counts (paper Fig. 3), or the onset check compares nothing."""
    packet, _ = sweep_tables
    iommu_drops = [r.metrics["drop_rate"] for r in packet
                   if r.params["iommu"]]
    assert xval.drop_onset(iommu_drops) is not None


def test_isolation_winner_agrees():
    packet = congested_vs_uncongested(_base("packet"))
    fluid = congested_vs_uncongested(_base("fluid"))
    report = xval.compare_isolation("shrunk_isolation", packet, fluid)
    _assert_agrees(report)


def test_day_bins_agree():
    schedule = diurnal_schedule(6, seed=0)

    def run(fidelity):
        config = _base(fidelity)
        config = dataclasses.replace(
            config, workload=dataclasses.replace(
                config.workload, offered_load=0.6))
        return simulate_day(config, schedule, bin_duration=2e-3,
                            warmup_per_bin=5e-4)

    report = xval.compare_day("shrunk_day", run("packet"),
                              run("fluid"))
    _assert_agrees(report)


def test_fleet_aggregates_agree():
    """The fleet contract on a shrunk fleet, through the streaming
    aggregate that `repro fleet` and CI's fluid-xval exercise.  24
    hosts: large enough that both engines sample a few droppers (12
    hosts at 2 ms leaves the deterministic fluid population drop-free
    and degenerates the correlation check)."""
    def run(fidelity):
        sampler = FleetSampler(seed=7, warmup=1e-3, duration=3e-3,
                               fidelity=fidelity)
        return sampler.run_aggregate(24, shards=2)

    report = xval.compare_fleet_aggregate("shrunk_fleet_agg",
                                          run("packet"), run("fluid"))
    _assert_agrees(report)
    # Per-stratum checks actually ran: 4 strata in a 24-host draw.
    points = {d.point for d in report.disagreements}
    assert report.checks >= 3 + 2 * len(FleetSampler.STRATA), points


# -- contract unit checks (no simulation) --------------------------------


def test_drop_onset_finds_first_crossing():
    assert xval.drop_onset([0.0, 0.001, 0.05, 0.3]) == 2
    assert xval.drop_onset([0.0, 0.0]) is None


def _make_bin(index, gbps):
    from repro.workload.day import DayBin

    return DayBin(index=index, offered_load=0.5, antagonist_cores=0,
                  link_utilization=0.5, drop_rate=0.0,
                  app_throughput_gbps=gbps)


def test_day_cumulative_escape_hatch():
    """A backlog drain landing one bin apart fails per-bin rtol but
    passes on cumulative delivered work."""
    packet = [_make_bin(0, 40.0), _make_bin(1, 80.0)]
    fluid = [_make_bin(0, 80.0), _make_bin(1, 40.0)]
    report = xval.compare_day("synthetic", packet, fluid)
    assert report.disagreements == [
        d for d in report.disagreements if d.point.startswith("bin=0")]
    # Bin 1 recovers via the cumulative check (120 vs 120).
    assert all("bin=1" not in d.point for d in report.disagreements)


def test_day_capacity_error_is_not_excused():
    """A persistent throughput gap fails even with the cumulative
    escape hatch: it is a capacity error, not timing skew."""
    packet = [_make_bin(i, 80.0) for i in range(4)]
    fluid = [_make_bin(i, 40.0) for i in range(4)]
    report = xval.compare_day("synthetic", packet, fluid)
    assert len(report.disagreements) == 4
