"""Scenario results and the regeneration of every evaluation figure.

Each figure is a bundled scenario spec (``src/repro/scenarios/*.toml``)
— sweep axes, quality presets, and panel/series metadata all live in
the spec, not here.  This module is the rendering binding:
:func:`run_scenario` runs any spec through the shared execution
pipeline and returns one :class:`ScenarioResult` whatever its driver,
materializing the ``[render]`` section into a :class:`FigureData` where
the spec draws one.  The historical ``figure1``/``figure3``–``figure6``
entry points remain as thin wrappers that load their spec and override
the grid from their arguments.

The ``quality`` knob selects a spec preset trading run time for grid
density / window length:

- ``"quick"`` — coarse grid, short windows (benchmark-harness default);
- ``"full"``  — the paper's grid and longer measurement windows.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.series import Series, series_from_table
from repro.analysis.text_plots import line_plot, scatter_plot
from repro.core import calibration as cal
from repro.core.cache import ResultCache
from repro.core.config import ExperimentConfig
from repro.core.model import ThroughputModel
from repro.core.results import FailedRun, ResultTable
from repro.core.scenario import (
    PanelSpec,
    QualityPreset,
    RenderSpec,
    ScenarioSpec,
    SeriesSpec,
    apply_overrides,
    load_bundled,
)

__all__ = [
    "FigureData",
    "RUN_FLAGS",
    "ScenarioResult",
    "figure1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure_from_scenario",
    "fleet_summary",
    "run_scenario",
    "supported_flags",
]


@dataclass
class FigureData:
    """All panels of one reproduced figure."""

    name: str
    title: str
    #: panel name -> (x label, y label, series list)
    panels: Dict[str, Tuple[str, str, List[Series]]]
    #: raw scatter points for Fig. 1
    scatter: List[Tuple[float, float]] = field(default_factory=list)
    table: ResultTable | None = None
    notes: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        blocks = [f"==== {self.name}: {self.title} ===="]
        if self.scatter:
            blocks.append(_fleet_scatter(self.scatter, self.title))
        for panel, (x_label, y_label, series) in self.panels.items():
            if not any(s.x for s in series):
                blocks.append(f"  {panel}: no completed runs to plot")
                continue
            blocks.append(
                line_plot(series, title=panel, x_label=x_label,
                          y_label=y_label)
            )
        if self.notes:
            blocks.append("notes: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.notes.items())))
        return "\n\n".join(blocks)

    def to_csv_dir(self, directory: str | Path) -> List[Path]:
        """One CSV per panel (columns: x, one column per series)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for panel, (x_label, _y, series_list) in self.panels.items():
            path = directory / f"{self.name}_{panel}.csv".replace(" ", "_")
            xs = sorted({x for s in series_list for x in s.x})
            with open(path, "w") as fh:
                header = [x_label] + [s.label for s in series_list]
                fh.write(",".join(header) + "\n")
                for x in xs:
                    row = [f"{x:g}"]
                    for s in series_list:
                        lookup = dict(zip(s.x, s.y))
                        row.append(
                            f"{lookup[x]:g}" if x in lookup else "")
                    fh.write(",".join(row) + "\n")
            written.append(path)
        if self.scatter:
            path = directory / f"{self.name}_scatter.csv"
            with open(path, "w") as fh:
                fh.write("link_utilization,drop_rate\n")
                for x, y in self.scatter:
                    fh.write(f"{x:g},{y:g}\n")
            written.append(path)
        return written


@dataclass
class ScenarioResult:
    """What :func:`run_scenario` returns for every driver."""

    #: The printed report: the figure, or the driver's table.
    report: str
    #: One row per run (sweep driver), failed runs included.
    table: ResultTable | None = None
    #: One metrics snapshot per run, when asked for (sweep driver).
    snapshots: list | None = None
    figure: FigureData | None = None
    #: The ``--json-out`` document (a fleet spec without a figure):
    #: the aggregate's dict plus a ``run_info`` block on the run.
    payload: dict | None = None


def _rank(values: Sequence[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (j + 1 < len(order)
               and values[order[j + 1]] == values[order[i]]):
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (no SciPy dependency)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two same-length samples of size >= 2")
    rx, ry = _rank(xs), _rank(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


# ---------------------------------------------------------------------------
# Spec -> figure rendering binding
# ---------------------------------------------------------------------------

def _metric_series(table: ResultTable, panel: PanelSpec,
                   spec_series: SeriesSpec) -> Series:
    series = series_from_table(table, panel.x, spec_series.metric,
                               spec_series.label, **spec_series.where)
    if spec_series.scale != 1:
        series = Series(series.label, series.x,
                        tuple(y * spec_series.scale for y in series.y))
    return series


def _model_series(table: ResultTable, panel: PanelSpec,
                  spec_series: SeriesSpec,
                  base: ExperimentConfig) -> Series:
    # The model line: Little's-law bound fed with the measured misses,
    # shown (as in the paper) only where the interconnect binds.
    xs: List[float] = []
    ys: List[float] = []
    for result in table.where(**spec_series.where):
        x = result.params[panel.x]
        if spec_series.min_x is not None and x < spec_series.min_x:
            continue
        config = base
        if spec_series.config_path is not None:
            config = apply_overrides(base,
                                     {spec_series.config_path: x})
        bound = ThroughputModel(config).predict(
            misses_per_packet=result.metrics[
                "iotlb_misses_per_packet"],
            memory_utilization=result.metrics["memory_utilization"],
        )
        xs.append(float(x))
        ys.append(bound / 1e9)
    return Series(spec_series.label, tuple(xs),
                  tuple(ys)).sorted_by_x()


def _max_goodput_series(table: ResultTable, panel: PanelSpec,
                        spec_series: SeriesSpec) -> Series:
    xs = tuple(sorted({float(v) for v in table.column(panel.x)}))
    return Series(spec_series.label, xs,
                  tuple(cal.MAX_APP_GOODPUT_BPS / 1e9 for _ in xs))


def _renders_figure(spec: ScenarioSpec) -> bool:
    return spec.render is not None and spec.render.style in ("panels",
                                                             "scatter")


def _table(header: str, rows) -> str:
    return "\n".join([header, "-" * len(header), *rows])


def _sweep_row(result, x_key: str) -> str:
    row = f"{result.params[x_key]:>16} {str(result.params['iommu']):>6} "
    if isinstance(result, FailedRun):
        return f"{row}  FAILED ({result.kind}): {result.error}"
    m = result.metrics
    return (f"{row}{m['app_throughput_gbps']:>10.1f} "
            f"{m['drop_rate'] * 100:>7.2f} "
            f"{m['iotlb_misses_per_packet']:>11.2f} "
            f"{m['memory_total_GBps']:>9.1f}")


def _sweep_table(results, x_key: str) -> str:
    return _table(f"{x_key:>16} {'iommu':>6} {'tput Gbps':>10} "
                  f"{'drop %':>7} {'misses/pkt':>11} {'mem GB/s':>9}",
                  [_sweep_row(result, x_key) for result in results])


def _render_sweep(spec: ScenarioSpec, table: ResultTable, *,
                  base_config: Callable[[], ExperimentConfig],
                  snapshots: Optional[list], **_) -> ScenarioResult:
    """The sweep's table, or the figure its ``panels`` draw from the
    completed runs with the failed ones tabled under it."""
    render = spec.render or RenderSpec()
    x_key = render.x or next((panel.x for panel in render.panels), "seed")
    if not _renders_figure(spec):
        return ScenarioResult(_sweep_table(table, x_key), table,
                              snapshots)
    panels: Dict[str, Tuple[str, str, List[Series]]] = {}
    rows = table.ok()
    for panel in render.panels:
        series: List[Series] = []
        for s in panel.series:
            if s.kind == "metric":
                series.append(_metric_series(rows, panel, s))
            elif s.kind == "model":
                series.append(_model_series(rows, panel, s,
                                            base_config()))
            else:
                series.append(_max_goodput_series(rows, panel, s))
        panels[panel.name] = (panel.x_label, panel.y_label, series)
    figure = FigureData(name=spec.name, title=spec.title, panels=panels,
                        table=table)
    failed = table.failures()
    report = figure.render() + (
        f"\n\n{_sweep_table(failed, x_key)}" if failed else "")
    return ScenarioResult(report, table, snapshots, figure)


def _fleet_scatter(points, title: str) -> str:
    """Fig. 1's axes: drop rate over link utilization."""
    return scatter_plot(points, title=title, x_label="link utilization",
                        y_label="drop rate")


def fleet_summary(aggregate, detail: str = "") -> str:
    """A :class:`~repro.workload.fleet_agg.FleetAggregate`'s summary
    lines and its ``D/H hosts dropping`` footer, with ``detail`` in
    parentheses after it (``repro fleet`` and ``fleet merge``)."""
    footer = f"{aggregate.droppers}/{aggregate.hosts} hosts dropping"
    return "\n".join([*aggregate.format_lines(), "",
                      f"{footer} ({detail})" if detail else footer])


def _render_fleet(spec: ScenarioSpec, aggregate, *,
                  base_config: Callable[[], ExperimentConfig],
                  elapsed: float, run_args: Mapping[str, Any],
                  **_) -> ScenarioResult:
    """Fig. 1 from a streamed
    :class:`~repro.workload.fleet_agg.FleetAggregate`, or its scatter,
    summary and footer (wall time, hosts/s, fidelity/backend).

    The scatter is the occupied density-cell midpoints (constant-size
    whatever the fleet size) and every summary note is answered by the
    aggregate — no per-host samples exist at million-host scale.  The
    ``spearman`` note is the rank correlation of the binned population
    (see :func:`repro.workload.fleet_agg.density_rank_correlation`).
    """
    if _renders_figure(spec):
        figure = FigureData(
            name=spec.name,
            title=spec.title,
            panels={},
            scatter=aggregate.scatter_points(),
            notes={
                "hosts": aggregate.hosts,
                "spearman": round(aggregate.rank_correlation(), 3),
                "hosts_with_drops": aggregate.droppers,
                "low_util_hosts_with_drops": aggregate.low_util_droppers,
                "drop_fraction_high_util": round(
                    aggregate.drop_fraction_high_util, 3),
                "drop_fraction_low_util": round(
                    aggregate.drop_fraction_low_util, 3),
            },
        )
        return ScenarioResult(figure.render(), figure=figure)
    from repro.core.cache import code_version
    from repro.workload.fleet import FleetSampler

    knobs = spec.fleet_knobs()
    fidelity = base_config().fidelity
    backend = FleetSampler(fidelity=fidelity).resolve_backend(
        knobs["backend"])
    hosts_per_s = aggregate.hosts / elapsed if elapsed > 0 else 0.0
    report = [
        _fleet_scatter(aggregate.scatter_points(),
                       "fleet drop rate vs utilization"),
        fleet_summary(aggregate, f"{elapsed:.1f}s wall, "
                                 f"{hosts_per_s:.0f} hosts/s, "
                                 f"{fidelity}/{backend}")]
    if run_args.get("checkpoint") is not None:
        report.append(f"checkpoint: {run_args['checkpoint']}")
    # FleetAggregate.from_dict ignores the extra key, so the payload
    # stays loadable by ``repro fleet merge``.
    payload = {**aggregate.to_dict(), "run_info": {
        "fidelity": fidelity, "backend": backend,
        "hosts_per_s": round(hosts_per_s, 1),
        "elapsed_s": round(elapsed, 3),
        "batch_size": knobs["batch_size"],
        "workers": run_args.get("workers"),
        "code_version": code_version(),
    }}
    return ScenarioResult("\n".join(report), payload=payload)


def _render_day(spec: ScenarioSpec, bins, **_) -> ScenarioResult:
    return ScenarioResult(_table(
        f"{'bin':>4} {'load':>5} {'antag':>6} "
        f"{'link util':>10} {'drop %':>7} {'tput Gbps':>10}",
        [f"{b.index:>4} {b.offered_load:>5.2f} {b.antagonist_cores:>6} "
         f"{b.link_utilization:>10.2f} {b.drop_rate * 100:>7.2f} "
         f"{b.app_throughput_gbps:>10.1f}" for b in bins]))


def _render_isolation(spec: ScenarioSpec, results, **_) -> ScenarioResult:
    return ScenarioResult(_table(
        f"{'case':>14} {'drop %':>7} {'victim p50':>11} "
        f"{'victim p99':>11} {'elephant p99':>13} {'tput':>6}",
        [f"{name:>14} {r.drop_rate * 100:>7.2f} {r.victim.p50:>11.1f} "
         f"{r.victim.p99:>11.1f} {r.elephant.p99:>13.1f} "
         f"{r.app_throughput_gbps:>6.1f}" for name, r in results.items()]))


#: Every ``repro scenario run`` flag that some driver does not honour.
#: ``--no-cache`` is not one: only sweeps read or write the cache, so
#: every driver already runs uncached.
RUN_FLAGS = ("--timeout-s", "--keep-failed", "--metrics-out", "--csv",
             "--out", "--workers", "--live", "--ledger", "--cache-dir")

#: driver -> (its render binding over what ``ScenarioSpec.run``
#: returns, called with the keywords ``base_config`` (building the
#: spec's base config, which a sweep's axes may be needed to complete),
#: ``snapshots``, ``elapsed`` and ``run_args``; the :data:`RUN_FLAGS`
#: it honours).
#: ``--out`` writes the figure, so it also needs a spec that renders
#: one.
_BINDINGS = {
    "sweep": (_render_sweep, RUN_FLAGS),
    "fleet": (_render_fleet, ("--out", "--workers", "--live", "--ledger")),
    "day": (_render_day, ()),
    "isolation": (_render_isolation, ()),
}


def supported_flags(spec: ScenarioSpec) -> Tuple[str, ...]:
    """The :data:`RUN_FLAGS` that running ``spec`` honours."""
    return tuple(flag for flag in _BINDINGS[spec.driver][1]
                 if flag != "--out" or _renders_figure(spec))


def run_scenario(
    spec: ScenarioSpec,
    quality: Optional[str] = None,
    *,
    base: Optional[ExperimentConfig] = None,
    fidelity: Optional[str] = None,
    snapshots: bool = False,
    **run_args,
) -> ScenarioResult:
    """Run any scenario once and render it the way its driver binds.

    A ``panels`` sweep plots its completed runs and lists the failed
    ones under the figure, a ``scatter`` fleet draws the Fig. 1
    scatter, any other fleet its scatter and summary, and every other
    spec reports its driver's table.  ``snapshots`` collects one
    metrics snapshot per sweep run; the other keywords pass to
    :meth:`ScenarioSpec.run`.
    """
    render = _BINDINGS[spec.driver][0]
    base_config = functools.partial(spec.base_config, quality, base,
                                    fidelity)
    if spec.renders_model:
        base_config()  # a bad render base fails before any point runs
    snapshots_out: Optional[list] = [] if snapshots else None
    start = time.perf_counter()
    raw = spec.run(quality, base, snapshots_out=snapshots_out,
                   fidelity=fidelity, **run_args)
    return render(spec, raw, base_config=base_config,
                  snapshots=snapshots_out,
                  elapsed=time.perf_counter() - start, run_args=run_args)


def figure_from_scenario(spec: ScenarioSpec,
                         quality: Optional[str] = None,
                         **run_args) -> FigureData:
    """Run a scenario and return the figure its ``[render]`` section
    draws; ``run_args`` are :func:`run_scenario`'s keywords."""
    figure = run_scenario(spec, quality, **run_args).figure
    if figure is None:
        raise ValueError(
            f"scenario {spec.name!r} (driver {spec.driver!r}) does "
            f"not render as a figure")
    return figure


# ---------------------------------------------------------------------------
# Figure entry points (thin wrappers over the bundled specs)
# ---------------------------------------------------------------------------

def figure1(n_hosts: int = 60, seed: int = 7,
            quality: str = "quick",
            workers: int | str | None = None,
            fidelity: Optional[str] = None) -> FigureData:
    """Fig. 1: host drop rate vs access-link utilization over a fleet.

    Returns the scatter plus summary notes: the Spearman correlation
    (positive in the paper) and the count of low-utilization hosts with
    drops (the paper's second observation).
    """
    spec = load_bundled("figure1")
    spec = dataclasses.replace(
        spec, driver_args={**spec.driver_args,
                           "n_hosts": n_hosts, "seed": seed})
    return figure_from_scenario(spec, quality=quality, workers=workers,
                                fidelity=fidelity)


def _bundled_figure(name: str, path: str, values: Sequence | None,
                    **run_args) -> FigureData:
    """Bundled figure ``name``, with axis ``path``'s grid replaced by
    ``values`` when given.  An explicit grid wins over quality
    presets, so the presets' values for that axis are dropped too."""
    spec = load_bundled(name)
    if values:
        spec = dataclasses.replace(
            spec,
            axes=tuple(dataclasses.replace(axis, values=tuple(values))
                       if axis.path == path else axis
                       for axis in spec.axes),
            quality={
                q: QualityPreset(
                    overrides=preset.overrides,
                    axis_values={k: v for k, v in
                                 preset.axis_values.items() if k != path})
                for q, preset in spec.quality.items()})
    return figure_from_scenario(spec, **run_args)


def figure3(quality: str = "quick",
            cores: Sequence[int] | None = None,
            workers: int | str | None = None,
            cache: ResultCache | None = None,
            fidelity: Optional[str] = None) -> FigureData:
    """Fig. 3: throughput / drop % / IOTLB misses vs receiver cores,
    IOMMU ON vs OFF, plus the Little's-law model line."""
    return _bundled_figure("figure3", "host.cpu.cores", cores,
                           quality=quality, workers=workers, cache=cache,
                           fidelity=fidelity)


def figure4(quality: str = "quick",
            cores: Sequence[int] | None = None,
            workers: int | str | None = None,
            cache: ResultCache | None = None,
            fidelity: Optional[str] = None) -> FigureData:
    """Fig. 4: hugepages enabled vs disabled (IOMMU always on)."""
    return _bundled_figure("figure4", "host.cpu.cores", cores,
                           quality=quality, workers=workers, cache=cache,
                           fidelity=fidelity)


def figure5(quality: str = "quick",
            region_mb: Sequence[int] = (4, 8, 12, 16),
            workers: int | str | None = None,
            cache: ResultCache | None = None,
            fidelity: Optional[str] = None) -> FigureData:
    """Fig. 5: provisioning for larger BDPs worsens IOMMU contention."""
    return _bundled_figure("figure5", "host.rx_region_bytes", region_mb,
                           quality=quality, workers=workers, cache=cache,
                           fidelity=fidelity)


def figure6(quality: str = "quick",
            antagonists: Sequence[int] | None = None,
            workers: int | str | None = None,
            cache: ResultCache | None = None,
            fidelity: Optional[str] = None) -> FigureData:
    """Fig. 6: throughput and memory bandwidth vs STREAM cores."""
    return _bundled_figure("figure6", "host.antagonist_cores",
                           antagonists, quality=quality, workers=workers,
                           cache=cache, fidelity=fidelity)
