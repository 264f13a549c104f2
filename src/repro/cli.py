"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``      — one experiment at a chosen operating point, print gauges
- ``sweep``    — sweep cores / region size / antagonists / receiver
  hosts from the paper baseline (an in-memory scenario), print a table
- ``scenario`` — list, validate, or run declarative scenario specs
  (bundled ``repro.scenarios`` or ``.toml``/``.json`` files)
- ``figure``   — ``scenario run figureN`` plus the paper-shape checks
- ``fleet``    — stream a sampled fleet (Fig. 1, an in-memory fleet
  scenario) through the constant-memory aggregate pipeline:
  ``--shards/--shard-index``, atomic ``--checkpoint``/``--resume``,
  and ``fleet merge`` to combine shard summaries (multi-machine joins)
- ``model``    — evaluate the analytical model at a grid of miss rates
- ``trace``    — run one experiment traced, export Perfetto JSON
  (``--sample-interval-us`` adds counter tracks from the telemetry
  sampler)
- ``profile``  — run one experiment under the simulation profiler
- ``cache``    — inspect or clear the on-disk result cache
- ``runs``     — list/show/tail the JSONL run ledgers written by
  ``--ledger``
- ``top``      — dashboard view of a ledger (replay, or follow a
  sweep running in another terminal)

``sweep``, ``figure``, ``fleet`` and ``scenario run`` share one
run-and-report path, :func:`repro.analysis.figures.run_scenario`,
whatever the spec's driver; ``scenario run`` first rejects each flag
the driver would not honour.  On that path ``--workers N|auto`` fans
independent runs out to worker processes (bit-identical to serial),
sweeps memoize results in the on-disk cache (``--no-cache`` /
``--cache-dir``), ``--live`` redraws a dashboard in place, and
``--ledger`` appends a durable JSONL event log (read back with
``repro runs`` / ``repro top``); ``--keep-failed`` records crashed
sweep runs as FAILED rows instead of aborting.

``run``, ``sweep`` and ``scenario run`` accept ``--metrics-out
metrics.json`` to dump the full metrics-registry snapshot (every
component counter/gauge/histogram; one per run for a sweep).

Every command prints to stdout and returns a process exit code, so the
CLI composes with shell pipelines and CI.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import (
    FIDELITIES,
    TOPOLOGIES,
    ExperimentConfig,
    baseline_config,
)
from repro.core.experiment import run_experiment
from repro.core.model import ThroughputModel
from repro.core.scenario import (
    RenderSpec,
    ScenarioError,
    ScenarioSpec,
    SweepAxis,
    apply_overrides,
)
from repro.net.routing import available as routing_names
from repro.transport.registry import available as transport_names

__all__ = ["build_parser", "main"]


def _positive_int(value: str) -> int:
    """argparse type of a count flag: an integer >= 1."""
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value!r}")
    return count


def _milliseconds(value: str, *, zero_ok: bool) -> float:
    try:
        ms = float(value)
    except ValueError:
        ms = math.nan
    if not (math.isfinite(ms) and (ms > 0 or zero_ok and ms == 0)):
        raise argparse.ArgumentTypeError(
            f"expected a number {'>= 0' if zero_ok else '> 0'} of "
            f"milliseconds, got {value!r}")
    return ms


def _duration_ms(value: str) -> float:
    """argparse type of ``--duration-ms``: a finite number > 0."""
    return _milliseconds(value, zero_ok=False)


def _warmup_ms(value: str) -> float:
    """argparse type of ``--warmup-ms``: a finite number >= 0."""
    return _milliseconds(value, zero_ok=True)


def _count_or_auto(value: str):
    """argparse type of an ``N|auto`` flag (``--workers``,
    ``--shards``): an integer >= 1 or the string ``auto``."""
    return value if value == "auto" else _positive_int(value)


def _parallel_args(parser: argparse.ArgumentParser,
                   cache_flags: bool = True) -> None:
    parser.add_argument("--workers", type=_count_or_auto, default=None,
                        metavar="N|auto",
                        help="run experiments in N worker processes "
                             "('auto' = cpu_count - 1; default serial)")
    if cache_flags:
        parser.add_argument("--no-cache", action="store_true",
                            help="disable the on-disk result cache")
        parser.add_argument("--cache-dir", default=None,
                            help="result cache directory (default "
                                 "$REPRO_CACHE_DIR or ~/.cache/repro)")


def _telemetry_args(parser: argparse.ArgumentParser,
                    keep_failed: bool = True) -> None:
    parser.add_argument("--live", action="store_true",
                        help="redraw-in-place live dashboard "
                             "(progress, workers, sketches, ETA)")
    parser.add_argument("--ledger", action="store_true",
                        help="append lifecycle events to a JSONL run "
                             "ledger (see 'repro runs')")
    parser.add_argument("--ledger-dir", default=None,
                        help="ledger directory (default "
                             "$REPRO_LEDGER_DIR or <cache dir>/ledger)")
    if keep_failed:
        parser.add_argument("--keep-failed", action="store_true",
                            help="record crashed runs as FAILED rows "
                                 "(with exception info) instead of "
                                 "aborting the sweep")


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, label: str):
    """The runner's ``events=`` sink for ``--ledger``/``--live``.

    Yields ``None`` when neither flag was given (the runner then does
    zero telemetry work); on exit it paints the dashboard's final
    frame and seals the ledger.
    """
    ledger = dashboard = None
    if getattr(args, "ledger", False):
        from repro.core.ledger import LedgerWriter

        ledger = LedgerWriter(directory=args.ledger_dir, label=label)
    if getattr(args, "live", False):
        from repro.obs.live import LiveDashboard

        dashboard = LiveDashboard()

    def sink(event: dict) -> None:
        if ledger is not None:
            ledger.append(event)
        if dashboard is not None:
            dashboard.update(event)

    ok = False
    try:
        yield sink if ledger is not None or dashboard is not None else None
        ok = True
    finally:
        if dashboard is not None:
            dashboard.close()
        if ledger is not None:
            ledger.close(ok=ok)
            print(f"ledger: {ledger.path}")


def _host_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=12,
                        help="receiver threads/cores (default 12)")
    parser.add_argument("--no-iommu", action="store_true",
                        help="disable the IOMMU (no translation)")
    parser.add_argument("--no-hugepages", action="store_true",
                        help="4 KB data mappings instead of 2 MB")
    parser.add_argument("--antagonists", type=int, default=0,
                        help="STREAM antagonist cores (default 0)")
    parser.add_argument("--region-mb", type=int, default=12,
                        help="Rx region per thread, MB (default 12)")
    parser.add_argument("--senders", type=int, default=40,
                        help="sender machines per receiver (default 40)")
    parser.add_argument("--receivers", type=int, default=1,
                        help="receiver hosts, each with its own incast "
                             "(default 1)")
    parser.add_argument("--transport", default="swift",
                        choices=tuple(transport_names()))
    parser.add_argument("--topology", default="star",
                        choices=TOPOLOGIES,
                        help="fabric between senders and hosts: the "
                             "one-hop star, a k-ary fat tree, or a "
                             "two-switch dumbbell (default star)")
    parser.add_argument("--routing", default="static",
                        choices=tuple(routing_names()),
                        help="multipath routing policy for multi-tier "
                             "fabrics (default static)")
    parser.add_argument("--fattree-k", type=int, default=4,
                        help="fat-tree arity, even (default 4)")
    parser.add_argument("--trunk-links", type=int, default=2,
                        help="dumbbell trunk link count (default 2)")


#: ``_shared_args(fidelity=...)`` default: no ``--fidelity`` flag.
_OMIT = object()


def _shared_args(parser: argparse.ArgumentParser, *,
                 sim: Optional[tuple] = (1, 5.0, 10.0),
                 fidelity=_OMIT, metrics_out: Optional[str] = None,
                 table: bool = False) -> None:
    """The flags ``run``, ``sweep``, ``scenario run`` and ``fleet``
    share.

    ``sim`` holds the ``--seed/--warmup-ms/--duration-ms`` defaults
    (None omits them: a scenario spec sets its own); ``fidelity`` is
    the ``--fidelity`` default (None defers to the spec or sampler);
    ``metrics_out`` is the ``--metrics-out`` help text; ``table`` adds
    the result-table flags ``--csv`` and ``--timeout-s``.
    """
    if sim is not None:
        seed, warmup_ms, duration_ms = sim
        parser.add_argument("--seed", type=int, default=seed)
        parser.add_argument("--warmup-ms", type=_warmup_ms,
                            default=warmup_ms)
        parser.add_argument("--duration-ms", type=_duration_ms,
                            default=duration_ms)
    if fidelity is not _OMIT:
        parser.add_argument(
            "--fidelity", default=fidelity, choices=FIDELITIES,
            help="simulation engine: packet-level kernel or rate-based "
                 "fluid solver (default "
                 f"{fidelity or 'the scenario spec, else packet'})")
    if metrics_out is not None:
        parser.add_argument("--metrics-out", help=metrics_out)
    if table:
        parser.add_argument("--csv",
                            help="also write the result table to CSV")
        parser.add_argument("--timeout-s", type=float, default=None,
                            help="per-run wall-clock budget; over-budget "
                                 "runs become FAILED rows, not aborts")


#: Each config flag's argparse dest -> (dotted config path, unit
#: conversion or None): every command that builds a config reads its
#: flags through here, each flag keeping its own default.
FLAG_PATHS = {
    "cores": ("host.cpu.cores", None),
    "no_iommu": ("host.iommu.enabled", operator.not_),
    "no_hugepages": ("host.hugepages", operator.not_),
    "antagonists": ("host.antagonist_cores", None),
    "region_mb": ("host.rx_region_bytes", lambda mb: mb * 2**20),
    "senders": ("workload.senders", None),
    "receivers": ("workload.receivers", None),
    "transport": ("transport", None),
    "topology": ("fabric.topology", None),
    "routing": ("fabric.routing", None),
    "fattree_k": ("fabric.fattree_k", None),
    "trunk_links": ("fabric.trunk_links", None),
    "fidelity": ("fidelity", None),
    "seed": ("sim.seed", None),
    "warmup_ms": ("sim.warmup", lambda ms: ms * 1e-3),
    "duration_ms": ("sim.duration", lambda ms: ms * 1e-3),
    "max_records": ("sim.trace_max_records", None),
    "sample_interval_us": ("sim.sample_interval", lambda us: us * 1e-6),
}


def _overrides(args: argparse.Namespace,
               dests: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Dotted overrides from the flags ``dests`` (default: every
    :data:`FLAG_PATHS` flag ``args`` has), in config units."""
    overrides = {}
    for dest in dests or [d for d in FLAG_PATHS if hasattr(args, d)]:
        path, convert = FLAG_PATHS[dest]
        value = getattr(args, dest)
        overrides[path] = (value if convert is None or value is None
                           else convert(value))
    return overrides


def _config(args: argparse.Namespace, *,
            base: Optional[ExperimentConfig] = None,
            trace: bool = False) -> ExperimentConfig:
    """A one-experiment command's config: ``base`` (default: the config
    defaults) with every config flag ``args`` has, and ``sim.trace``."""
    return apply_overrides(base or ExperimentConfig(),
                           {**_overrides(args), "sim.trace": trace},
                           source=f"repro {args.command}")


def _print_result(result) -> None:
    m = result.metrics
    rows = [
        ("app throughput (Gbps)", f"{m['app_throughput_gbps']:.1f}"),
        ("link utilization", f"{m['link_utilization'] * 100:.1f} %"),
        ("drop rate", f"{m['drop_rate'] * 100:.2f} %"),
        ("IOTLB misses/packet", f"{m['iotlb_misses_per_packet']:.2f}"),
        ("mean DMA latency (us)", f"{m['mean_dma_latency_us']:.2f}"),
        ("mean NIC delay (us)", f"{m['mean_nic_delay_us']:.1f}"),
        ("memory bandwidth (GB/s)", f"{m['memory_total_GBps']:.1f}"),
        ("memory utilization", f"{m['memory_utilization']:.2f}"),
        ("retransmissions", f"{m['retransmissions']:.0f}"),
        ("read p99 latency (us)",
         f"{result.message_latency_us['p99']:.1f}"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}} : {value}")


def _write_metrics(path: str, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=1))
    print(f"wrote metrics snapshot to {path}")


def cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    print(f"running: {config.describe()}")
    handles: list = []
    result = run_experiment(config, handle_out=handles)
    _print_result(result)
    # The fluid handle has no packet topology; its hosts are symmetric
    # by construction, so there is no per-host detail to print.
    topology = getattr(handles[0], "topology", None)
    if topology is not None and topology.n_receivers > 1:
        print("\nper-host:")
        for i, host in enumerate(topology.hosts):
            snap = host.snapshot()
            print(f"  host{i}: "
                  f"tput {snap['app_throughput_gbps']:.1f} Gbps, "
                  f"drops {snap['drop_rate'] * 100:.2f} %, "
                  f"misses/pkt {snap['iotlb_misses_per_packet']:.2f}")
    if args.metrics_out:
        _write_metrics(args.metrics_out, handles[0].metrics_snapshot())
    return 0


#: ``repro sweep <axis>``: the swept config path, its unit scale, the
#: IOMMU states iterated outside it (empty: no IOMMU axis), and the
#: table's x column.  The IOMMU order is each paper figure's loop order,
#: which fixes the row order of the table and CSV.
SWEEP_AXES = {
    "cores": ("host.cpu.cores", 1, (True, False), "cores"),
    "region": ("host.rx_region_bytes", 2**20, (True, False),
               "rx_region_mb"),
    "antagonists": ("host.antagonist_cores", 1, (False, True),
                    "antagonist_cores"),
    "receivers": ("workload.receivers", 1, (), "receivers"),
}


def _sweep_spec(args: argparse.Namespace) -> ScenarioSpec:
    """``repro sweep``'s in-memory scenario: the chosen axis over the
    paper baseline (the config defaults)."""
    path, scale, iommu_states, x_key = SWEEP_AXES[args.axis]
    axes = (SweepAxis(path, tuple(args.values), scale=scale),)
    if iommu_states:
        axes = (SweepAxis("host.iommu.enabled", iommu_states),) + axes
    return ScenarioSpec(name=f"sweep-{args.axis}", axes=axes,
                        base=_overrides(args, ("warmup_ms", "duration_ms",
                                              "seed")),
                        render=RenderSpec(style="table", x=x_key),
                        source=f"<sweep {args.axis}>")


def sweep_configs(args: argparse.Namespace) -> List[ExperimentConfig]:
    """The configs ``repro sweep`` runs."""
    return _sweep_spec(args).expand(fidelity=args.fidelity)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec(args)
    return _run_scenario(spec, args, label=spec.name)


def _scenario_specs(args: argparse.Namespace):
    from repro.core.scenario import bundled_scenarios, load_scenario_dir

    if getattr(args, "dir", None):
        return load_scenario_dir(args.dir)
    return bundled_scenarios()


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.core.scenario import find_scenario

    if args.scenario_command == "list":
        specs = _scenario_specs(args)
        width = max(len(name) for name in specs)
        tags = {name: f"{spec.driver}/{spec.fidelity}"
                for name, spec in specs.items()}
        tag_width = max(len(tag) for tag in tags.values())
        for name, spec in sorted(specs.items()):
            print(f"{name:<{width}}  [{tags[name]:<{tag_width}}]  "
                  f"{spec.title}")
        return 0

    if args.scenario_command == "validate":
        known = _scenario_specs(args)
        targets = args.names or sorted(known)
        failures = 0
        for target in targets:
            try:
                spec = (known[target] if target in known
                        else find_scenario(target))
                summary = spec.validate()
            except ScenarioError as exc:
                print(f"FAIL {target}: {exc}")
                failures += 1
                continue
            print(f"OK   {spec.name} ({spec.source}): {summary}")
        return 1 if failures else 0

    # run
    spec = find_scenario(args.name)
    print(f"scenario {spec.name} ({spec.source}): driver "
          f"{spec.driver}, fidelity {args.fidelity or spec.fidelity}"
          + (f", quality {args.quality}" if args.quality else ""))
    return _run_scenario(spec, args, label=f"scenario-{spec.name}",
                         quality=args.quality)


def _check_flags(spec, args: argparse.Namespace) -> None:
    """Reject, before anything runs, each flag given that the
    scenario's driver would not honour."""
    from repro.analysis.figures import RUN_FLAGS, supported_flags

    supported = supported_flags(spec)
    for flag in RUN_FLAGS:
        given = getattr(args, flag[2:].replace("-", "_"), None)
        if given not in (None, False) and flag not in supported:
            raise ScenarioError(
                f"{flag} is not supported by the {spec.driver} driver "
                f"(scenario {spec.name!r})")


def _run_scenario(spec, args: argparse.Namespace, *, label: str,
                  quality: Optional[str] = None,
                  checks: bool = False, **stream_args) -> int:
    """Run ``spec`` once with the run flags in ``args`` (and a fleet
    with ``stream_args``), print its report (and, with ``checks``, its
    paper-shape checks), then write the output files asked for."""
    from repro.analysis.figures import run_scenario
    from repro.core.cache import ResultCache

    _check_flags(spec, args)
    cache = (None if getattr(args, "no_cache", False)
             else ResultCache(getattr(args, "cache_dir", None)))
    with _telemetry(args, label=label) as sink:
        result = run_scenario(
            spec, quality, fidelity=getattr(args, "fidelity", None),
            workers=args.workers, cache=cache,
            timeout=getattr(args, "timeout_s", None), events=sink,
            failures=("keep" if getattr(args, "keep_failed", False)
                      else "raise"),
            snapshots=bool(getattr(args, "metrics_out", None)),
            **stream_args)
    print(result.report)
    if cache is not None and cache.hits:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es)")
    status = 0
    if checks:
        from repro.analysis.compare import check_figure

        findings = check_figure(result.figure)
        print()
        for finding in findings:
            print(finding)
        status = 0 if all(f.passed for f in findings) else 1
    if getattr(args, "out", None):
        paths = result.figure.to_csv_dir(args.out)
        print(f"wrote {len(paths)} CSV files to {args.out}")
    if getattr(args, "csv", None):
        result.table.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if getattr(args, "metrics_out", None):
        _write_metrics(args.metrics_out, result.snapshots)
    if getattr(args, "json_out", None):
        Path(args.json_out).write_text(json.dumps(result.payload))
        print(f"aggregate: {args.json_out}")
    return status


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.core.scenario import load_bundled

    spec = load_bundled(f"figure{args.number}")
    if args.number == "1":
        spec = dataclasses.replace(
            spec, driver_args={**spec.driver_args, "n_hosts": args.hosts})
    return _run_scenario(spec, args, label=f"figure-{args.number}",
                         quality=args.quality, checks=True)


#: ``--shards auto``: one shard (checkpoint granule) per this many
#: hosts — small enough that a resumed run loses minutes, not hours.
_HOSTS_PER_SHARD = 32768


def _fleet_checkpoint_path(args: argparse.Namespace) -> Optional[str]:
    """Resolve ``--checkpoint [PATH]`` / ``--resume`` to a path.

    Bare ``--checkpoint`` (or ``--resume`` alone) derives a
    deterministic per-population file next to the run ledger, so a
    crashed invocation resumes with the same flags plus ``--resume``.
    """
    if args.checkpoint or (args.checkpoint is None and not args.resume):
        return args.checkpoint
    from repro.core.ledger import default_ledger_dir

    name = (f"fleet-seed{args.seed}-hosts{args.hosts}"
            f"-{args.fidelity or 'packet'}.ckpt.json")
    return str(Path(default_ledger_dir()) / name)


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.workload.fleet_agg import shard_bounds

    shards = len(shard_bounds(args.hosts, args.shards if args.shards != "auto"
                              else -(-args.hosts // _HOSTS_PER_SHARD)))
    spec = ScenarioSpec(
        name="fleet", driver="fleet",
        base=_overrides(args, ("warmup_ms", "duration_ms")),
        driver_args={"n_hosts": args.hosts, "seed": args.seed,
                     "shards": shards, "backend": args.backend,
                     "batch_size": args.batch_size},
        source="<fleet>")
    sampler, _ = spec.fleet_sampler(fidelity=args.fidelity)
    try:
        sampler.resolve_backend(args.backend)
    except ValueError as exc:
        print(f"error: --backend {args.backend}: {exc}")
        return 1
    for flag, shard in (("--shard-index", args.shard_index),
                        ("--stop-after-shard", args.stop_after_shard)):
        if shard is not None and not 0 <= shard < shards:
            print(f"error: {flag} {shard} out of range for {shards} "
                  f"shard(s)")
            return 1
    return _run_scenario(
        spec, args, label="fleet", shard_index=args.shard_index,
        checkpoint=_fleet_checkpoint_path(args), resume=args.resume,
        checkpoint_every=args.checkpoint_every,
        stop_after_shard=args.stop_after_shard)


def cmd_fleet_merge(args: argparse.Namespace) -> int:
    """Merge shard aggregates (``--json-out`` files and/or checkpoint
    files) into one fleet summary — the multi-machine join step."""
    from repro.analysis.figures import fleet_summary
    from repro.workload.fleet_agg import FleetAggregate, FleetCheckpoint

    merged: Optional[FleetAggregate] = None
    for path in args.inputs:
        try:
            state = json.loads(Path(path).read_text())
            if "shards" in state and "meta" in state:
                part = FleetCheckpoint.load(path).merged()
            else:
                part = FleetAggregate.from_dict(state)
        except OSError as exc:
            print(f"error: {path}: {exc.strerror}")
            return 1
        except (ValueError, KeyError, TypeError) as exc:
            print(f"error: {path}: not a fleet aggregate or checkpoint "
                  f"({type(exc).__name__}: {exc})")
            return 1
        merged = part if merged is None else merged.merge(part)
    assert merged is not None  # argparse enforces >= 1 input
    print(f"merged {len(args.inputs)} shard summaries:")
    print(fleet_summary(merged))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(merged.to_dict()))
        print(f"aggregate: {args.json_out}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.experiment import ExperimentHandle
    from repro.obs.perfetto import write_trace

    config = _config(args, trace=True)
    print(f"tracing: {config.describe()}")
    handle = ExperimentHandle(config)
    if not args.include_warmup:
        # Trace only the measurement window: the flight recorder then
        # holds the steady state the Swift blind-spot lives in.
        handle.tracer.enabled = False
        handle.run_warmup()
        handle.tracer.enabled = True
    handle.run_measurement()
    tracer = handle.tracer
    samples = handle.telemetry_samples()
    path = write_trace(args.out, tracer, counter_samples=samples)
    by_component: dict = {}
    for record in tracer.records:
        by_component[record.component] = (
            by_component.get(record.component, 0) + 1)
    print(f"kept {len(tracer)} records "
          f"({tracer.dropped} evicted, {tracer.open_spans} spans open)")
    if samples:
        tracks = len({sample.name for sample in samples})
        print(f"counter tracks: {tracks} metrics × "
              f"{handle.sampler.ticks} ticks "
              f"({len(samples)} samples)")
    for component, count in sorted(by_component.items(),
                                   key=lambda kv: -kv[1]):
        print(f"  {component:<12} {count}")
    print(f"wrote {path} — open it at https://ui.perfetto.dev")
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.core.ledger import (
        iter_run,
        list_runs,
        resolve_run,
        summarize_run,
    )

    if args.runs_command == "list":
        runs = list_runs(args.ledger_dir)
        if not runs:
            print("no ledgers recorded (run a sweep with --ledger)")
            return 0
        width = max(len(info.run_id) for info in runs)
        for info in runs:
            state = "done" if info.finished else "in progress"
            print(f"{info.run_id:<{width}}  {info.rows:>5} rows  "
                  f"[{state}]")
        return 0

    try:
        path = resolve_run(args.run, args.ledger_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 1

    if args.runs_command == "tail":
        for event in list(iter_run(path))[-args.lines:]:
            print(json.dumps(event, separators=(",", ":")))
        return 0

    # show: the summary reconstructed from the ledger alone.
    aggregate = summarize_run(path)
    for line in aggregate.format_lines():
        print(line)
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(aggregate.to_dict(), indent=1))
        print(f"wrote aggregate to {args.json_out}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Replay (or follow) a ledger through the live dashboard."""
    import time as _time

    from repro.core.ledger import iter_run, resolve_run
    from repro.obs.live import LiveDashboard

    try:
        path = resolve_run(args.run, args.ledger_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    dashboard = LiveDashboard()
    if args.once:
        for event in iter_run(path):
            dashboard.aggregate.fold(event)
        dashboard.close()
        return 0
    # Follow mode: poll the file for appended rows until the `end` row
    # lands (or Ctrl-C).
    position = 0
    try:
        while True:
            with open(path) as fh:
                fh.seek(position)
                chunk = fh.read()
                position = fh.tell()
            for line in chunk.splitlines():
                line = line.strip()
                if line:
                    dashboard.update(json.loads(line))
            if dashboard.aggregate.ended:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    dashboard.close()
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.experiment import ExperimentHandle
    from repro.obs.profiler import SimProfiler

    config = _config(args)
    print(f"profiling: {config.describe()}")
    handle = ExperimentHandle(config)
    profiler = SimProfiler(handle.sim)
    if not args.include_warmup:
        handle.run_warmup()
    with profiler:
        handle.run_measurement()
    print(profiler.format_report())
    if args.out:
        Path(args.out).write_text(json.dumps(profiler.report(), indent=1))
        print(f"wrote profiler report to {args.out}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        print(f"cache dir : {stats.path}")
        print(f"entries   : {stats.entries}")
        print(f"size      : {stats.total_bytes / 1024:.1f} KiB")
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    config = _config(args, base=baseline_config())
    model = ThroughputModel(config)
    print(f"{'misses/pkt':>11} {'bound (Gbps)':>13}")
    for misses_x10 in range(0, 61, 5):
        misses = misses_x10 / 10
        bound = model.predict(misses,
                              memory_utilization=args.memory_util)
        print(f"{misses:>11.1f} {bound / 1e9:>13.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Host interconnect congestion simulator "
                    "(HotNets '22 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _host_args(p_run)
    _shared_args(p_run, fidelity="packet",
                 metrics_out="write the full metrics snapshot as JSON")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis")
    p_sweep.add_argument("axis", choices=tuple(SWEEP_AXES))
    p_sweep.add_argument("values", type=int, nargs="+")
    _shared_args(p_sweep, fidelity="packet", table=True,
                 metrics_out="write per-run metrics snapshots as JSON")
    _parallel_args(p_sweep)
    _telemetry_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_scen = sub.add_parser(
        "scenario",
        help="list, validate, or run declarative scenario specs")
    scen_sub = p_scen.add_subparsers(dest="scenario_command",
                                     required=True)
    p_scen_list = scen_sub.add_parser(
        "list", help="list bundled (or --dir) scenarios")
    p_scen_list.add_argument("--dir", default=None,
                             help="list specs in a directory instead "
                                  "of the bundled ones")
    p_scen_list.set_defaults(func=cmd_scenario)
    p_scen_val = scen_sub.add_parser(
        "validate", help="validate spec files or bundled scenarios")
    p_scen_val.add_argument("names", nargs="*",
                            help="scenario names or spec paths "
                                 "(default: every bundled spec)")
    p_scen_val.add_argument("--dir", default=None,
                            help="validate every spec in a directory")
    p_scen_val.set_defaults(func=cmd_scenario)
    p_scen_run = scen_sub.add_parser(
        "run", help="run a scenario by name or spec path")
    p_scen_run.add_argument("name",
                            help="bundled scenario name or path to a "
                                 ".toml/.json spec")
    p_scen_run.add_argument("--quality", default=None,
                            help="quality preset (default: the spec's "
                                 "default_quality)")
    p_scen_run.add_argument("--out",
                            help="directory for rendered-figure CSVs")
    _shared_args(p_scen_run, sim=None, fidelity=None, table=True,
                 metrics_out="write per-run metrics snapshots as JSON "
                             "(sweep drivers)")
    _parallel_args(p_scen_run)
    _telemetry_args(p_scen_run)
    p_scen_run.set_defaults(func=cmd_scenario)

    p_trace = sub.add_parser(
        "trace", help="run one traced experiment, export Perfetto JSON")
    _host_args(p_trace)
    _shared_args(p_trace)
    p_trace.add_argument("--out", default="trace.json",
                         help="trace-event JSON path (default trace.json)")
    p_trace.add_argument("--max-records", type=int, default=1_000_000,
                         help="flight-recorder capacity")
    p_trace.add_argument("--include-warmup", action="store_true",
                         help="also trace the warmup window")
    p_trace.add_argument("--sample-interval-us", type=float, default=None,
                         help="also sample every counter/gauge at this "
                              "sim-time cadence and export them as "
                              "Perfetto counter tracks")
    p_trace.set_defaults(func=cmd_trace)

    p_prof = sub.add_parser(
        "profile", help="run one experiment under the simulation profiler")
    _host_args(p_prof)
    _shared_args(p_prof)
    p_prof.add_argument("--out", help="also write the report as JSON")
    p_prof.add_argument("--include-warmup", action="store_true",
                        help="profile the warmup window too")
    p_prof.set_defaults(func=cmd_profile)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", choices=("1", "3", "4", "5", "6"))
    p_fig.add_argument("--quality", default="quick",
                       choices=("quick", "full"))
    p_fig.add_argument("--hosts", type=_positive_int, default=60,
                       help="fleet size for figure 1")
    p_fig.add_argument("--out", help="directory for CSV export")
    _parallel_args(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_fleet = sub.add_parser(
        "fleet", help="stream a sampled fleet (Fig. 1)")
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command")
    p_fleet_merge = fleet_sub.add_parser(
        "merge", help="merge shard aggregates / checkpoints")
    p_fleet_merge.add_argument(
        "inputs", nargs="+",
        help="aggregate JSON (--json-out) or checkpoint files")
    p_fleet_merge.add_argument("--json-out", default=None,
                               help="write the merged aggregate JSON")
    p_fleet_merge.set_defaults(func=cmd_fleet_merge)
    p_fleet.add_argument("--hosts", type=_positive_int, default=30)
    _shared_args(p_fleet, sim=(7, 3.0, 6.0), fidelity=None)
    p_fleet.add_argument("--backend", default="auto",
                         choices=("auto", "batched", "scalar"),
                         help="fleet execution backend (auto = "
                              "one numpy lane per host for fluid "
                              "fleets, scalar otherwise)")
    p_fleet.add_argument("--batch-size", type=_positive_int,
                         default=4096,
                         metavar="N",
                         help="hosts per batched solver chunk "
                              "(default 4096)")
    p_fleet.add_argument("--shards", type=_count_or_auto, default=1,
                         metavar="N|auto",
                         help="checkpoint granules ('auto' = one per "
                              f"{_HOSTS_PER_SHARD} hosts)")
    p_fleet.add_argument("--shard-index", type=int, default=None,
                         metavar="K",
                         help="run only shard K (multi-machine: merge "
                              "the per-shard outputs afterwards)")
    p_fleet.add_argument("--checkpoint", nargs="?", const="",
                         default=None, metavar="PATH",
                         help="checkpoint progress atomically (bare "
                              "flag: derived path under the ledger "
                              "dir)")
    p_fleet.add_argument("--resume", action="store_true",
                         help="resume from the checkpoint instead of "
                              "starting over")
    p_fleet.add_argument("--checkpoint-every", type=_positive_int,
                         default=2000,
                         metavar="N",
                         help="hosts between checkpoint saves "
                              "(default 2000)")
    p_fleet.add_argument("--stop-after-shard", type=int, default=None,
                         metavar="K",
                         help="exit after shard K completes "
                              "(deterministic kill stand-in for tests)")
    p_fleet.add_argument("--json-out", default=None,
                         help="write the merged aggregate JSON")
    _parallel_args(p_fleet, cache_flags=False)
    _telemetry_args(p_fleet, keep_failed=False)
    p_fleet.set_defaults(func=cmd_fleet)

    p_runs = sub.add_parser(
        "runs", help="inspect the JSONL run ledgers")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser("list", help="list recorded runs")
    p_runs_list.add_argument("--ledger-dir", default=None)
    p_runs_list.set_defaults(func=cmd_runs)
    p_runs_show = runs_sub.add_parser(
        "show", help="summarize one run from its ledger alone")
    p_runs_show.add_argument("run", nargs="?", default="latest",
                             help="run id, unique prefix, path, or "
                                  "'latest' (default)")
    p_runs_show.add_argument("--ledger-dir", default=None)
    p_runs_show.add_argument("--json-out", default=None,
                             help="also write the mergeable aggregate "
                                  "as JSON")
    p_runs_show.set_defaults(func=cmd_runs)
    p_runs_tail = runs_sub.add_parser(
        "tail", help="print the last rows of a run's ledger")
    p_runs_tail.add_argument("run", nargs="?", default="latest")
    p_runs_tail.add_argument("-n", "--lines", type=int, default=10)
    p_runs_tail.add_argument("--ledger-dir", default=None)
    p_runs_tail.set_defaults(func=cmd_runs)

    p_top = sub.add_parser(
        "top", help="dashboard view of a ledger (replay or follow)")
    p_top.add_argument("run", nargs="?", default="latest")
    p_top.add_argument("--ledger-dir", default=None)
    p_top.add_argument("--once", action="store_true",
                       help="render the current state once and exit")
    p_top.add_argument("--interval", type=float, default=0.5,
                       help="follow-mode poll interval, seconds")
    p_top.set_defaults(func=cmd_top)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache")
    p_cache.add_argument("cache_command", choices=("stats", "clear"))
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache directory (default $REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    p_cache.set_defaults(func=cmd_cache)

    p_model = sub.add_parser("model",
                             help="evaluate the analytical bound")
    p_model.add_argument("--cores", type=int, default=16)
    p_model.add_argument("--memory-util", type=float, default=0.15)
    p_model.set_defaults(func=cmd_model)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}")
        return 1
    except BrokenPipeError:
        # ``repro runs tail | head`` closes stdout mid-print; exit
        # quietly like other unix tools.  Redirect the dangling fd so
        # the interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
