"""One benchmark workload, run in this process.

Started by ``perfbench/run.py`` in a fresh interpreter, in one of two
roles:

- ``--role setup`` times the set-up a user pays before the first config
  runs (imports, spec load and expansion, the first graph or solver
  build) and exits;
- ``--role measure`` runs whole passes over the workload for
  ``--seconds`` (at least ``MIN_PASSES``), checks every output, and, with
  ``--trace 1``, alternates untraced and traced passes to split the
  traced passes' time by layer.

Either way it prints one JSON object as its last line of stdout.  The
workload is a closed loop of one caller: each pass calls ``repro``'s
public entry points serially (``workers=1``, no result cache) and the
next pass starts when the previous one returns.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Mapping, Optional, Tuple  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported repro from {repro.__file__}, "
             f"not from {SRC}")

from repro.core.config import ExperimentConfig  # noqa: E402
from repro.core.results import FailedRun  # noqa: E402
from repro.core.scenario import (  # noqa: E402
    QualityPreset,
    ScenarioSpec,
    apply_overrides,
    load_bundled,
    run_configs,
)

#: A run measures at least this many passes, however long they take.
MIN_PASSES = 3
#: Per-config wall-clock limit; a config that exceeds it is a failed op.
OP_TIMEOUT_S = 60.0
#: Simulated time of one packet-fidelity config: a quarter of the
#: bundled ``quick`` preset (4 ms warmup + 8 ms measured), so one whole
#: sweep is a pass of a few seconds and a run holds several passes.  The
#: paper-shape checks still pass at this length (record_reference.py).
PACKET_TIME = {"sim.warmup": 1e-3, "sim.duration": 2e-3}
#: The self-test's sizes.
TINY_TIME = {"sim.warmup": 2e-4, "sim.duration": 3e-4}

#: Machine-speed probe.  Other tenants of a shared host slow a run by
#: 10-80% for seconds to minutes at a time.  A fixed pure-Python
#: loop that uses nothing from ``repro`` (no change to the simulator can
#: move it) is timed between ops, at most every ``PROBE_EVERY_S``, while
#: a pass runs; the pass time is scaled by ``PROBE_REF_S`` over the
#: median probe, which is the probe's time on the machine the benchmark
#: was defined on (Intel Xeon, 2 vCPUs, Python 3.11).  Timed metrics are
#: thus seconds at that machine's speed: on it, scaling cut the spread
#: of a pass over three minutes from 11-12% to under 5%.  Raw times stay
#: in the run record.
PROBE_REF_S = 1.5e-3
PROBE_STEPS = 2000
PROBE_EVERY_S = 0.1

#: Result columns whose digests pin a sweep's simulated outcome.  Fixed,
#: so a change that only adds columns keeps the reference valid.
HEADLINE = ("app_throughput_gbps", "drop_rate", "fabric_drop_rate",
            "iotlb_misses_per_packet", "packets_sent", "retransmissions")
LATENCY = ("p50", "p99")


def digest(values) -> str:
    """SHA-256 of a JSON-able value; floats serialize exactly."""
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class _Flow:
    __slots__ = ("count", "total", "recent")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.recent: List[float] = []


def probe_s() -> float:
    """One timing of the speed probe: a heap of timed entries, each
    pop updating a small object and pushing the entry's next time."""
    rng = random.Random(1)
    heap = [[rng.random(), i, _Flow()] for i in range(64)]
    heapq.heapify(heap)
    start = time.perf_counter()
    for _ in range(PROBE_STEPS):
        when, i, flow = heapq.heappop(heap)
        flow.count += 1
        flow.total += when * 0.5
        flow.recent.append(when)
        if len(flow.recent) > 8:
            flow.recent.pop(0)
        heapq.heappush(heap, [when + rng.expovariate(1.0), i, flow])
    return time.perf_counter() - start


class SpeedProbe:
    """Probe timings taken between the ops of one pass."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = time.perf_counter()

    def tick(self, *_) -> None:
        """Progress callback: probe if ``PROBE_EVERY_S`` has passed."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def sample(self) -> None:
        self.samples.append(probe_s())
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor from the current machine speed to the reference's."""
        return PROBE_REF_S / statistics.median(self.samples)


def seeded(seed: int) -> ExperimentConfig:
    """The base config of every sweep: defaults with ``sim.seed``."""
    return apply_overrides(ExperimentConfig(), {"sim.seed": seed})


def row_problems(config: ExperimentConfig, row) -> List[str]:
    """Invariants every sweep row must hold, as ``column: reason``."""
    if isinstance(row, FailedRun):
        return [f"run: {row.kind} ({row.error})"]
    problems = []
    values = dict(row.metrics)
    values.update({f"latency_{k}_us": v
                   for k, v in row.message_latency_us.items()})
    for column, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{column}: not finite ({value})")
    for column in ("drop_rate", "fabric_drop_rate"):
        if not 0.0 <= values[column] <= 1.0:
            problems.append(f"{column}: {values[column]} outside [0, 1]")
    capacity = config.link.rate_bps / 1e9 * config.workload.receivers
    if values["app_throughput_gbps"] > capacity:
        problems.append(f"app_throughput_gbps: "
                        f"{values['app_throughput_gbps']} > link rate "
                        f"x receivers ({capacity})")
    return problems


@dataclasses.dataclass
class Check:
    """The verdict on one pass."""

    attempted: int
    failed: int
    errors: List[str]
    #: column (or aggregate key) -> digest of its values.
    digests: Dict[str, str]


@dataclasses.dataclass(frozen=True)
class Sweep:
    """Bundled sweep specs run as one ``run_configs`` call per pass."""

    name: str
    specs: Tuple[str, ...]
    quality: str
    fidelity: str
    #: Dotted overrides folded into the quality preset of every spec.
    overrides: Mapping[str, float] = dataclasses.field(
        default_factory=dict)
    repeats: int = 1
    #: Keep only the first ``limit`` configs of each spec (self-test).
    limit: Optional[int] = None

    def spec(self, name: str) -> ScenarioSpec:
        spec = load_bundled(name)
        preset = spec.quality[self.quality]
        preset = QualityPreset(
            overrides={**preset.overrides, **self.overrides},
            axis_values=preset.axis_values)
        return dataclasses.replace(
            spec, repeats=self.repeats,
            quality={**spec.quality, self.quality: preset})

    def prepare(self, seed: int) -> list:
        base = seeded(seed)
        configs = []
        for name in self.specs:
            expanded = self.spec(name).expand(self.quality, base=base,
                                              fidelity=self.fidelity)
            configs += expanded[:self.limit]
        return configs

    def first_build(self, configs: list) -> None:
        if self.fidelity == "fluid":
            from repro.core.fluid import FluidExperiment as Handle
        else:
            from repro.core.experiment import ExperimentHandle as Handle
        Handle(configs[0])

    def ops(self, configs: list) -> int:
        return len(configs)

    def run(self, configs: list, tick=None):
        return run_configs(configs, workers=1, cache=None,
                           failures="keep", timeout=OP_TIMEOUT_S,
                           progress=tick)

    def check(self, configs: list, table) -> Check:
        errors = []
        failed = abs(len(configs) - len(table))
        if failed:
            errors.append(f"{self.name}: {len(table)} rows for "
                          f"{len(configs)} configs")
        for config, row in zip(configs, table):
            problems = row_problems(config, row)
            if problems:
                failed += 1
                errors += [f"{self.name}: {config.describe()} {problem}"
                           for problem in problems]
        digests = {
            column: digest([row.metrics.get(column) for row in table])
            for column in HEADLINE}
        digests.update({
            f"latency_{key}_us":
                digest([row.message_latency_us.get(key) for row in table])
            for key in LATENCY})
        return Check(len(configs), failed, errors, digests)


@dataclasses.dataclass(frozen=True)
class Fleet:
    """The bundled ``figure1`` fleet, batched fluid backend."""

    name: str
    n_hosts: int
    batch_size: int
    quality: str = "quick"

    def prepare(self, seed: int) -> ScenarioSpec:
        spec = load_bundled("figure1")
        return dataclasses.replace(
            spec, driver_args={**spec.driver_args, "seed": seed})

    def first_build(self, spec: ScenarioSpec) -> None:
        from repro.sim.fluid_batch import BatchFluidSolver
        from repro.workload.fleet import group_cohorts

        sampler, _ = spec.fleet_sampler(self.quality, fidelity="fluid")
        configs = {i: sampler.draw_config(i)
                   for i in range(min(self.batch_size, self.n_hosts))}
        first = next(iter(group_cohorts(configs.items()).values()))
        BatchFluidSolver([configs[i] for i in first])

    def ops(self, spec: ScenarioSpec) -> int:
        return self.n_hosts

    def run(self, spec: ScenarioSpec, tick=None):
        return spec.run_fleet_aggregate(
            self.quality, fidelity="fluid", n_hosts=self.n_hosts,
            workers=1, backend="batched", batch_size=self.batch_size,
            progress=tick)

    def check(self, spec: ScenarioSpec, aggregate) -> Check:
        errors = []
        missing = self.n_hosts - aggregate.hosts - aggregate.failed
        failed = aggregate.failed + abs(missing)
        if failed:
            errors.append(f"{self.name}: seed "
                          f"{spec.driver_args['seed']}: hosts "
                          f"{aggregate.hosts} of {self.n_hosts}, "
                          f"failed {aggregate.failed}")
        digests = {key: digest(value)
                   for key, value in aggregate.to_dict().items()}
        return Check(self.n_hosts, failed, errors, digests)


WORKLOADS = {
    "fig3-packet": Sweep("fig3-packet", ("figure3",), "quick", "packet",
                         PACKET_TIME),
    "fabric-packet": Sweep("fabric-packet", ("incast", "dumbbell"),
                           "quick", "packet", PACKET_TIME),
    "fluid-sweep": Sweep("fluid-sweep", ("figure3", "incast", "dumbbell"),
                         "full", "fluid", repeats=16),
    "fleet-batched": Fleet("fleet-batched", n_hosts=16384,
                           batch_size=4096),
}


def workload(name: str, tiny: bool = False):
    """The named workload, or its self-test size when ``tiny``."""
    chosen = WORKLOADS[name]
    if not tiny:
        return chosen
    if isinstance(chosen, Fleet):
        return dataclasses.replace(chosen, n_hosts=64, batch_size=32)
    overrides = TINY_TIME if chosen.fidelity == "packet" else {}
    return dataclasses.replace(chosen, overrides=overrides, repeats=1,
                               limit=2)


# -- traced runs ------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced: int, walls: Dict[bool, List[float]],
              expand_s: float, columns: Dict[str, float]
              ) -> Dict[str, float]:
    """Per-layer metrics of the traced passes, per pass."""
    self_s = tracer.self_by_layer()

    def per_pass(layer: str) -> float:
        return self_s.get(layer, 0.0) / traced

    packets = tracer.calls("Nic.receive")
    events = tracer.events()
    enqueues = tracer.calls("SwitchPort.enqueue")
    sends = (tracer.calls("Fabric.send_packet")
             + tracer.calls("MultiTierFabric.send_packet"))
    selects = sum(tracer.calls(f"{cls}.select") for cls in
                  ("StaticRouting", "EcmpRouting", "FlowletRouting"))
    steps = tracer.delta("FluidSolver.run_until")
    host_steps = tracer.delta("BatchFluidSolver.run_until")
    metrics = {f"{layer}.self_s": per_pass(layer) for layer in (
        "sim.engine", "net.fabric", "net.switch", "net.routing",
        "net.link", "host.nic", "host.iommu", "host.pcie", "host.memory",
        "host.cpu", "transport.conn", "transport.cc", "sim.fluid",
        "sim.fluid_batch", "workload.fleet", "workload.fleet_agg",
        "workload.remote_read", "core.build", "core.parallel",
        "obs.metrics")}
    metrics.update({
        "sim.engine.events": events / traced,
        "sim.engine.events_per_pkt": _ratio(events, packets),
        "net.switch.enqueues": enqueues / traced,
        "net.routing.selects": selects / traced,
        "net.hops_per_pkt": _ratio(enqueues, sends),
        "net.switch.drops": tracer.delta("SwitchPort.enqueue") / traced,
        "host.nic.drops": tracer.delta("Nic.receive") / traced,
        "host.iommu.misses_per_pkt": columns["iotlb_misses_per_packet"],
        "transport.retransmissions": columns["retransmissions"],
        "sim.fluid.steps": steps / traced,
        "sim.fluid.us_per_step": _ratio(
            tracer.self_s("FluidSolver.run_until"), steps) * 1e6,
        "sim.fluid_batch.ns_per_host_step": _ratio(
            tracer.self_s("BatchFluidSolver.run_until"), host_steps) * 1e9,
        "core.fluid.collect_s": per_pass("core.fluid"),
        "core.scenario.expand_s": expand_s,
        "trace.overhead_x": _ratio(statistics.median(walls[True]),
                                   statistics.median(walls[False])),
    })
    return metrics


def _column_totals(outcome) -> Dict[str, float]:
    """Sum of retransmissions and mean IOTLB misses of a sweep pass
    (zero for the fleet, whose aggregate has no such columns).  Every
    pass of a run computes the same rows, so one pass stands for all."""
    rows = [row for row in getattr(outcome, "results", [])
            if not isinstance(row, FailedRun)]
    return {
        "retransmissions": sum(r.metrics["retransmissions"]
                               for r in rows),
        "iotlb_misses_per_packet": _ratio(
            sum(r.metrics["iotlb_misses_per_packet"] for r in rows),
            len(rows)),
    }


# -- entry point ------------------------------------------------------------

def measure(bench, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` have elapsed; check each one."""
    tracer = None
    if trace:
        from layers import LayerTracer
        tracer = LayerTracer()

    start = time.perf_counter()
    state = bench.prepare(seed)
    expand_s = time.perf_counter() - start

    walls: Dict[bool, List[float]] = {False: [], True: []}
    scales: List[float] = []
    attempted = failed = 0
    errors: List[str] = []
    pass_digests: List[Dict[str, str]] = []
    begin = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced passes, starting
        # untraced, so both see the same warm state on average.
        traced = trace and len(pass_digests) % 2 == 1
        if traced:
            tracer.install()
        run = tracer.root(bench.run) if traced else bench.run
        probe = SpeedProbe()
        start = time.perf_counter()
        outcome = run(state, None if traced else probe.tick)
        wall = time.perf_counter() - start - sum(probe.samples)
        walls[traced].append(wall)
        if traced:
            tracer.uninstall()
            last_traced = outcome
        else:
            probe.sample()
            scales.append(probe.scale())
        check = bench.check(state, outcome)
        attempted += check.attempted
        failed += check.failed
        errors += check.errors
        pass_digests.append(check.digests)
        if (len(pass_digests) >= MIN_PASSES
                and time.perf_counter() - begin >= seconds):
            break

    for i, digests in enumerate(pass_digests[1:], start=2):
        changed = sorted(k for k in digests
                         if digests[k] != pass_digests[0].get(k))
        if changed:
            errors.append(f"{bench.name}: pass {i} differs from pass 1 "
                          f"in {', '.join(changed)} (nondeterministic)")

    result = {
        "walls": [w * k for w, k in zip(walls[False], scales)],
        "raw_walls": walls[False],
        "speed_scales": scales,
        "ops_per_pass": bench.ops(state),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": pass_digests[0],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        traced_passes = len(walls[True])
        result["traced_walls"] = walls[True]
        result["per_layer"] = per_layer(tracer, traced_passes, walls,
                                        expand_s,
                                        _column_totals(last_traced))
        result["layers"] = {layer: value / traced_passes for layer, value
                            in tracer.self_by_layer().items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--role", required=True,
                        choices=("setup", "measure"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    bench = workload(args.workload, args.tiny)
    if args.role == "setup":
        bench.first_build(bench.prepare(args.seed))
        raw = time.perf_counter() - _START
        probe = SpeedProbe()
        for _ in range(15):
            probe.sample()
        result = {"setup_s": raw * probe.scale(), "raw_setup_s": raw,
                  "speed_scale": probe.scale()}
    else:
        result = measure(bench, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
