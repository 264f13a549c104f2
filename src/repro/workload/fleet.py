"""Fleet sampler — the population behind the paper's Figure 1.

Figure 1 is a 24-hour scatter of (access-link utilization, host drop
rate) over a production cluster running both kernel TCP and SNAP/Swift.
We reproduce the population by sampling heterogeneous host
configurations and workloads — receiver core counts, IOMMU on/off,
hugepage policy, Rx region sizes, memory antagonists, sender fan-in,
transport — and running a short simulation per host.

The two qualitative features of Fig. 1 both emerge:

- drop rate correlates positively with link utilization (IOMMU-driven
  congestion needs high arrival rates to bite);
- a population of hosts drops packets at *low* utilization — the
  memory-antagonized hosts, where the NIC-to-memory path collapses
  below the access-link rate.

Scale: host #``i``'s configuration is a *pure function* of
``(seed, i)`` — each index keys its own RNG substream
(:func:`substream_seed`), so the population is byte-identical however
the fleet is split across shards, workers, or machines, and any host
can be re-derived without drawing its predecessors.  That is what lets
:meth:`FleetSampler.run_aggregate` stream a million hosts through a
bounded window (:func:`repro.core.parallel.run_stream`), fold each
outcome into a constant-memory
:class:`~repro.workload.fleet_agg.FleetAggregate`, checkpoint shard
cursors atomically, and resume a SIGKILLed run to the identical
answer.  The batched fluid backend builds no config per star host: a
range's draws go straight into lane columns, hosts with the same fluid
inputs share one lane, and the outcomes fold into the aggregate as one
batched insert per sketch.
"""

from __future__ import annotations

import hashlib
import operator
import random
import time
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Union,
)

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    FabricConfig,
    HostConfig,
    IommuConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.obs.telemetry import classify_root_cause
from repro.workload.fleet_agg import (
    FleetAggregate,
    FleetCheckpoint,
    shard_bounds,
)

__all__ = [
    "FleetSample",
    "FleetSampler",
    "cohort_key",
    "group_cohorts",
    "substream_seed",
]

#: (hosts_done, hosts_total) — invoked after every folded host.
ProgressFn = Callable[[int, int], None]
#: Lifecycle-event sink, as in :mod:`repro.core.parallel`.
EventFn = Callable[[Dict], None]


def cohort_key(config: ExperimentConfig) -> tuple:
    """What the hosts of one lane batch must share: the fabric topology.

    Every other difference between hosts, the structural flags
    included, is a per-lane value of the fluid step, so a range's star
    hosts form one :class:`~repro.sim.fluid_batch.BatchFluidSolver`
    batch.  The fabric stage is scalar-only: the fleet runs a
    multi-tier host on the scalar solver.  A pure function of the
    config: identical configs always share a cohort.
    """
    return (config.fabric.topology,)


def group_cohorts(indexed_configs) -> Dict[tuple, List[int]]:
    """Partition ``(index, config)`` pairs into cohorts (:func:`cohort_key`).

    Returns ``{cohort_key: [index, ...]}`` with indices in encounter
    order; every input index lands in exactly one cohort.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, config in indexed_configs:
        groups.setdefault(cohort_key(config), []).append(index)
    return groups


#: The per-host metrics a batched range reports (its host rows), in
#: row order; the aggregate folds the first two.
_RANGE_METRICS = ("link_utilization", "drop_rate", "app_throughput_gbps")


@dataclass(frozen=True)
class _FailureStub:
    """Minimal stand-in for a :class:`~repro.core.results.FailedRun`
    when a batched worker reports a failure by kind only (all
    :meth:`FleetAggregate.add_failed` reads is ``.kind``)."""

    kind: str


def _solve_batch_range(seed: int, warmup: float, duration: float,
                       fidelity: str, start: int, stop: int,
                       alpha: float, want_hosts: bool):
    """Top-level (picklable) batched-fleet pool task: rebuild the
    sampler from its defining tuple and solve one host range.  Workers
    receive *index ranges*, never hosts — the population is re-drawn
    in-worker from the ``(seed, index)`` substreams, so it is
    byte-identical however ranges land on processes, and the per-task
    IPC payload is a few scalars instead of ``batch_size`` hosts."""
    sampler = FleetSampler(seed=seed, warmup=warmup, duration=duration,
                           fidelity=fidelity)
    return sampler._solve_range(start, stop, alpha, want_hosts)


def substream_seed(seed: int, index: int) -> int:
    """Derive host ``index``'s private RNG seed from the fleet seed.

    SHA-256 over the ``(seed, index)`` pair, folded to 64 bits: the
    substreams are statistically independent, stable across platforms
    and Python versions (no reliance on ``hash()``), and computable
    for any index in isolation — the property every sharding and
    resume guarantee in this module rests on.
    """
    digest = hashlib.sha256(f"fleet:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _HostDraw(NamedTuple):
    """One host's draws (:meth:`FleetSampler._draw`): everything its
    config and scatter point need beyond the sampler's own settings."""

    stratum: str
    cores: int
    iommu: bool
    hugepages: bool
    region_mb: int
    antagonist_cores: int
    senders: int
    offered_load: Optional[float]
    transport: str
    seed: int
    #: Fabric topology.  The fleet draws star hosts; a host on any
    #: other fabric runs on the scalar solver.
    topology: str = "star"


#: The draws that shape a host's :class:`HostConfig`, in
#: :func:`_host_config` argument order.
_host_shape = operator.attrgetter("cores", "iommu", "hugepages",
                                  "region_mb", "antagonist_cores")


def _host_config(cores: int, iommu: bool, hugepages: bool,
                 region_mb: int, antagonist_cores: int) -> HostConfig:
    return HostConfig(
        cpu=CpuConfig(cores=cores),
        iommu=IommuConfig(enabled=iommu),
        hugepages=hugepages,
        rx_region_bytes=region_mb * 2**20,
        antagonist_cores=antagonist_cores,
    )


@dataclass(frozen=True)
class FleetSample:
    """One host's outcome in the fleet scatter."""

    host_index: int
    link_utilization: float
    drop_rate: float
    transport: str
    cores: int
    antagonist_cores: int
    iommu: bool
    hugepages: bool
    #: Sampling stratum the host was drawn from (see
    #: :attr:`FleetSampler.STRATA`); "" on legacy-constructed samples.
    stratum: str = ""

    @property
    def congestion_class(self) -> str:
        """Rough root-cause label for analysis: the Fig. 1 taxonomy of
        :func:`~repro.obs.telemetry.classify_root_cause`, read from
        this host's ``antagonist_cores``/``iommu``/``cores`` fields."""
        return classify_root_cause(vars(self))


class FleetSampler:
    """Draws host configurations and runs one short experiment each."""

    def __init__(
        self,
        seed: int = 7,
        warmup: float = 4e-3,
        duration: float = 8e-3,
        fidelity: str = "packet",
    ):
        self.seed = seed
        self.warmup = warmup
        self.duration = duration
        #: Engine for every drawn host.  Stamped on the config *after*
        #: all RNG draws, so packet and fluid fleets share a
        #: byte-identical host population.
        self.fidelity = fidelity

    #: Host classes and their fleet shares.  Stratified sampling: a
    #: production fleet is a mix of host populations, and stratifying
    #: guarantees each population is represented even in small samples.
    STRATA = (
        ("lean", 0.40),          # lightly loaded, healthy hosts
        ("incast-heavy", 0.20),  # saturated receivers (right of Fig. 1)
        ("antagonized", 0.25),   # memory-hungry co-tenants
        ("legacy-4k", 0.15),     # hugepages disabled (old configs)
    )

    def _draw_class(self, index: int) -> str:
        # Deterministic interleaving by cumulative share.
        position = (index % 20) / 20 + 1 / 40
        cumulative = 0.0
        for name, share in self.STRATA:
            cumulative += share
            if position < cumulative:
                return name
        return self.STRATA[-1][0]

    def _draw(self, index: int) -> _HostDraw:
        """Host ``index``'s draws — a pure function of ``(self.seed,
        index)``, independent of any draw order: one RNG substream,
        drawn in a fixed order."""
        rng = random.Random(substream_seed(self.seed, index))
        host_class = self._draw_class(index)
        iommu_on = rng.random() < 0.85
        hugepages = True
        antagonist = 0
        if host_class == "lean":
            cores = rng.choice((2, 4, 6, 8, 10, 12))
            offered = rng.choice((0.25, 0.4, 0.55, 0.7))
            antagonist = rng.choice((0, 0, 0, 4))
        elif host_class == "incast-heavy":
            cores = rng.choice((8, 10, 12, 14, 16))
            offered = rng.choice((None, None, 0.95))
        elif host_class == "antagonized":
            cores = rng.choice((8, 10, 12, 16))
            antagonist = rng.choice((8, 12, 15, 15))
            offered = rng.choice((None, 0.55, 0.7, 0.85))
        else:  # legacy-4k
            hugepages = False
            cores = rng.choice((8, 12, 16))
            antagonist = rng.choice((0, 8, 12, 15))
            offered = rng.choice((None, 0.55, 0.7))
        region_mb = rng.choice((4, 8, 12, 16))
        senders = rng.choice((10, 20, 40))
        # The paper's cluster "runs both the Linux kernel and SNAP
        # network stacks, with TCP and Swift" — an even mix.
        transport = rng.choice(("swift", "cubic"))
        return _HostDraw(host_class, cores, iommu_on, hugepages, region_mb,
                         antagonist, senders, offered, transport,
                         rng.randrange(1, 2**31))

    def _config(self, draw: _HostDraw) -> ExperimentConfig:
        config = ExperimentConfig(
            host=_host_config(*_host_shape(draw)),
            workload=WorkloadConfig(senders=draw.senders,
                                    offered_load=draw.offered_load),
            transport=draw.transport,
            fidelity=self.fidelity,
            sim=SimConfig(warmup=self.warmup, duration=self.duration,
                          seed=draw.seed),
        )
        if draw.topology != "star":
            config = replace(config,
                             fabric=FabricConfig(topology=draw.topology))
        return config

    def draw_config(self, index: int) -> ExperimentConfig:
        """Host ``index``'s configuration — a pure function of
        ``(self.seed, index)``, independent of any draw order."""
        return self._config(self._draw(index))

    def iter_configs(self, start: int, stop: int
                     ) -> Iterator[ExperimentConfig]:
        """Lazily draw configs for hosts ``[start, stop)``."""
        for index in range(start, stop):
            yield self.draw_config(index)

    def _lane_inputs(self, draws: Sequence[_HostDraw]) -> Dict:
        """The :func:`~repro.sim.fluid.fluid_inputs` of ``draws`` as
        lane columns, without a config per host.  The values no draw
        sets are read off one built config; the drawn values are
        columns, and the IOTLB miss rate is computed once per distinct
        host shape and indexed into the lanes."""
        from repro.sim.fluid import (
            LOSS_BASED_TRANSPORTS,
            fluid_inputs,
            predicted_misses_per_packet,
        )

        inputs = fluid_inputs(self._config(draws[0]))
        columns = _HostDraw._make(zip(*draws))
        shapes = list(map(_host_shape, draws))
        misses = {shape: predicted_misses_per_packet(_host_config(*shape))
                  for shape in set(shapes)}
        inputs.update(
            cores=columns.cores,
            antagonist_cores=columns.antagonist_cores,
            senders=columns.senders,
            open_loop=[load is not None for load in columns.offered_load],
            offered_load=[0.0 if load is None else load
                          for load in columns.offered_load],
            loss_based=[transport in LOSS_BASED_TRANSPORTS
                        for transport in columns.transport],
            misses_per_packet=[misses[shape] for shape in shapes],
        )
        return inputs

    def stream(
        self,
        stop: int,
        *,
        start: int = 0,
        workers: Union[int, str, None] = None,
        events: Optional[EventFn] = None,
        timeout: Optional[float] = None,
        failures: str = "raise",
        announce: bool = True,
    ) -> Iterator:
        """Stream host outcomes for indices ``[start, stop)`` in order.

        Yields a :class:`FleetSample` per healthy host; under
        ``failures="keep"`` a crashed or timed-out host yields its
        :class:`~repro.core.results.FailedRun` instead (inspect
        ``.kind``).  Parent memory is bounded by the in-flight window
        of :func:`repro.core.parallel.run_stream`, never by
        ``stop - start``.
        """
        from repro.core.parallel import run_stream

        if announce and events is not None:
            events({"ev": "plan", "total": stop - start,
                    "pending": stop - start, "cached": 0,
                    "ts": time.time()})
        outcomes = run_stream(
            self.iter_configs(start, stop), workers=workers,
            events=events, failures=failures, timeout=timeout,
            start_index=start)
        for outcome in outcomes:
            result = outcome.result
            if getattr(result, "failed", False):
                yield result
                continue
            # The draws are pure in (seed, index): re-deriving them here
            # is cheaper than holding them across the pool.
            draw = self._draw(outcome.index)
            yield FleetSample(
                host_index=outcome.index,
                link_utilization=result.metrics["link_utilization"],
                drop_rate=result.metrics["drop_rate"],
                transport=draw.transport,
                cores=draw.cores,
                antagonist_cores=draw.antagonist_cores,
                iommu=draw.iommu,
                hugepages=draw.hugepages,
                stratum=draw.stratum,
            )

    def resolve_backend(self, backend: str = "auto") -> str:
        """Normalize a fleet execution ``backend`` argument.

        ``"auto"`` picks ``"batched"`` (the lane-vectorized
        :class:`~repro.sim.fluid_batch.BatchFluidSolver` path) whenever
        the fidelity is fluid, and ``"scalar"`` (one pool task per
        host) otherwise; the explicit names force a path.  Batching is
        a fluid-only concept — the packet engine has no array form —
        so ``"batched"`` with a packet fleet is an error.

        ``"auto"`` also falls back to ``"scalar"`` when numpy is
        absent (it is a declared dependency, but the scalar engines
        run without it); asking for ``"batched"`` explicitly in that
        situation raises ``ImportError`` instead of silently
        downgrading.
        """
        if backend == "auto":
            if self.fidelity != "fluid":
                return "scalar"
            try:
                import numpy  # noqa: F401
            except ImportError:
                return "scalar"
            return "batched"
        if backend not in ("batched", "scalar"):
            raise ValueError(
                f"backend must be 'auto', 'batched', or 'scalar', "
                f"got {backend!r}")
        if backend == "batched" and self.fidelity != "fluid":
            raise ValueError(
                "batched fleet execution requires fidelity='fluid' "
                f"(sampler has {self.fidelity!r})")
        return backend

    def _solve_range(self, start: int, stop: int, alpha: float,
                     want_hosts: bool):
        """Batch-solve hosts ``[start, stop)`` into a partial aggregate.

        The body of one batched-fleet task, columnar from draw to fold:
        draw the range's hosts, step its star hosts as one
        :class:`~repro.sim.fluid_batch.BatchFluidSolver` lane set built
        from their draws (:meth:`_lane_inputs`), one lane per distinct
        input row (:func:`~repro.sim.fluid_batch.distinct_lanes`; a
        star host's solve does not read its seed, so hosts repeat),
        scatter the lanes' outcomes back to host order, and fold them
        into a fresh :class:`FleetAggregate` with one batched insert
        per sketch.  A config is built only for a host that runs on
        the scalar solver: one on another fabric, or every star host
        when the batch raises.  A host that still fails is folded via
        ``add_failed`` — one bad host cannot sink the range, exactly
        like the scalar streaming path.

        Returns ``(aggregate_state_dict, host_rows)`` — plain
        picklable data.  ``host_rows`` is ``None`` unless
        ``want_hosts``; otherwise one ``(index, kind, payload)`` tuple
        per host for the parent's telemetry fan-out.
        """
        from repro.sim.fluid_batch import BatchFluidSolver, distinct_lanes

        draws = [self._draw(index) for index in range(start, stop)]
        # One outcome list per metric, indexed by lane; a lane in
        # ``errors`` keeps a placeholder.
        columns = {key: [0.0] * len(draws) for key in _RANGE_METRICS}
        errors: Dict[int, str] = {}

        def solve_alone(lane: int) -> None:
            from repro.core.experiment import run_experiment
            try:
                metrics = run_experiment(self._config(draws[lane])).metrics
            except Exception as exc:
                errors[lane] = repr(exc)
                return
            for key, column in columns.items():
                column[lane] = metrics[key]

        star = [lane for lane, draw in enumerate(draws)
                if draw.topology == "star"]
        if star:
            try:
                inputs, inverse = distinct_lanes(
                    self._lane_inputs([draws[lane] for lane in star]))
                solver = BatchFluidSolver.from_inputs(inputs)
                solver.run_until(self.warmup)
                solver.reset_stats()
                solver.run_until(self.warmup + self.duration)
                metrics = solver.fleet_metrics()
            except Exception:
                for lane in star:
                    solve_alone(lane)
            else:
                for key, column in columns.items():
                    values = metrics[key][inverse].tolist()
                    for lane, value in zip(star, values):
                        column[lane] = value
        for lane, draw in enumerate(draws):
            if draw.topology != "star":
                solve_alone(lane)

        utilization = columns["link_utilization"]
        drop_rate = columns["drop_rate"]
        ok = draws
        if errors:
            lanes = [lane for lane in range(len(draws)) if lane not in errors]
            utilization = [utilization[lane] for lane in lanes]
            drop_rate = [drop_rate[lane] for lane in lanes]
            ok = [draws[lane] for lane in lanes]
        # The root-cause rule reads host fields only (a draw has them,
        # named as on a FleetSample), so it runs once per host shape.
        shapes = list(map(_host_shape, ok))
        causes = {shape: classify_root_cause(draw._asdict())
                  for shape, draw in dict(zip(shapes, ok)).items()}
        aggregate = FleetAggregate(alpha=alpha)
        aggregate.add_columns(
            utilization, drop_rate,
            [draw.stratum for draw in ok],
            [draw.transport for draw in ok],
            [causes[shape] for shape in shapes])
        for _ in errors:
            aggregate.add_failed(_FailureStub("error"))
        if not want_hosts:
            return aggregate.to_dict(), None
        host_rows = [
            (start + lane, "error", {"error": errors[lane]})
            if lane in errors else
            (start + lane, "ok", {key: column[lane]
                                  for key, column in columns.items()})
            for lane in range(len(draws))]
        return aggregate.to_dict(), host_rows

    def _range_partials(self, cursor: int, stop: int, alpha: float,
                        batch_size: int, workers,
                        events: Optional[EventFn]
                        ) -> Iterator[FleetAggregate]:
        """Batched backend: the partial aggregates of hosts
        ``[cursor, stop)``, one per ``batch_size`` range, in index
        order — fanning each range's host rows out to ``events``."""
        from repro.core.parallel import map_stream

        tasks = ((self.seed, self.warmup, self.duration, self.fidelity,
                  lo, min(lo + batch_size, stop), alpha,
                  events is not None)
                 for lo in range(cursor, stop, batch_size))
        for _pos, (state, host_rows) in map_stream(
                _solve_batch_range, tasks, workers=workers):
            if events is not None:
                stamp = time.time()
                for index, kind, payload in host_rows:
                    if kind == "ok":
                        events({"ev": "finished", "index": index,
                                "metrics": payload, "ts": stamp})
                    else:
                        events({"ev": "failed", "index": index,
                                "failure_kind": kind, "ts": stamp,
                                **payload})
            yield FleetAggregate.from_dict(state)

    def run_aggregate(
        self,
        n_hosts: int,
        *,
        shards: int = 1,
        shard_index: Optional[int] = None,
        workers: Union[int, str, None] = None,
        events: Optional[EventFn] = None,
        progress: Optional[ProgressFn] = None,
        checkpoint: Union[str, None] = None,
        resume: bool = False,
        checkpoint_every: int = 2000,
        timeout: Optional[float] = None,
        alpha: float = 0.01,
        stop_after_shard: Optional[int] = None,
        backend: str = "auto",
        batch_size: int = 4096,
    ) -> FleetAggregate:
        """Stream the fleet shard-by-shard into a merged aggregate.

        The constant-memory fleet driver: hosts ``[0, n_hosts)`` are
        split into contiguous shards
        (:func:`~repro.workload.fleet_agg.shard_bounds`), each shard
        streams through a bounded worker window, and every outcome is
        folded into that shard's
        :class:`~repro.workload.fleet_agg.FleetAggregate` and dropped.
        Failures are *kept* (folded via ``add_failed``) — one bad host
        cannot sink a million-host run.

        With ``checkpoint`` set, progress is snapshotted atomically
        every ``checkpoint_every`` folded hosts and at every shard
        boundary; ``resume=True`` reloads the snapshot (refusing a
        mismatched population) and continues from each shard's cursor
        — the final aggregate is identical to an uninterrupted run's,
        because folds happen in index order and every fold/merge in
        the aggregate is associative.  ``shard_index`` restricts the
        run to one shard (the multi-machine path: each node runs its
        shard against its own checkpoint, then ``repro fleet merge``
        combines them).  ``stop_after_shard=k`` exits after shard
        ``k`` completes — a deterministic stand-in for a mid-run kill
        in tests.

        ``backend`` selects the execution engine
        (:meth:`resolve_backend`): under ``"batched"`` — the default
        whenever fidelity is fluid — each shard is cut into
        ``batch_size``-host ranges, every range is one pool task
        (:func:`repro.core.parallel.map_stream`) that re-draws its
        hosts in-worker straight into lane columns and steps its star
        hosts as one lane set of
        :class:`~repro.sim.fluid_batch.BatchFluidSolver` (one lane per
        distinct input row), and
        the returned partial aggregates merge in index order.  The
        per-host outcomes are bit-identical to the scalar backend's
        (see ``repro.sim.fluid_batch``), so both backends produce
        equal aggregates for the same population; checkpoint/resume
        semantics carry over, with the cursor advancing a range at a
        time.  ``timeout`` applies per host under the scalar backend
        only (a fluid batch is deterministic compute with no per-host
        waiting to bound).
        """
        batched = self.resolve_backend(backend) == "batched"
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        bounds = shard_bounds(n_hosts, shards)
        meta = {"seed": self.seed, "n_hosts": n_hosts,
                "shards": len(bounds), "fidelity": self.fidelity,
                "warmup": self.warmup, "duration": self.duration,
                "alpha": alpha}

        if shard_index is not None:
            if not 0 <= shard_index < len(bounds):
                raise ValueError(
                    f"shard_index {shard_index} out of range for "
                    f"{len(bounds)} shards")
            todo = [shard_index]
        else:
            todo = list(range(len(bounds)))

        ckpt: Optional[FleetCheckpoint] = None
        if checkpoint is not None:
            from pathlib import Path
            if resume and Path(checkpoint).exists():
                ckpt = FleetCheckpoint.load(checkpoint)
                ckpt.check_meta(meta)
            else:
                ckpt = FleetCheckpoint.fresh(checkpoint, meta, bounds,
                                             alpha=alpha)
                ckpt.save()
        else:
            ckpt = FleetCheckpoint.fresh("", meta, bounds, alpha=alpha)

        done_hosts = sum(record["cursor"] - bounds[shard][0]
                         for shard, record in ckpt.shards.items())
        if events is not None:
            events({"ev": "plan", "total": n_hosts,
                    "pending": n_hosts - done_hosts,
                    "cached": 0, "ts": time.time()})

        persist = checkpoint is not None
        for shard in todo:
            record = ckpt.shards[shard]
            start, stop = bounds[shard]
            if record["done"]:
                continue
            cursor = record["cursor"]
            if events is not None:
                events({"ev": "shard", "shard": shard, "start": start,
                        "stop": stop, "cursor": cursor,
                        "ts": time.time()})
            aggregate = record["aggregate"]
            items = (self._range_partials(cursor, stop, alpha,
                                          batch_size, workers, events)
                     if batched else
                     self.stream(stop, start=cursor, workers=workers,
                                 events=events, timeout=timeout,
                                 failures="keep", announce=False))
            since_save = 0
            for item in items:
                # A batched range merges whole; a scalar host folds
                # as a sample or, when it failed, as its FailedRun.
                if isinstance(item, FleetAggregate):
                    aggregate.merge(item)
                    folded = item.hosts + item.failed
                elif isinstance(item, FleetSample):
                    aggregate.add(item)
                    folded = 1
                else:
                    aggregate.add_failed(item)
                    folded = 1
                cursor += folded
                done_hosts += folded
                since_save += folded
                record["cursor"] = cursor
                if progress is not None:
                    progress(done_hosts, n_hosts)
                if persist and since_save >= checkpoint_every:
                    ckpt.save()
                    since_save = 0
            record["done"] = True
            record["cursor"] = stop
            if persist:
                ckpt.save()
            if events is not None:
                events({"ev": "shard", "shard": shard, "start": start,
                        "stop": stop, "cursor": stop, "done": True,
                        "ts": time.time()})
            if stop_after_shard is not None and shard >= stop_after_shard:
                break

        return ckpt.merged()
