"""The live telemetry plane: in-sim sampling and run aggregation.

The paper's observation — hosts dropping packets while the fabric
looks idle — was only visible because per-host interconnect counters
were watched *live*, not post-hoc.  This module is the reproduction's
equivalent read path, in two halves:

**In-sim** (:class:`MetricsSampler`): a sampler component polls the
:class:`~repro.obs.metrics.MetricsRegistry` on a fixed sim-time
interval — drift-free ``epoch + k·interval`` scheduling — into a
bounded, drop-oldest ring of typed :class:`TelemetrySample` records.
The run's metrics snapshot (its ``telemetry`` block) and the counter
tracks of ``repro trace --sample-interval-us`` read that ring.
Sampling reads counter/gauge values only — never histograms, never
deferred-flush hooks — so an attached sampler cannot perturb results:
outputs stay bit-identical with telemetry on or off.

**Cross-run** (:class:`RunAggregate`): a constant-memory fold over the
lifecycle event stream that workers emit during a sweep or fleet run
(see ``core/parallel.py`` / ``core/ledger.py``).  Wall time,
events/sec, throughput, and drop rate go into mergeable
:class:`~repro.obs.sketch.QuantileSketch` instances; failures and
root-cause classes into :class:`~repro.obs.sketch.CategoryTally`.
``RunAggregate.merge`` is the fleet-scale aggregation protocol: any
partition of the event stream folds to the same aggregate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs.sketch import CategoryTally, QuantileSketch

__all__ = [
    "MetricsSampler",
    "RunAggregate",
    "TelemetrySample",
    "classify_root_cause",
]


@dataclass(frozen=True)
class TelemetrySample:
    """One polled metric value at one sim time."""

    time: float
    name: str
    kind: str  # "counter" | "gauge"
    value: float

    def as_list(self) -> list:
        """Compact JSON-friendly form ``[time, name, kind, value]``."""
        return [self.time, self.name, self.kind, self.value]


class MetricsSampler:
    """SimComponent that polls the registry into a ring on a schedule.

    Ticks fire at absolute times ``epoch + k · interval`` (epoch =
    sim-time of :meth:`start`), so the cadence never drifts however
    long a poll takes.  Each tick reads counters and gauges through
    :meth:`MetricsRegistry.live_values` — a pure read that skips
    deferred flushes and histograms, keeping the measurement
    unperturbed — and appends one sample per metric to ``samples``.
    The ring keeps the newest :attr:`maxlen` samples; older ones are
    dropped (and counted in ``dropped``), so a long run's memory stays
    bounded.
    """

    label = "sampler"
    #: Ring capacity in samples.
    maxlen = 262144

    def __init__(self, sim, registry, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.samples: Deque[TelemetrySample] = deque(maxlen=self.maxlen)
        self.dropped = 0
        self.ticks = 0
        self.samples_emitted = 0
        self._running = False
        self._epoch = 0.0
        self._tick_index = 0

    # -- scheduling ---------------------------------------------------------

    def start(self) -> None:
        """Begin sampling; the first tick fires one interval from now."""
        if self._running:
            return
        self._running = True
        self._epoch = self.sim.now
        self._tick_index = 0
        self.sim.at(self._next_tick_time(), self._tick)

    def stop(self) -> None:
        """Disarm: a pending tick becomes a no-op."""
        self._running = False

    def _next_tick_time(self) -> float:
        return self._epoch + (self._tick_index + 1) * self.interval

    def _tick(self) -> None:
        if not self._running:
            return
        self._tick_index += 1
        self.ticks += 1
        now = self.sim.now
        samples = self.samples
        for name, kind, value in self.registry.live_values():
            if len(samples) == samples.maxlen:
                self.dropped += 1
            samples.append(TelemetrySample(time=now, name=name, kind=kind,
                                           value=float(value)))
            self.samples_emitted += 1
        self.sim.at(self._next_tick_time(), self._tick)

    # -- SimComponent protocol ----------------------------------------------

    def children(self):
        return ()

    def bind_metrics(self, registry, name: str = "") -> None:
        component = name or self.label
        registry.counter("ticks", component,
                         fn=lambda: self.ticks)
        registry.counter("samples_emitted", component,
                         fn=lambda: self.samples_emitted)

    def reset_stats(self) -> None:
        self.ticks = 0
        self.samples_emitted = 0

    def snapshot(self) -> Dict[str, float]:
        return {"ticks": self.ticks,
                "samples_emitted": self.samples_emitted,
                "interval": self.interval}


def classify_root_cause(params: Dict) -> str:
    """Root-cause label for one run's config (the Fig. 1 taxonomy).

    The one copy of the rule; fleet hosts label themselves through it
    (:attr:`repro.workload.fleet.FleetSample.congestion_class`):
    heavy memory antagonists collapse the NIC-to-memory path
    ("memory-bus"); many-core IOMMU hosts thrash the IOTLB ("iommu");
    everything else is CPU-bound or healthy.
    """
    try:
        if int(params.get("antagonist_cores", 0)) >= 8:
            return "memory-bus"
        if params.get("iommu") and int(params.get("cores", 0)) > 8:
            return "iommu"
    except (TypeError, ValueError):
        return "unknown"
    return "cpu-or-none"


#: result.metrics keys folded into per-sweep sketches when present.
HEADLINE_METRICS = (
    ("app_throughput_gbps", "throughput_gbps"),
    ("drop_rate", "drop_rate"),
    ("link_utilization", "link_utilization"),
)


class RunAggregate:
    """Constant-memory, mergeable fold of a run-lifecycle event stream.

    Feed it ledger rows (or live events) via :meth:`fold`; merge
    partial aggregates from different workers/files via :meth:`merge`.
    Because every statistic inside is itself mergeable (counts,
    sketches, tallies), ``fold(a + b) == fold(a).merge(fold(b))`` for
    any split of the stream — the property fleet-scale aggregation
    relies on.
    """

    SKETCH_KEYS = ("wall_s", "events_per_sec", "throughput_gbps",
                   "drop_rate", "link_utilization")

    def __init__(self, alpha: float = 0.01):
        self.alpha = alpha
        self.label = ""
        self.run_id = ""
        self.total = 0
        self.queued = 0
        self.started = 0
        self.finished = 0
        self.failed = 0
        self.cached = 0
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None
        self.ended = False
        self.sketches: Dict[str, QuantileSketch] = {
            key: QuantileSketch(alpha=alpha) for key in self.SKETCH_KEYS}
        self.root_causes = CategoryTally()
        self.failure_kinds = CategoryTally()

    # -- folding ------------------------------------------------------------

    def _touch(self, event: Dict) -> None:
        ts = event.get("ts")
        if ts is None:
            return
        if self.first_ts is None or ts < self.first_ts:
            self.first_ts = ts
        if self.last_ts is None or ts > self.last_ts:
            self.last_ts = ts

    def _fold_metrics(self, event: Dict) -> None:
        metrics = event.get("metrics") or {}
        for source_key, sketch_key in HEADLINE_METRICS:
            value = metrics.get(source_key)
            if value is not None:
                self.sketches[sketch_key].observe(float(value))

    def fold(self, event: Dict) -> None:
        """Incorporate one lifecycle event (a parsed ledger row)."""
        kind = event.get("ev")
        self._touch(event)
        if kind == "begin":
            self.label = event.get("label", self.label)
            self.run_id = event.get("run_id", self.run_id)
        elif kind == "end":
            self.ended = True
        elif kind == "plan":
            self.total += int(event.get("total", 0))
        elif kind == "queued":
            self.queued += 1
        elif kind == "started":
            self.started += 1
        elif kind == "cached":
            self.cached += 1
            self._fold_metrics(event)
            params = event.get("params")
            if params:
                self.root_causes.add(classify_root_cause(params))
        elif kind == "finished":
            self.finished += 1
            self._fold_metrics(event)
            wall = event.get("wall_s")
            if wall is not None:
                self.sketches["wall_s"].observe(float(wall))
                engine_events = event.get("engine_events")
                if engine_events and float(wall) > 0:
                    self.sketches["events_per_sec"].observe(
                        float(engine_events) / float(wall))
            params = event.get("params")
            if params:
                self.root_causes.add(classify_root_cause(params))
        elif kind == "failed":
            self.failed += 1
            self.failure_kinds.add(event.get("failure_kind", "error"))
            wall = event.get("wall_s")
            if wall is not None:
                self.sketches["wall_s"].observe(float(wall))

    def fold_all(self, events) -> "RunAggregate":
        for event in events:
            self.fold(event)
        return self

    # -- merge protocol -----------------------------------------------------

    def merge(self, other: "RunAggregate") -> "RunAggregate":
        if other.alpha != self.alpha:
            raise ValueError("cannot merge aggregates with different "
                             f"alpha: {self.alpha} vs {other.alpha}")
        self.label = self.label or other.label
        self.run_id = self.run_id or other.run_id
        self.total += other.total
        self.queued += other.queued
        self.started += other.started
        self.finished += other.finished
        self.failed += other.failed
        self.cached += other.cached
        if other.first_ts is not None:
            self.first_ts = (other.first_ts if self.first_ts is None
                             else min(self.first_ts, other.first_ts))
        if other.last_ts is not None:
            self.last_ts = (other.last_ts if self.last_ts is None
                            else max(self.last_ts, other.last_ts))
        self.ended = self.ended or other.ended
        for key in self.SKETCH_KEYS:
            self.sketches[key].merge(other.sketches[key])
        self.root_causes.merge(other.root_causes)
        self.failure_kinds.merge(other.failure_kinds)
        return self

    # -- queries ------------------------------------------------------------

    @property
    def done(self) -> int:
        """Runs accounted for (finished + failed + cache hits)."""
        return self.finished + self.failed + self.cached

    @property
    def elapsed_s(self) -> float:
        if self.first_ts is None or self.last_ts is None:
            return 0.0
        return self.last_ts - self.first_ts

    def eta_s(self) -> Optional[float]:
        """Naive remaining-time estimate from the observed run rate."""
        if not self.total or self.done >= self.total:
            return 0.0 if self.total else None
        live_done = self.finished + self.failed
        if live_done == 0 or self.elapsed_s <= 0:
            return None
        rate = live_done / self.elapsed_s
        return (self.total - self.done) / rate

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "alpha": self.alpha,
            "label": self.label,
            "run_id": self.run_id,
            "total": self.total,
            "queued": self.queued,
            "started": self.started,
            "finished": self.finished,
            "failed": self.failed,
            "cached": self.cached,
            "first_ts": self.first_ts,
            "last_ts": self.last_ts,
            "ended": self.ended,
            "sketches": {key: sketch.to_dict()
                         for key, sketch in self.sketches.items()},
            "root_causes": self.root_causes.to_dict(),
            "failure_kinds": self.failure_kinds.to_dict(),
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "RunAggregate":
        aggregate = cls(alpha=state["alpha"])
        aggregate.label = state["label"]
        aggregate.run_id = state["run_id"]
        aggregate.total = int(state["total"])
        aggregate.queued = int(state["queued"])
        aggregate.started = int(state["started"])
        aggregate.finished = int(state["finished"])
        aggregate.failed = int(state["failed"])
        aggregate.cached = int(state["cached"])
        aggregate.first_ts = state["first_ts"]
        aggregate.last_ts = state["last_ts"]
        aggregate.ended = bool(state["ended"])
        aggregate.sketches = {
            key: QuantileSketch.from_dict(value)
            for key, value in state["sketches"].items()}
        aggregate.root_causes = CategoryTally.from_dict(
            state["root_causes"])
        aggregate.failure_kinds = CategoryTally.from_dict(
            state["failure_kinds"])
        return aggregate

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunAggregate):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _fmt_sketch(sketch: QuantileSketch, unit: str = "") -> str:
        if sketch.count == 0:
            return "—"
        return (f"p50 {sketch.quantile(50):.4g}{unit}  "
                f"p90 {sketch.quantile(90):.4g}{unit}  "
                f"p99 {sketch.quantile(99):.4g}{unit}  "
                f"(n={sketch.count})")

    def format_lines(self) -> List[str]:
        """Human-readable summary (the body of ``repro runs show``)."""
        header = self.run_id or self.label or "run"
        lines = [header]
        counts = (f"  runs: {self.done}/{self.total or self.done} done"
                  f" — {self.finished} finished, {self.cached} cached,"
                  f" {self.failed} failed")
        if not self.ended:
            counts += "  [in progress]"
        lines.append(counts)
        if self.elapsed_s:
            lines.append(f"  elapsed: {self.elapsed_s:.2f}s wall")
        titles = {
            "wall_s": ("wall/run", "s"),
            "events_per_sec": ("events/s", ""),
            "throughput_gbps": ("tput Gbps", ""),
            "drop_rate": ("drop rate", ""),
            "link_utilization": ("link util", ""),
        }
        for key in self.SKETCH_KEYS:
            sketch = self.sketches[key]
            if sketch.count:
                title, unit = titles[key]
                lines.append(f"  {title:<10} "
                             f"{self._fmt_sketch(sketch, unit)}")
        if len(self.root_causes):
            parts = ", ".join(f"{label} {count}" for label, count
                              in self.root_causes.most_common())
            lines.append(f"  root causes: {parts}")
        if len(self.failure_kinds):
            parts = ", ".join(f"{label} {count}" for label, count
                              in self.failure_kinds.most_common())
            lines.append(f"  failures: {parts}")
        return lines
