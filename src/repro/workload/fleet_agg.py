"""Constant-memory mergeable aggregation for the streaming fleet.

The paper's Figure 1 is a *population* claim over a production fleet.
Reproducing it at fleet scale (``repro fleet --hosts 1000000``) means
the parent can never hold per-host samples: every outcome is folded
into a :class:`FleetAggregate` — quantile sketches, category tallies,
and a 2-D density grid, all of them constant-size and exactly
mergeable — and then dropped.

Merge algebra: for any partition of the host population into shards
and any fold order,

    ``fold(all) == merge(fold(shard_0), ..., fold(shard_k))``

because every statistic inside is itself associative and
order-independent (bucket/cell/count addition; min/max).  That is the
property that makes a multi-machine backend a config change: each node
folds its shard, writes the aggregate as JSON, and ``repro fleet
merge`` combines them.

Checkpointing: :class:`FleetCheckpoint` snapshots every shard's
``(cursor, aggregate)`` pair atomically (write-temp + ``os.replace``),
so a SIGKILLed run resumes from the last folded host.  Because host
configs come from per-index RNG substreams
(:meth:`repro.workload.fleet.FleetSampler.draw_config` is a pure
function of ``(seed, index)``), a resumed run re-derives exactly the
hosts it never folded and the final aggregate is identical to an
uninterrupted run's.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.sketch import CategoryTally, Density2D, QuantileSketch

__all__ = [
    "DROP_THRESHOLD",
    "FleetAggregate",
    "FleetCheckpoint",
    "density_rank_correlation",
    "shard_bounds",
]

#: A host "drops" once its measured drop rate crosses this — the same
#: threshold the figure-1 shape checks have always used.
DROP_THRESHOLD = 1e-4

#: Utilization bands for the figure's conditional drop fractions.
HIGH_UTIL = 0.85
LOW_UTIL = 0.60
#: The paper's "low-utilization dropper" criterion (Fig. 1, left side).
LOW_UTIL_STRICT = 0.50

#: Metric keys sketched per stratum and per root cause.
SKETCHED = ("drop_rate", "link_utilization")


def shard_bounds(n_hosts: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` host ranges.

    Deterministic in ``(n_hosts, shards)`` — the population assignment
    must not depend on anything environmental.
    """
    if n_hosts < 0:
        raise ValueError(f"n_hosts must be >= 0, got {n_hosts}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, max(1, n_hosts))
    return [(i * n_hosts // shards, (i + 1) * n_hosts // shards)
            for i in range(shards)]


def density_rank_correlation(density: Density2D) -> float:
    """Spearman rank correlation computed from a 2-D density grid.

    Exact Spearman needs per-sample ranks, which a streaming fold
    cannot keep; but with samples grouped into ordered bins the
    tie-corrected midrank of every cell is a pure function of the
    cumulative cell counts — so this is *exactly* Spearman's rho of
    the binned population (ties broken by bin), computed in
    O(cells).
    """
    cells = density.cells()
    total = sum(count for _, count in cells)
    if total < 2:
        return 0.0

    def midranks(axis: int) -> Dict[int, float]:
        per_bin: Dict[int, int] = {}
        for key, count in cells:
            per_bin[key[axis]] = per_bin.get(key[axis], 0) + count
        ranks: Dict[int, float] = {}
        cumulative = 0
        for bin_key in sorted(per_bin):
            count = per_bin[bin_key]
            ranks[bin_key] = cumulative + (count + 1) / 2.0
            cumulative += count
        return ranks

    x_rank = midranks(0)
    y_rank = midranks(1)
    mean_rank = (total + 1) / 2.0
    cov = var_x = var_y = 0.0
    for (xi, yi), count in cells:
        dx = x_rank[xi] - mean_rank
        dy = y_rank[yi] - mean_rank
        cov += count * dx * dy
        var_x += count * dx * dx
        var_y += count * dy * dy
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


class FleetAggregate:
    """Mergeable constant-memory summary of a fleet population.

    Fold :class:`~repro.workload.fleet.FleetSample` instances with
    :meth:`add`, or many hosts as columns with :meth:`add_columns`
    (crashed hosts with :meth:`add_failed`); merge shard aggregates
    with :meth:`merge`.  Everything Figure 1 renders — the
    utilization × drop-rate scatter, the Spearman correlation, the
    conditional drop fractions, per-stratum and per-root-cause
    distributions — is answerable from this object alone.
    """

    def __init__(self, alpha: float = 0.01):
        self.alpha = alpha
        self.hosts = 0
        self.failed = 0
        self.droppers = 0
        #: droppers with utilization < 50% — the paper's headline
        #: "drops at low utilization" population.
        self.low_util_droppers = 0
        self.high_util_hosts = 0
        self.high_util_droppers = 0
        self.low_util_hosts = 0
        self.low_util_band_droppers = 0
        self.strata = CategoryTally()
        self.root_causes = CategoryTally()
        self.transports = CategoryTally()
        self.failure_kinds = CategoryTally()
        self.drop_sketch = QuantileSketch(alpha=alpha)
        self.util_sketch = QuantileSketch(alpha=alpha)
        #: stratum -> metric -> sketch (and the same per root cause).
        self.stratum_sketches: Dict[str, Dict[str, QuantileSketch]] = {}
        self.cause_sketches: Dict[str, Dict[str, QuantileSketch]] = {}
        self.density = Density2D()

    # -- folding ------------------------------------------------------------

    def _group(self, table: Dict[str, Dict[str, QuantileSketch]],
               label: str) -> Dict[str, QuantileSketch]:
        group = table.get(label)
        if group is None:
            group = {key: QuantileSketch(alpha=self.alpha)
                     for key in SKETCHED}
            table[label] = group
        return group

    def add(self, sample) -> "FleetAggregate":
        """Fold one host's :class:`FleetSample` into the aggregate."""
        return self.add_columns(
            [sample.link_utilization], [sample.drop_rate],
            [getattr(sample, "stratum", "")], [sample.transport],
            [sample.congestion_class])

    def add_columns(self, utilization: Sequence[float],
                    drop_rate: Sequence[float], strata: Sequence[str],
                    transports: Sequence[str],
                    causes: Sequence[str]) -> "FleetAggregate":
        """Fold many hosts, given as equal-length columns in host-index
        order: the state one :meth:`add` per host leaves, with one
        batched insert per sketch (:meth:`QuantileSketch.extend`).  An
        empty stratum label counts as ``"unknown"``."""
        utilization = [float(value) for value in utilization]
        drop_rate = [float(value) for value in drop_rate]
        strata = [label or "unknown" for label in strata]
        for host_util, host_drop in zip(utilization, drop_rate):
            dropper = host_drop > DROP_THRESHOLD
            if dropper:
                self.droppers += 1
                if host_util < LOW_UTIL_STRICT:
                    self.low_util_droppers += 1
            if host_util > HIGH_UTIL:
                self.high_util_hosts += 1
                if dropper:
                    self.high_util_droppers += 1
            if host_util < LOW_UTIL:
                self.low_util_hosts += 1
                if dropper:
                    self.low_util_band_droppers += 1
        self.hosts += len(utilization)
        for tally, labels in ((self.strata, strata),
                              (self.root_causes, causes),
                              (self.transports, transports)):
            for label, count in Counter(labels).items():
                tally.add(label, count)
        self.drop_sketch.extend(drop_rate)
        self.util_sketch.extend(utilization)
        values = {"drop_rate": drop_rate, "link_utilization": utilization}
        for table, labels in ((self.stratum_sketches, strata),
                              (self.cause_sketches, causes)):
            members: Dict[str, List[int]] = {}
            for position, label in enumerate(labels):
                members.setdefault(label, []).append(position)
            for label, positions in members.items():
                group = self._group(table, label)
                for key, column in values.items():
                    group[key].extend([column[p] for p in positions])
        self.density.extend(zip(utilization, drop_rate))
        return self

    def add_failed(self, failed) -> "FleetAggregate":
        """Account a host whose run crashed or timed out."""
        self.failed += 1
        self.failure_kinds.add(getattr(failed, "kind", "error"))
        return self

    # -- merge protocol -----------------------------------------------------

    def merge(self, other: "FleetAggregate") -> "FleetAggregate":
        if other.alpha != self.alpha:
            raise ValueError(
                "cannot merge fleet aggregates with different alpha: "
                f"{self.alpha} vs {other.alpha}")
        self.hosts += other.hosts
        self.failed += other.failed
        self.droppers += other.droppers
        self.low_util_droppers += other.low_util_droppers
        self.high_util_hosts += other.high_util_hosts
        self.high_util_droppers += other.high_util_droppers
        self.low_util_hosts += other.low_util_hosts
        self.low_util_band_droppers += other.low_util_band_droppers
        self.strata.merge(other.strata)
        self.root_causes.merge(other.root_causes)
        self.transports.merge(other.transports)
        self.failure_kinds.merge(other.failure_kinds)
        self.drop_sketch.merge(other.drop_sketch)
        self.util_sketch.merge(other.util_sketch)
        for table_mine, table_theirs in (
                (self.stratum_sketches, other.stratum_sketches),
                (self.cause_sketches, other.cause_sketches)):
            for label, group in table_theirs.items():
                mine = self._group(table_mine, label)
                for key in SKETCHED:
                    mine[key].merge(group[key])
        self.density.merge(other.density)
        return self

    # -- queries ------------------------------------------------------------

    @property
    def dropper_fraction(self) -> float:
        return self.droppers / self.hosts if self.hosts else 0.0

    @property
    def drop_fraction_high_util(self) -> float:
        if not self.high_util_hosts:
            return 0.0
        return self.high_util_droppers / self.high_util_hosts

    @property
    def drop_fraction_low_util(self) -> float:
        if not self.low_util_hosts:
            return 0.0
        return self.low_util_band_droppers / self.low_util_hosts

    def rank_correlation(self) -> float:
        """Spearman rho of (utilization, drop rate) over the binned
        population (see :func:`density_rank_correlation`)."""
        return density_rank_correlation(self.density)

    def scatter_points(self) -> List[Tuple[float, float]]:
        """Occupied density-cell midpoints — the renderable scatter."""
        return [(x, y) for x, y, _count in self.density.points()]

    def stratum_median(self, stratum: str, key: str) -> float:
        """p50 of ``key`` (one of :data:`SKETCHED`) within a stratum."""
        group = self.stratum_sketches.get(stratum)
        if group is None or group[key].count == 0:
            raise KeyError(
                f"no {key!r} samples for stratum {stratum!r}")
        return group[key].quantile(50)

    # -- serialization ------------------------------------------------------

    @staticmethod
    def _table_to_dict(table: Dict[str, Dict[str, QuantileSketch]]
                       ) -> Dict:
        return {label: {key: sketch.to_dict()
                        for key, sketch in sorted(group.items())}
                for label, group in sorted(table.items())}

    def to_dict(self) -> Dict:
        return {
            "v": 1,
            "alpha": self.alpha,
            "hosts": self.hosts,
            "failed": self.failed,
            "droppers": self.droppers,
            "low_util_droppers": self.low_util_droppers,
            "high_util_hosts": self.high_util_hosts,
            "high_util_droppers": self.high_util_droppers,
            "low_util_hosts": self.low_util_hosts,
            "low_util_band_droppers": self.low_util_band_droppers,
            "strata": self.strata.to_dict(),
            "root_causes": self.root_causes.to_dict(),
            "transports": self.transports.to_dict(),
            "failure_kinds": self.failure_kinds.to_dict(),
            "drop_sketch": self.drop_sketch.to_dict(),
            "util_sketch": self.util_sketch.to_dict(),
            "stratum_sketches": self._table_to_dict(
                self.stratum_sketches),
            "cause_sketches": self._table_to_dict(self.cause_sketches),
            "density": self.density.to_dict(),
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "FleetAggregate":
        aggregate = cls(alpha=state["alpha"])
        for key in ("hosts", "failed", "droppers", "low_util_droppers",
                    "high_util_hosts", "high_util_droppers",
                    "low_util_hosts", "low_util_band_droppers"):
            setattr(aggregate, key, int(state[key]))
        aggregate.strata = CategoryTally.from_dict(state["strata"])
        aggregate.root_causes = CategoryTally.from_dict(
            state["root_causes"])
        aggregate.transports = CategoryTally.from_dict(
            state["transports"])
        aggregate.failure_kinds = CategoryTally.from_dict(
            state["failure_kinds"])
        aggregate.drop_sketch = QuantileSketch.from_dict(
            state["drop_sketch"])
        aggregate.util_sketch = QuantileSketch.from_dict(
            state["util_sketch"])
        for attr in ("stratum_sketches", "cause_sketches"):
            table = getattr(aggregate, attr)
            for label, group in state[attr].items():
                table[label] = {
                    key: QuantileSketch.from_dict(sketch_state)
                    for key, sketch_state in group.items()}
        aggregate.density = Density2D.from_dict(state["density"])
        return aggregate

    def __eq__(self, other) -> bool:
        """Order-independent equality: integer state must match
        exactly; sketches compare through their own merge-order-
        tolerant ``__eq__``."""
        if not isinstance(other, FleetAggregate):
            return NotImplemented
        counters = ("alpha", "hosts", "failed", "droppers",
                    "low_util_droppers", "high_util_hosts",
                    "high_util_droppers", "low_util_hosts",
                    "low_util_band_droppers")
        if any(getattr(self, key) != getattr(other, key)
               for key in counters):
            return False
        if (self.strata != other.strata
                or self.root_causes != other.root_causes
                or self.transports != other.transports
                or self.failure_kinds != other.failure_kinds
                or self.drop_sketch != other.drop_sketch
                or self.util_sketch != other.util_sketch
                or self.density != other.density):
            return False
        for table_mine, table_theirs in (
                (self.stratum_sketches, other.stratum_sketches),
                (self.cause_sketches, other.cause_sketches)):
            if set(table_mine) != set(table_theirs):
                return False
            for label, group in table_mine.items():
                if any(group[key] != table_theirs[label][key]
                       for key in SKETCHED):
                    return False
        return True

    def __repr__(self) -> str:
        return (f"FleetAggregate(hosts={self.hosts}, "
                f"droppers={self.droppers}, failed={self.failed})")

    # -- rendering ----------------------------------------------------------

    def format_lines(self) -> List[str]:
        """Human-readable population summary (the CLI footer)."""
        lines = [
            f"  hosts: {self.hosts} folded"
            + (f", {self.failed} failed" if self.failed else ""),
            f"  droppers: {self.droppers} "
            f"({self.dropper_fraction * 100:.1f}%), "
            f"{self.low_util_droppers} at <50% utilization",
            f"  rank correlation (util, drops): "
            f"{self.rank_correlation():.3f}",
        ]
        if self.hosts:
            lines.append(
                f"  link util: p50 {self.util_sketch.quantile(50):.2f} "
                f" p90 {self.util_sketch.quantile(90):.2f}")
        for label, count in self.strata.most_common():
            group = self.stratum_sketches[label]
            lines.append(
                f"  stratum {label:<13} {count:>7} hosts  "
                f"util p50 {group['link_utilization'].quantile(50):.2f}"
                f"  drop p50 {group['drop_rate'].quantile(50):.2g}")
        if len(self.root_causes):
            parts = ", ".join(f"{label} {count}" for label, count
                              in self.root_causes.most_common())
            lines.append(f"  root causes: {parts}")
        return lines


class FleetCheckpoint:
    """Atomic on-disk snapshot of a sharded fleet run in progress.

    One JSON document per run: immutable ``meta`` (the population
    identity — seed, host count, shard count, fidelity, windows) and a
    per-shard ``{cursor, done, aggregate}`` record.  ``cursor`` is the
    next *global* host index the shard has not folded; because
    outcomes stream in index order, the folded set is always the
    contiguous prefix ``[start, cursor)`` and resume is exact.

    Writes go through a temp file + ``os.replace`` in the checkpoint's
    directory, so a kill at any instant leaves either the previous
    complete snapshot or the new one — never a torn file.
    """

    VERSION = 1

    def __init__(self, path: str | Path, meta: Dict):
        self.path = Path(path)
        self.meta = dict(meta)
        #: shard index (as int) -> {"cursor": int, "done": bool,
        #: "aggregate": FleetAggregate}
        self.shards: Dict[int, Dict] = {}

    @classmethod
    def fresh(cls, path: str | Path, meta: Dict,
              bounds: List[Tuple[int, int]],
              alpha: float = 0.01) -> "FleetCheckpoint":
        checkpoint = cls(path, meta)
        for shard, (start, _stop) in enumerate(bounds):
            checkpoint.shards[shard] = {
                "cursor": start, "done": False,
                "aggregate": FleetAggregate(alpha=alpha)}
        return checkpoint

    @classmethod
    def load(cls, path: str | Path) -> "FleetCheckpoint":
        path = Path(path)
        state = json.loads(path.read_text())
        if state.get("v") != cls.VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version "
                f"{state.get('v')!r} (expected {cls.VERSION})")
        checkpoint = cls(path, state["meta"])
        for shard, record in state["shards"].items():
            checkpoint.shards[int(shard)] = {
                "cursor": int(record["cursor"]),
                "done": bool(record["done"]),
                "aggregate": FleetAggregate.from_dict(
                    record["aggregate"])}
        return checkpoint

    def check_meta(self, expected: Dict) -> None:
        """Refuse to resume into a different population."""
        for key, value in expected.items():
            if self.meta.get(key) != value:
                raise ValueError(
                    f"{self.path}: checkpoint meta mismatch on "
                    f"{key!r}: checkpoint has {self.meta.get(key)!r}, "
                    f"this invocation wants {value!r} — refusing to "
                    f"resume a different population")

    def save(self) -> None:
        payload = {
            "v": self.VERSION,
            "meta": self.meta,
            "shards": {str(shard): {
                "cursor": record["cursor"],
                "done": record["done"],
                "aggregate": record["aggregate"].to_dict(),
            } for shard, record in sorted(self.shards.items())},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.path.parent),
            prefix=self.path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, separators=(",", ":"))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def merged(self) -> FleetAggregate:
        """Merge every shard's aggregate (associative, shard order)."""
        alpha = None
        merged: Optional[FleetAggregate] = None
        for shard in sorted(self.shards):
            aggregate = self.shards[shard]["aggregate"]
            if merged is None:
                alpha = aggregate.alpha
                merged = FleetAggregate(alpha=alpha)
            merged.merge(aggregate)
        return merged if merged is not None else FleetAggregate()

    def remove(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


#: Signature of the per-fold progress callback: (hosts_done, total).
ProgressFn = Callable[[int, int], None]
