"""Mergeable, deterministic summaries for fleet-scale aggregation.

Watching a fleet means folding millions of per-run summaries into one —
which only works if the summary is *mergeable*: constant-size, and with
a ``merge()`` that is associative and order-independent, so it does not
matter which worker saw which run or in what order the parent folded
them.

:class:`QuantileSketch` is a DDSketch-style log-bucketed quantile
sketch (Masson et al., VLDB '19).  Values land in geometric buckets
``gamma**i`` with ``gamma = (1 + alpha) / (1 - alpha)``, so every
bucket midpoint is within relative error ``alpha`` of anything stored
in it.  We choose this shape over KLL or t-digest deliberately: their
merges are compaction- or centroid-order-dependent, while merging two
log-bucketed sketches is plain bucket-count addition — *exactly*
associative, commutative, and deterministic, which is what the
fleet-aggregation protocol (ROADMAP item 2) needs.

Accuracy contract: ``quantile(p)`` returns a value within relative
error ``alpha`` of some sample whose rank differs from the target rank
``p/100 * (count - 1)`` by less than one.  The default ``alpha`` of 1%
keeps p50/p99/p999 estimates within 1% of the true order statistic —
tested against a sorted-list oracle in ``tests/test_sketch.py``.

The bucket table is bounded by ``max_bins``; the default (4096) covers
any value span of ~1e35 at 1% error, so real metric streams never hit
the collapse path.  If an adversarial stream does, the lowest buckets
are folded together (biasing only the extreme low quantiles) and
``collapsed`` is set.  Collapse is a deterministic function of the
bucket multiset, so equal-content sketches stay equal — but collapse at
*different* intermediate groupings can differ, which is why the cap is
set far above any realistic occupancy.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["CategoryTally", "Density2D", "QuantileSketch"]

#: Magnitudes below this collapse into the exact-zero bucket.
_MIN_TRACKED = 1e-12


class QuantileSketch:
    """Fixed-size quantile sketch with an exactly-associative merge."""

    __slots__ = ("alpha", "max_bins", "_gamma", "_log_gamma", "count",
                 "total", "minimum", "maximum", "zero_count", "_bins",
                 "_neg_bins", "collapsed")

    def __init__(self, alpha: float = 0.01, max_bins: int = 4096):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        self.alpha = alpha
        self.max_bins = max_bins
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._bins: Dict[int, int] = {}       # key i: (gamma^(i-1), gamma^i]
        self._neg_bins: Dict[int, int] = {}   # mirrored for negatives
        self.reset()

    # -- ingest -------------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def observe(self, value: float, n: int = 1) -> None:
        """Fold ``n`` occurrences of ``value`` into the sketch."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot observe non-finite value {value!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.count += n
        self.total += value * n
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if abs(value) < _MIN_TRACKED:
            self.zero_count += n
        elif value > 0:
            key = self._key(value)
            self._bins[key] = self._bins.get(key, 0) + n
        else:
            key = self._key(-value)
            self._neg_bins[key] = self._neg_bins.get(key, 0) + n
        self._maybe_collapse()

    def extend(self, values: Iterable[float]) -> None:
        """Fold every value of ``values``: the batched insert.

        Leaves exactly the state one :meth:`observe` per value leaves.
        ``total`` adds the values in their order (float addition
        depends on it), every bucket key comes from :meth:`_key`, and
        one collapse at the end keeps what a collapse after every
        value keeps: the top ``max_bins`` keys, with every lower
        bucket folded into the lowest of them.  A non-finite value
        raises before anything is folded.
        """
        values = [float(value) for value in values]
        for value in values:
            if not math.isfinite(value):
                raise ValueError(
                    f"cannot observe non-finite value {value!r}")
        if not values:
            return
        total = self.total
        for value in values:
            total += value
        self.total = total
        self.count += len(values)
        low, high = min(values), max(values)
        if low < self.minimum:
            self.minimum = low
        if high > self.maximum:
            self.maximum = high
        positive = [value for value in values if value >= _MIN_TRACKED]
        negative = [-value for value in values if value <= -_MIN_TRACKED]
        self.zero_count += len(values) - len(positive) - len(negative)
        for bins, magnitudes in ((self._bins, positive),
                                 (self._neg_bins, negative)):
            for key, n in Counter(map(self._key, magnitudes)).items():
                bins[key] = bins.get(key, 0) + n
        self._maybe_collapse()

    def _maybe_collapse(self) -> None:
        # Fold the lowest-magnitude buckets together until under the
        # cap.  Deterministic in the bucket multiset; biases only the
        # extreme low quantiles of an already-pathological stream.
        for bins in (self._bins, self._neg_bins):
            while len(bins) > self.max_bins:
                keys = sorted(bins)
                low, second = keys[0], keys[1]
                bins[second] += bins.pop(low)
                self.collapsed = True

    # -- merge protocol -----------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (bucket-count addition).

        Requires identical ``(alpha, max_bins)`` — merging sketches with
        different resolutions would silently degrade the error bound.
        Returns ``self`` so folds chain.
        """
        if (other.alpha, other.max_bins) != (self.alpha, self.max_bins):
            raise ValueError(
                "cannot merge sketches with different parameters: "
                f"({self.alpha}, {self.max_bins}) vs "
                f"({other.alpha}, {other.max_bins})")
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.zero_count += other.zero_count
        for key, occupancy in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + occupancy
        for key, occupancy in other._neg_bins.items():
            self._neg_bins[key] = self._neg_bins.get(key, 0) + occupancy
        self.collapsed = self.collapsed or other.collapsed
        self._maybe_collapse()
        return self

    # -- queries ------------------------------------------------------------

    def _midpoint(self, key: int) -> float:
        # Harmonic midpoint of (gamma^(k-1), gamma^k]: within alpha
        # relative error of every value in the bucket.
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def quantile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (``p`` in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            raise ValueError("quantile() of an empty sketch")
        if p == 0.0:
            return self.minimum
        if p == 100.0:
            return self.maximum
        target = p / 100.0 * (self.count - 1)
        cumulative = 0
        # Walk value order: negatives (descending key = ascending
        # value), zeros, positives (ascending key).  A bucket midpoint
        # is clamped into [minimum, maximum], which only moves it
        # closer to the values the bucket holds.
        for key in sorted(self._neg_bins, reverse=True):
            cumulative += self._neg_bins[key]
            if cumulative > target:
                return self._clamp(-self._midpoint(key))
        cumulative += self.zero_count
        if cumulative > target:
            return 0.0
        for key in sorted(self._bins):
            cumulative += self._bins[key]
            if cumulative > target:
                return self._clamp(self._midpoint(key))
        return self.maximum

    def _clamp(self, value: float) -> float:
        return min(max(value, self.minimum), self.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """Headline statistics in the metrics-snapshot field order; an
        empty sketch reports every field as zero."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                    "p99": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(50),
            "p90": self.quantile(90),
            "p99": self.quantile(99),
            "min": self.minimum,
            "max": self.maximum,
        }

    def reset(self) -> None:
        """Forget every observation; parameters are kept."""
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.zero_count = 0
        self._bins.clear()
        self._neg_bins.clear()
        self.collapsed = False

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe state; exact round-trip via :meth:`from_dict`."""
        return {
            "alpha": self.alpha,
            "max_bins": self.max_bins,
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "zero": self.zero_count,
            "bins": {str(key): occ for key, occ in sorted(
                self._bins.items())},
            "neg_bins": {str(key): occ for key, occ in sorted(
                self._neg_bins.items())},
            "collapsed": self.collapsed,
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "QuantileSketch":
        sketch = cls(alpha=state["alpha"], max_bins=state["max_bins"])
        sketch.count = int(state["count"])
        sketch.total = float(state["total"])
        if state["min"] is not None:
            sketch.minimum = float(state["min"])
        if state["max"] is not None:
            sketch.maximum = float(state["max"])
        sketch.zero_count = int(state["zero"])
        sketch._bins = {int(k): int(v) for k, v in state["bins"].items()}
        sketch._neg_bins = {int(k): int(v)
                            for k, v in state["neg_bins"].items()}
        sketch.collapsed = bool(state["collapsed"])
        return sketch

    def __eq__(self, other) -> bool:
        """Exact equality of the quantile-bearing state (bucket
        counts, extremes, parameters).  ``total`` is a float
        accumulator, so its last ulp depends on merge order; it is
        compared to relative 1e-9 so equality stays order-independent.
        """
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        mine, theirs = self.to_dict(), other.to_dict()
        total_a = mine.pop("total")
        total_b = theirs.pop("total")
        return mine == theirs and math.isclose(
            total_a, total_b, rel_tol=1e-9, abs_tol=1e-12)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"QuantileSketch(count={self.count}, "
                f"bins={len(self._bins) + len(self._neg_bins)}, "
                f"alpha={self.alpha})")


class Density2D:
    """Mergeable 2-D density grid: linear x bins × log-scaled y bins.

    The streaming replacement for a raw scatter: each ``(x, y)`` point
    lands in one cell of a fixed grid, so a million-host population
    compresses to at most ``x_bins * (y_decades * y_per_decade + 1)``
    integer counts — constant memory, and ``merge()`` is plain cell
    addition (exactly associative and commutative, like
    :class:`QuantileSketch`).

    The y axis is logarithmic with a dedicated *zero* bin below
    ``y_floor``, matching how Fig. 1 plots drop rates: the interesting
    structure spans 1e-6..1e-1 and a linear grid would collapse it
    into one bin.  X values are clamped into ``[x_min, x_max]``;
    y values above ``y_ceil`` land in the top bin.

    Cell midpoints (:meth:`x_mid` / :meth:`y_mid`) reconstruct a
    weighted scatter for rendering and for rank statistics
    (:func:`repro.workload.fleet_agg.density_rank_correlation`).
    """

    __slots__ = ("x_min", "x_max", "x_bins", "y_floor", "y_ceil",
                 "y_per_decade", "_cells")

    #: y bin index reserved for values below ``y_floor`` (exact zeros
    #: and negligible magnitudes).
    ZERO_BIN = -1

    def __init__(self, x_min: float = 0.0, x_max: float = 1.1,
                 x_bins: int = 44, y_floor: float = 1e-7,
                 y_ceil: float = 1.0, y_per_decade: int = 8):
        if not x_max > x_min:
            raise ValueError(
                f"x_max must exceed x_min, got [{x_min}, {x_max}]")
        if x_bins < 1 or y_per_decade < 1:
            raise ValueError("x_bins and y_per_decade must be >= 1")
        if not 0.0 < y_floor < y_ceil:
            raise ValueError(
                f"need 0 < y_floor < y_ceil, got [{y_floor}, {y_ceil}]")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.x_bins = int(x_bins)
        self.y_floor = float(y_floor)
        self.y_ceil = float(y_ceil)
        self.y_per_decade = int(y_per_decade)
        self._cells: Dict[Tuple[int, int], int] = {}

    # -- binning ------------------------------------------------------------

    def _x_key(self, x: float) -> int:
        span = self.x_max - self.x_min
        position = (float(x) - self.x_min) / span
        return min(self.x_bins - 1, max(0, int(position * self.x_bins)))

    def _y_key(self, y: float) -> int:
        y = float(y)
        if y < self.y_floor:
            return self.ZERO_BIN
        if y > self.y_ceil:
            y = self.y_ceil
        # Log-decade position above the floor, quantized.
        decades = math.log10(y / self.y_floor)
        key = int(decades * self.y_per_decade)
        top = self._top_y_key()
        return min(key, top)

    def _top_y_key(self) -> int:
        decades = math.log10(self.y_ceil / self.y_floor)
        return int(math.ceil(decades * self.y_per_decade))

    def observe(self, x: float, y: float, n: int = 1) -> None:
        """Fold ``n`` points at ``(x, y)`` into the grid."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(
                f"cannot observe non-finite point ({x!r}, {y!r})")
        key = (self._x_key(x), self._y_key(y))
        self._cells[key] = self._cells.get(key, 0) + n

    def extend(self, points: Iterable[Tuple[float, float]]) -> None:
        """Fold every ``(x, y)`` of ``points``: the batched insert, with
        the cells one :meth:`observe` per point fills.  A non-finite
        point raises before anything is folded."""
        points = [(float(x), float(y)) for x, y in points]
        for x, y in points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(
                    f"cannot observe non-finite point ({x!r}, {y!r})")
        cells = self._cells
        for key, n in Counter((self._x_key(x), self._y_key(y))
                              for x, y in points).items():
            cells[key] = cells.get(key, 0) + n

    # -- midpoints ----------------------------------------------------------

    def x_mid(self, xi: int) -> float:
        width = (self.x_max - self.x_min) / self.x_bins
        return self.x_min + (xi + 0.5) * width

    def y_mid(self, yi: int) -> float:
        if yi == self.ZERO_BIN:
            return 0.0
        # Geometric midpoint of the log-spaced bin; the top bin is the
        # clamp target for y > y_ceil, so its midpoint must not
        # overshoot the ceiling.
        mid = self.y_floor * 10.0 ** ((yi + 0.5) / self.y_per_decade)
        return min(mid, self.y_ceil)

    # -- merge protocol -----------------------------------------------------

    def _params(self) -> Tuple:
        return (self.x_min, self.x_max, self.x_bins, self.y_floor,
                self.y_ceil, self.y_per_decade)

    def merge(self, other: "Density2D") -> "Density2D":
        """Fold ``other`` into ``self`` (cell-count addition)."""
        if other._params() != self._params():
            raise ValueError(
                "cannot merge density grids with different binning: "
                f"{self._params()} vs {other._params()}")
        for key, occupancy in other._cells.items():
            self._cells[key] = self._cells.get(key, 0) + occupancy
        return self

    # -- queries ------------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(self._cells.values())

    def cells(self) -> List[Tuple[Tuple[int, int], int]]:
        """``((xi, yi), count)`` sorted by bin key (deterministic)."""
        return sorted(self._cells.items())

    def points(self) -> List[Tuple[float, float, int]]:
        """``(x_mid, y_mid, count)`` per occupied cell — the weighted
        scatter the figure renders."""
        return [(self.x_mid(xi), self.y_mid(yi), count)
                for (xi, yi), count in self.cells()]

    def count_where(self, x_test=None, y_test=None) -> int:
        """Points whose cell *midpoints* satisfy the given predicates."""
        total = 0
        for (xi, yi), count in self._cells.items():
            if x_test is not None and not x_test(self.x_mid(xi)):
                continue
            if y_test is not None and not y_test(self.y_mid(yi)):
                continue
            total += count
        return total

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "x_min": self.x_min,
            "x_max": self.x_max,
            "x_bins": self.x_bins,
            "y_floor": self.y_floor,
            "y_ceil": self.y_ceil,
            "y_per_decade": self.y_per_decade,
            "cells": {f"{xi},{yi}": count
                      for (xi, yi), count in self.cells()},
        }

    @classmethod
    def from_dict(cls, state: Dict) -> "Density2D":
        grid = cls(x_min=state["x_min"], x_max=state["x_max"],
                   x_bins=state["x_bins"], y_floor=state["y_floor"],
                   y_ceil=state["y_ceil"],
                   y_per_decade=state["y_per_decade"])
        for key, count in state["cells"].items():
            xi, yi = key.split(",")
            grid._cells[(int(xi), int(yi))] = int(count)
        return grid

    def __eq__(self, other) -> bool:
        if not isinstance(other, Density2D):
            return NotImplemented
        return (self._params() == other._params()
                and self._cells == other._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:
        return (f"Density2D(total={self.total}, "
                f"occupied={len(self._cells)})")


class CategoryTally:
    """Mergeable label → count map (the per-root-cause counters)."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[str, int]] = None):
        self._counts: Dict[str, int] = dict(counts or {})

    def add(self, label: str, n: int = 1) -> None:
        self._counts[label] = self._counts.get(label, 0) + n

    def merge(self, other: "CategoryTally") -> "CategoryTally":
        for label, n in other._counts.items():
            self.add(label, n)
        return self

    def get(self, label: str) -> int:
        return self._counts.get(label, 0)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def most_common(self) -> List[Tuple[str, int]]:
        """(label, count) sorted by count desc, label asc (stable)."""
        return sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def to_dict(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))

    @classmethod
    def from_dict(cls, state: Dict[str, int]) -> "CategoryTally":
        return cls({str(k): int(v) for k, v in state.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CategoryTally):
            return NotImplemented
        return self._counts == other._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"CategoryTally({self.to_dict()!r})"
