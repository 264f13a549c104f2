"""Metrics registry: counters, gauges, and quantile-sketch histograms.

Each metric belongs to one *component instance* (``nic``, ``iommu``,
``cpu3``, ``memory`` …) and has a short name; the full name is
``component.name``.  Components either update metrics in place
(:meth:`Counter.inc`, :meth:`QuantileSketch.observe`) or register a
zero-cost *reader* callable so the registry can pull the value of an
existing attribute at snapshot time — the hot path then pays nothing.
A histogram is a :class:`~repro.obs.sketch.QuantileSketch`: exact
count/mean/min/max, percentiles within its relative error ``alpha``,
and mergeable across hosts, shards and workers.

The registry is the single enumeration point for every paper
observable: drop rate, IOTLB misses per packet, memory bandwidth,
host-delay percentiles, cwnd, retransmits.  ``snapshot()`` returns a
plain nested dict; ``to_json()`` serializes it.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.obs.sketch import QuantileSketch

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count.

    Either updated in place with :meth:`inc`, or *reader-backed*: the
    ``fn`` callable pulls the count from an existing component
    attribute, so instrumented code paths need no extra stores.
    """

    __slots__ = ("name", "unit", "_value", "_fn")

    def __init__(self, name: str, unit: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.unit = unit
        self._value = 0
        self._fn = fn

    def inc(self, n: float = 1) -> None:
        if self._fn is not None:
            raise TypeError(f"counter {self.name!r} is reader-backed")
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self._value += n

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def reset(self) -> None:
        """Zero the stored count (reader-backed counters follow their
        source attribute and are reset by the owning component)."""
        self._value = 0


class Gauge:
    """A point-in-time value; settable or reader-backed."""

    __slots__ = ("name", "unit", "_value", "_fn")

    def __init__(self, name: str, unit: str = "",
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.unit = unit
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is reader-backed")
        self._value = value

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value


class MetricsRegistry:
    """All metrics of one simulation, keyed ``component.name``.

    Registration of a duplicate full name raises — two component
    instances must bind under distinct component labels.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, QuantileSketch] = {}
        self._flush_callbacks: List[Callable[[], None]] = []

    # -- registration ------------------------------------------------------

    @staticmethod
    def _full_name(name: str, component: str) -> str:
        if not name:
            raise ValueError("metric name must be non-empty")
        return f"{component}.{name}" if component else name

    def _claim(self, full: str) -> None:
        if (full in self._counters or full in self._gauges
                or full in self._histograms):
            raise ValueError(f"duplicate metric {full!r}")

    def counter(self, name: str, component: str = "", unit: str = "",
                fn: Optional[Callable[[], float]] = None) -> Counter:
        full = self._full_name(name, component)
        self._claim(full)
        metric = Counter(full, unit, fn)
        self._counters[full] = metric
        return metric

    def gauge(self, name: str, component: str = "", unit: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        full = self._full_name(name, component)
        self._claim(full)
        metric = Gauge(full, unit, fn)
        self._gauges[full] = metric
        return metric

    def histogram(self, name: str, component: str = "") -> QuantileSketch:
        full = self._full_name(name, component)
        self._claim(full)
        metric = QuantileSketch()
        self._histograms[full] = metric
        return metric

    # -- lookup ------------------------------------------------------------

    def get(self, full_name: str):
        for table in (self._counters, self._gauges, self._histograms):
            if full_name in table:
                return table[full_name]
        raise KeyError(full_name)

    def __contains__(self, full_name: str) -> bool:
        return (full_name in self._counters or full_name in self._gauges
                or full_name in self._histograms)

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def names(self) -> List[str]:
        return sorted([*self._counters, *self._gauges, *self._histograms])

    # -- deferred aggregation -----------------------------------------------

    def add_flush_callback(self, fn: Callable[[], None]) -> None:
        """Register a drain hook for a component that buffers hot-path
        samples locally instead of observing per event.

        Callbacks run in registration order before every
        ``snapshot()``, so the deferral is invisible to every reader of
        the registry.  Samples a component buffers during warmup are
        its own to drop at its ``reset_stats()``.
        """
        self._flush_callbacks.append(fn)

    def flush(self) -> None:
        """Drain all pending deferred samples into their metrics."""
        for fn in self._flush_callbacks:
            fn()

    # -- output ------------------------------------------------------------

    def snapshot(self, prefix: str = "") -> Dict[str, Dict]:
        """Every metric's current value as a plain nested dict.

        ``prefix`` restricts the snapshot to full names starting with
        it — e.g. ``"host1/"`` selects one host's subtree of a
        multi-receiver topology.
        """
        self.flush()
        def wanted(items):
            return sorted(
                (name, metric) for name, metric in items
                if name.startswith(prefix)
            )

        return {
            "counters": {name: c.value
                         for name, c in wanted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in wanted(self._gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in wanted(self._histograms.items())},
        }

    def live_values(self, prefix: str = ""):
        """Yield ``(full_name, kind, value)`` for counters and gauges.

        The *sampling* read path: unlike :meth:`snapshot` it does not
        flush deferred samples and never touches the histograms, so a
        mid-run poll cannot perturb the measurement — results stay
        bit-identical with or without a sampler attached.  Iteration is
        in sorted name order for deterministic sample streams.
        """
        for name in sorted(self._counters):
            if name.startswith(prefix):
                yield name, "counter", self._counters[name].value
        for name in sorted(self._gauges):
            if name.startswith(prefix):
                yield name, "gauge", self._gauges[name].value

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def reset_window(self) -> None:
        """Warmup boundary: zero stored counters and histogram samples.

        Reader-backed metrics follow their source attributes, and
        deferred samples their buffers, which the owning components
        reset through their own ``reset_stats()``.
        """
        for counter in self._counters.values():
            if counter._fn is None:
                counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
