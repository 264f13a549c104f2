"""The memory controller and bus, shared by CPUs and NIC DMA.

The model is hybrid: NIC DMA requests are discrete (each asks for its
latency at issue time), while aggregate bandwidth is fluid — demand
sources (antagonist, CPU copies, NIC writes) are tracked as rates and a
periodic tick recomputes utilization and a weighted max-min bandwidth
allocation.

Two outputs drive everything in the paper:

- ``utilization`` feeds a load-latency curve: as offered load approaches
  the achievable bandwidth, per-access latency rises steeply — the
  paper: "similar to any load-latency curve for a closed-loop system,
  the service times for PCIe write requests will also increase".
- the allocation yields per-source achieved bandwidth, the quantity in
  Fig. 6's "Total Memory Bandwidth" bars.  Under saturation CPU-class
  sources out-compete the NIC (higher weight), matching §3.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.calibration import QUEUE_GAMMA, QUEUE_KNEE
from repro.core.config import MemoryConfig
from repro.sim.component import Component
from repro.sim.engine import Simulator

__all__ = ["MemoryController", "TrafficCounter", "queue_delay_for",
           "weighted_water_fill"]


def queue_delay_for(rho: float, config: MemoryConfig) -> float:
    """Additional per-access queueing delay at utilization ``rho``.

    Zero below the knee, then a convex rise to ``max_queue_delay`` at
    (and beyond) saturation — the load-latency curve of §3.2.
    """
    if rho <= QUEUE_KNEE:
        return 0.0
    x = min((rho - QUEUE_KNEE) / (1.0 - QUEUE_KNEE), 1.0)
    return config.max_queue_delay * x ** QUEUE_GAMMA


class TrafficCounter:
    """A byte counter that the tick turns into a demand rate (EWMA)."""

    __slots__ = ("name", "weight", "source_class", "bytes_pending", "rate_Bps")

    def __init__(self, name: str, source_class: str, weight: float):
        self.name = name
        self.source_class = source_class
        self.weight = weight
        self.bytes_pending = 0
        self.rate_Bps = 0.0

    def add(self, n_bytes: int) -> None:
        self.bytes_pending += n_bytes


class _ConstantSource:
    """A fixed-rate demand source (the STREAM antagonist)."""

    __slots__ = ("name", "weight", "source_class", "rate_Bps")

    def __init__(self, name: str, source_class: str, weight: float,
                 rate_Bps: float):
        self.name = name
        self.source_class = source_class
        self.weight = weight
        self.rate_Bps = rate_Bps


def weighted_water_fill(
    demands: List[float], weights: List[float], capacity: float
) -> List[float]:
    """Weighted max-min allocation of ``capacity`` across sources.

    Each source receives at most its demand; leftover capacity is
    redistributed in proportion to weights until exhausted.
    """
    n = len(demands)
    if n == 0:
        return []
    alloc = [0.0] * n
    active = [i for i in range(n) if demands[i] > 0]
    remaining = capacity
    while active and remaining > 1e-9:
        total_weight = sum(weights[i] for i in active)
        satisfied = [
            i for i in active
            if demands[i] - alloc[i]
            <= remaining * weights[i] / total_weight + 1e-12
        ]
        if satisfied:
            for i in satisfied:
                remaining -= demands[i] - alloc[i]
                alloc[i] = demands[i]
            active = [i for i in active if i not in set(satisfied)]
        else:
            # No source fully satisfiable: split what is left by weight.
            for i in active:
                alloc[i] += remaining * weights[i] / total_weight
            remaining = 0.0
    return alloc


class MemoryController(Component):
    """Tracks demand, computes utilization/allocation, answers latency."""

    label = "memory"

    def __init__(self, sim: Simulator, config: Optional[MemoryConfig] = None):
        self.sim = sim
        self.config = config or MemoryConfig()
        self._counters: Dict[str, TrafficCounter] = {}
        self._constants: Dict[str, _ConstantSource] = {}
        #: Offered load / achievable bandwidth (may exceed 1), as of the
        #: last tick; a plain attribute, read per packet.
        self.utilization = 0.0
        self._queue_delay = 0.0
        self._allocation: Dict[str, float] = {}
        # Time-integrals of achieved bandwidth for reporting.
        self._achieved_integral: Dict[str, float] = {}
        self._integral_since = sim.now
        self._last_tick = sim.now
        self._tick_scheduled = False
        self.start()

    # -- source registration --------------------------------------------

    def register_counter(self, name: str, source_class: str,
                         weight: Optional[float] = None) -> TrafficCounter:
        """A byte-counter source ("nic" or "cpu" class)."""
        self._check_class(source_class)
        if name in self._counters or name in self._constants:
            raise ValueError(f"duplicate memory source {name!r}")
        counter = TrafficCounter(
            name, source_class, weight
            if weight is not None else self._default_weight(source_class))
        self._counters[name] = counter
        self._achieved_integral.setdefault(name, 0.0)
        return counter

    def register_constant(self, name: str, source_class: str,
                          rate_Bps: float,
                          weight: Optional[float] = None) -> None:
        """A fixed-rate source (antagonist)."""
        self._check_class(source_class)
        if rate_Bps < 0:
            raise ValueError(f"negative rate for {name!r}")
        if name in self._counters or name in self._constants:
            raise ValueError(f"duplicate memory source {name!r}")
        self._constants[name] = _ConstantSource(
            name, source_class, weight
            if weight is not None else self._default_weight(source_class),
            rate_Bps)
        self._achieved_integral.setdefault(name, 0.0)

    def set_constant_rate(self, name: str, rate_Bps: float) -> None:
        self._constants[name].rate_Bps = rate_Bps

    def _default_weight(self, source_class: str) -> float:
        return (self.config.nic_weight if source_class == "nic"
                else self.config.cpu_weight)

    @staticmethod
    def _check_class(source_class: str) -> None:
        if source_class not in ("nic", "cpu"):
            raise ValueError(
                f"source class must be 'nic' or 'cpu', got {source_class!r}"
            )

    def bind_own_metrics(self, registry, component: str) -> None:
        """Register bus-level gauges plus one achieved-bandwidth gauge
        per demand source known at bind time (all reader-backed)."""
        registry.gauge("utilization", component, unit="fraction",
                       fn=lambda: self.utilization)
        registry.gauge("queue_delay_us", component, unit="us",
                       fn=lambda: self._queue_delay * 1e6)
        registry.gauge("bandwidth_GBps", component, unit="GB/s",
                       fn=lambda: self.total_achieved_bandwidth() / 1e9)
        for source in [*self._counters, *self._constants]:
            registry.gauge(
                f"bw_{source}_GBps", component, unit="GB/s",
                fn=lambda s=source:
                    self.achieved_bandwidth().get(s, 0.0) / 1e9)

    # -- periodic tick ----------------------------------------------------

    def start(self) -> None:
        if not self._tick_scheduled:
            self._tick_scheduled = True
            self.sim.call(self.config.tick_interval, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        interval = now - self._last_tick
        self._last_tick = now
        if interval > 0:
            alpha = min(interval / self.config.demand_tau, 1.0)
            for counter in self._counters.values():
                instant = counter.bytes_pending / interval
                counter.bytes_pending = 0
                counter.rate_Bps += alpha * (instant - counter.rate_Bps)
        self._recompute(interval)
        self.sim.call(self.config.tick_interval, self._tick)

    def _sources(self) -> List[Tuple[str, str, float, float]]:
        """(name, class, demand, weight) for all sources."""
        out = []
        for c in self._counters.values():
            out.append((c.name, c.source_class, c.rate_Bps, c.weight))
        for c in self._constants.values():
            out.append((c.name, c.source_class, c.rate_Bps, c.weight))
        return out

    def _recompute(self, elapsed: float) -> None:
        cfg = self.config
        sources = self._sources()
        capacity = cfg.achievable_Bps
        # MBA/MPAM-style QoS: cap aggregate CPU-class demand so the NIC
        # keeps a reserved slice of the bus (paper §4 extension).
        if cfg.nic_reserved_fraction > 0:
            cpu_cap = (1.0 - cfg.nic_reserved_fraction) * capacity
            cpu_total = sum(d for _, cls, d, _ in sources if cls == "cpu")
            if cpu_total > cpu_cap:
                scale = cpu_cap / cpu_total
                sources = [
                    (n, cls, d * scale if cls == "cpu" else d, w)
                    for n, cls, d, w in sources
                ]
        total_demand = sum(d for _, _, d, _ in sources)
        self.utilization = total_demand / capacity if capacity else 0.0
        self._queue_delay = queue_delay_for(self.utilization, cfg)
        alloc = weighted_water_fill(
            [d for _, _, d, _ in sources],
            [w for _, _, _, w in sources],
            capacity,
        )
        self._allocation = {
            name: a for (name, _, _, _), a in zip(sources, alloc)
        }
        if elapsed > 0:
            for name, achieved in self._allocation.items():
                self._achieved_integral[name] = (
                    self._achieved_integral.get(name, 0.0)
                    + achieved * elapsed
                )


    # -- latency queries ---------------------------------------------------

    def dma_write_latency(self) -> float:
        """Memory-side latency of one DMA write (idle + bus queueing)."""
        return self.config.idle_latency + self._queue_delay

    def walk_access_latency(self) -> float:
        """Latency of one page-table-walk read.

        Walk reads observe only a fraction of the DMA-write queueing
        inflation (they bypass the write-combining path).
        """
        return (self.config.walk_base_latency
                + self.config.walk_contention_fraction * self._queue_delay)

    # -- reporting -----------------------------------------------------------

    def reset_accounting(self) -> None:
        """Restart achieved-bandwidth integrals (warmup boundary)."""
        for name in self._achieved_integral:
            self._achieved_integral[name] = 0.0
        self._integral_since = self.sim.now

    def reset_own_stats(self) -> None:
        self.reset_accounting()

    def achieved_bandwidth(self) -> Dict[str, float]:
        """Mean achieved bytes/s per source since the last reset."""
        elapsed = self.sim.now - self._integral_since
        if elapsed <= 0:
            return {name: 0.0 for name in self._achieved_integral}
        return {
            name: integral / elapsed
            for name, integral in self._achieved_integral.items()
        }

    def total_achieved_bandwidth(self) -> float:
        return sum(self.achieved_bandwidth().values())

    def current_demands(self) -> Dict[str, float]:
        return {name: d for name, _, d, _ in self._sources()}
