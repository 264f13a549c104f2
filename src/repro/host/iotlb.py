"""The I/O translation lookaside buffer (IOTLB).

A small cache of completed translations inside the IOMMU; the paper's
testbed has 128 entries.  Supports fully-associative LRU (default) and
set-associative organizations; both matter: capacity misses drive the
Fig. 3 knee, and real IOTLBs add conflict misses on top.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Sequence

from repro.sim.component import Component

__all__ = ["Iotlb"]


def _no_cost(key: int) -> float:
    return 0.0


class Iotlb(Component):
    """LRU translation cache keyed by page start address."""

    label = "iotlb"

    def __init__(self, entries: int = 128, ways: Optional[int] = None):
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        if ways is not None:
            if ways <= 0 or entries % ways != 0:
                raise ValueError(
                    f"ways ({ways}) must divide entries ({entries})"
                )
        self.entries = entries
        self.ways = ways
        self._sets: List[OrderedDict] = [
            OrderedDict()
            for _ in range(entries // ways if ways else 1)
        ]
        self._way_capacity = ways if ways else entries
        #: Fully-associative fast path: the lone set, pre-resolved so
        #: ``access`` skips the hash-mix call on every lookup.
        self._single: Optional[OrderedDict] = (
            self._sets[0] if len(self._sets) == 1 else None)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _set_for(self, key: int) -> OrderedDict:
        if len(self._sets) == 1:
            return self._sets[0]
        # Hash-mix the page frame number before indexing: 2 MB pages are
        # 512-frame aligned and would otherwise collapse onto a handful
        # of sets (real IOTLBs hash their index for the same reason).
        frame = key >> 12
        frame ^= frame >> 7
        frame ^= frame >> 13
        return self._sets[frame % len(self._sets)]

    def access(self, key: int) -> bool:
        """Look up ``key``; inserts it on miss.  True on hit."""
        hits = self.hits
        self.lookup((key,), 0.0, _no_cost)
        return self.hits > hits

    def lookup(self, keys: Sequence[int], hit_cost: float,
               miss_cost: Callable[[int], float]) -> float:
        """Look up each of ``keys`` in order, inserting misses (LRU), and
        return their summed cost, added in key order: ``hit_cost`` per
        hit and ``miss_cost(key)`` per miss, called as the miss happens.

        The IOMMU prices a whole DMA's pages with one call; its
        ``miss_cost`` walks the page table.
        """
        cost = 0.0
        hits = misses = evictions = 0
        single = self._single
        sets = self._sets
        n_sets = len(sets)
        capacity = self._way_capacity
        for key in keys:
            if single is None:
                # Open-coded _set_for: this runs per page per packet.
                frame = key >> 12
                frame ^= frame >> 7
                frame ^= frame >> 13
                line = sets[frame % n_sets]
            else:
                line = single
            if key in line:
                line.move_to_end(key)
                hits += 1
                cost += hit_cost
                continue
            misses += 1
            line[key] = True
            if len(line) > capacity:
                line.popitem(last=False)
                evictions += 1
            cost += miss_cost(key)
        self.hits += hits
        self.misses += misses
        self.evictions += evictions
        return cost

    def bind_own_metrics(self, registry, component: str) -> None:
        """Register hit/miss/eviction counters in ``registry``."""
        for name, fn in (
            ("hits", lambda: self.hits),
            ("misses", lambda: self.misses),
            ("evictions", lambda: self.evictions),
        ):
            registry.counter(name, component, fn=fn)
        registry.gauge("occupancy", component, unit="entries",
                       fn=lambda: float(self.occupancy))
        registry.gauge("miss_ratio", component, unit="fraction",
                       fn=self.miss_ratio)

    def contains(self, key: int) -> bool:
        """Probe without touching LRU state or stats."""
        return key in self._set_for(key)

    def invalidate(self, key: int) -> bool:
        """Drop one entry (software IOTLB invalidation); True if present."""
        line = self._set_for(key)
        if key in line:
            del line[key]
            return True
        return False

    def invalidate_all(self) -> None:
        for line in self._sets:
            line.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(line) for line in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset_own_stats(self) -> None:
        """Zero counters without dropping cached entries (used at the
        warmup/measurement boundary)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
