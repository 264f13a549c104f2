"""IOMMU page table and walk-cost model.

x86-style 4-level table: a 4 KB translation walks PML4 → PDPT → PD → PT
(4 entry reads); a 2 MB translation stops at the PD (3 reads).  Real
IOMMUs cache upper-level entries in small page-walk caches (PWCs), so
an IOTLB miss usually costs one leaf read and occasionally more — the
paper: "a miss ... can trigger one or more memory accesses (depending
on what page entry level was already cached)".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

from repro.host.addressing import PAGE_4K, Region

__all__ = ["PageTable", "TranslationFault"]

# Address bits consumed per level, leaf-most first (x86-64 radix).
_LEVEL_SHIFTS_4K = (12, 21, 30, 39)   # PT, PD, PDPT, PML4
_LEVEL_SHIFTS_2M = (21, 30, 39)       # PD, PDPT, PML4


class TranslationFault(LookupError):
    """DMA to an address with no IOMMU mapping (would be an IOMMU fault
    and a dropped transaction on real hardware)."""


class _LruSet(OrderedDict):
    """Tiny LRU used for each page-walk-cache level."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def probe(self, key: int) -> bool:
        """True on hit; inserts/refreshes the entry either way."""
        if self.capacity == 0:
            return False
        if key in self:
            self.move_to_end(key)
            return True
        self[key] = True
        if len(self) > self.capacity:
            self.popitem(last=False)
        return False


class PageTable:
    """Registered IOMMU mappings plus per-level walk caches."""

    def __init__(self, walk_cache_entries: int = 32):
        if walk_cache_entries < 0:
            raise ValueError("walk_cache_entries must be non-negative")
        #: page start address -> page size
        self._entries: Dict[int, int] = {}
        # One PWC per non-leaf level (PD, PDPT, PML4 indices).
        self._walk_caches: Tuple[_LruSet, ...] = tuple(
            _LruSet(walk_cache_entries) for _ in range(3)
        )
        self.walks = 0
        self.walk_memory_accesses = 0

    # -- mapping management -------------------------------------------------

    def register_region(self, region: Region) -> None:
        for key in region.page_keys():
            self._entries[key] = region.page_size

    def unregister_region(self, region: Region) -> None:
        for key in region.page_keys():
            self._entries.pop(key, None)

    @property
    def entry_count(self) -> int:
        """Total pages currently registered (the paper's "number of
        active pages registered to IOMMU")."""
        return len(self._entries)

    def page_size_of(self, page_key: int) -> int:
        try:
            return self._entries[page_key]
        except KeyError:
            raise TranslationFault(
                f"no IOMMU mapping for page {page_key:#x}"
            ) from None

    # -- walking ------------------------------------------------------------

    def walk(self, page_key: int) -> int:
        """Walk the table for ``page_key``; returns memory accesses needed.

        The leaf entry always costs one access; each upper level whose
        entry misses the corresponding walk cache costs one more.
        Raises :class:`TranslationFault` for unmapped pages.
        """
        page_size = self.page_size_of(page_key)
        shifts = _LEVEL_SHIFTS_4K if page_size == PAGE_4K else _LEVEL_SHIFTS_2M
        accesses = 1  # the leaf entry read
        # Upper levels, nearest first: PD(/PDPT/PML4) for 4 KB pages.
        for cache, shift in zip(self._walk_caches, shifts[1:]):
            if not cache.probe(page_key >> shift):
                accesses += 1
        self.walks += 1
        self.walk_memory_accesses += accesses
        return accesses

    # -- introspection ------------------------------------------------------

    def mean_walk_accesses(self) -> float:
        if self.walks == 0:
            return 0.0
        return self.walk_memory_accesses / self.walks
