"""The IOMMU: translation orchestration for DMA requests.

For each page a DMA touches: probe the NIC-side device TLB if ATS is
configured (paper §4 extension), then the IOTLB; on miss, walk the page
table — each walk step is a memory access whose latency comes from the
(possibly contended) memory controller.  This is where the paper's two
root causes compound: IOTLB misses add memory accesses, and memory-bus
contention makes each of those accesses slower.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.core.config import IommuConfig
from repro.host.iotlb import Iotlb
from repro.host.memory import MemoryController
from repro.host.pagetable import PageTable
from repro.sim.component import Component

__all__ = ["Iommu", "TranslationResult", "ZERO_TRANSLATION"]


class TranslationResult(NamedTuple):
    """Outcome of translating all pages of one DMA (immutable; a tuple,
    so building one per DMA costs a single call)."""

    latency: float
    accesses: int           # pages looked up
    iotlb_misses: int
    walk_memory_accesses: int


#: Translation outcome when the IOMMU is disabled (free passthrough).
ZERO_TRANSLATION = TranslationResult(0.0, 0, 0, 0)


class Iommu(Component):
    """Translates NIC-visible virtual addresses to physical addresses."""

    label = "iommu"

    def __init__(
        self,
        config: IommuConfig,
        iotlb: Iotlb,
        pagetable: PageTable,
        memory: MemoryController,
    ):
        self.config = config
        self.iotlb = iotlb
        self.pagetable = pagetable
        self.memory = memory
        self.device_tlb: Optional[Iotlb] = (
            Iotlb(config.device_tlb_entries)
            if config.device_tlb_entries > 0 else None
        )
        # Counters (per measurement window; reset with reset_stats()).
        self.translations = 0
        self.page_accesses = 0
        self.total_misses = 0
        self.total_walk_accesses = 0

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def children(self):
        """The NIC-side device TLB (when ATS is configured).

        The host-side IOTLB is deliberately *not* a child: the host owns
        and resets it directly, and its historical flat metric namespace
        (``iotlb.*``) lives beside — not under — ``iommu.*``.
        """
        if self.device_tlb is not None:
            return (("device_tlb", self.device_tlb),)
        return ()

    def bind_own_metrics(self, registry, component: str) -> None:
        """Register translation counters (reader-backed, zero hot-path
        cost) in ``registry``."""
        for name, fn in (
            ("translations", lambda: self.translations),
            ("page_accesses", lambda: self.page_accesses),
            ("iotlb_misses", lambda: self.total_misses),
            ("walk_memory_accesses", lambda: self.total_walk_accesses),
        ):
            registry.counter(name, component, fn=fn)
        registry.gauge("misses_per_translation", component,
                       fn=self.misses_per_translation)

    def translate(self, page_keys: Sequence[int]) -> TranslationResult:
        """Translate every page in ``page_keys`` for one DMA.

        With memory protection disabled this is free: "if memory
        protection is not enabled, no address translation is needed"
        (paper §2).
        """
        if not self.config.enabled:
            return ZERO_TRANSLATION
        misses = self.total_misses
        walk_accesses = self.total_walk_accesses
        if self.device_tlb is None:
            latency = self.iotlb.lookup(
                page_keys, self.config.iotlb_hit_latency, self._walk)
        else:
            # ATS: a hit on the NIC's device TLB causes no IOMMU traffic
            # at all; its misses go to the IOTLB.
            latency = self.device_tlb.lookup(
                page_keys, self.config.iotlb_hit_latency, self._iotlb_cost)
        accesses = len(page_keys)
        self.translations += 1
        self.page_accesses += accesses
        return TranslationResult(latency, accesses,
                                 self.total_misses - misses,
                                 self.total_walk_accesses - walk_accesses)

    def _iotlb_cost(self, key: int) -> float:
        """A device-TLB miss: the IOTLB's cost for ``key``."""
        return self.iotlb.lookup((key,), self.config.iotlb_hit_latency,
                                 self._walk)

    def _walk(self, key: int) -> float:
        """An IOTLB miss: walk the page table; each step is one memory
        read at the (possibly contended) walk latency."""
        steps = self.pagetable.walk(key)
        self.total_misses += 1
        self.total_walk_accesses += steps
        return steps * self.memory.walk_access_latency()

    def misses_per_translation(self) -> float:
        """Mean IOTLB misses per DMA (the paper's "IOTLB misses per
        packet" when one translation covers one packet)."""
        if self.translations == 0:
            return 0.0
        return self.total_misses / self.translations

    def reset_stats(self) -> None:
        """Zero window counters (warmup boundary); cache state is kept.

        Also cascades to the host-side IOTLB for callers that treat the
        IOMMU as the translation unit's front door (the device TLB is a
        child, so the :class:`Component` recursion covers it).
        """
        super().reset_stats()
        self.iotlb.reset_stats()

    def reset_own_stats(self) -> None:
        self.translations = 0
        self.page_accesses = 0
        self.total_misses = 0
        self.total_walk_accesses = 0
