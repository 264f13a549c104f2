"""IOMMU-visible address space: pages, regions, and per-thread layouts.

The network stack registers a fixed set of mappings with the IOMMU up
front ("loose mode", paper §3.1): per receiver thread, one data region
(2 MB hugepage or 4 KB mappings) plus a handful of 4 KB control pages
(Rx/Tx descriptor rings, completion rings, ACK staging buffers).  The
NIC touches a subset of these pages for every packet; which subset is
what drives IOTLB behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.core.calibration import PAGE_2M, PAGE_4K, data_page_bytes
from repro.core.config import NicConfig

__all__ = [
    "PAGE_4K",
    "PAGE_2M",
    "AddressSpaceAllocator",
    "Region",
    "ThreadLayout",
    "build_thread_layouts",
]

#: Rx descriptors per 4 KB ring page (32 B descriptors).
_DESCS_PER_PAGE = 128
#: Completion entries per 4 KB ring page (16 B entries).
_COMPLETIONS_PER_PAGE = 256


@dataclass(frozen=True)
class Region:
    """A contiguous IOMMU-mapped virtual region with uniform page size.

    A page is identified by its starting virtual address (regions are
    disjoint, so page start addresses are globally unique keys).
    """

    base: int
    size: int
    page_size: int
    #: Pages in the region, fixed at construction: the NIC reads it
    #: several times per packet.
    num_pages: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region size must be positive, got {self.size}")
        if self.page_size not in (PAGE_4K, PAGE_2M):
            raise ValueError(f"unsupported page size {self.page_size}")
        if self.base % self.page_size != 0:
            raise ValueError(
                f"base {self.base:#x} not aligned to page size {self.page_size}"
            )
        if self.size % self.page_size != 0:
            raise ValueError(
                f"size {self.size} not a multiple of page size {self.page_size}"
            )
        object.__setattr__(self, "num_pages", self.size // self.page_size)

    @property
    def end(self) -> int:
        return self.base + self.size

    def page_key(self, offset: int) -> int:
        """Page (start address) containing ``offset`` into the region."""
        if not 0 <= offset < self.size:
            raise ValueError(f"offset {offset} outside region of {self.size}")
        return self.base + (offset // self.page_size) * self.page_size

    def page_keys(self) -> List[int]:
        """All page start addresses in the region."""
        return [self.base + i * self.page_size for i in range(self.num_pages)]

    def span_keys(self, offset: int, length: int) -> List[int]:
        """Pages covering ``[offset, offset + length)``."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        first = self.page_key(offset)
        last = self.page_key(min(offset + length - 1, self.size - 1))
        return [
            addr for addr in range(first, last + 1, self.page_size)
        ]


class AddressSpaceAllocator:
    """Bump allocator of disjoint, hugepage-aligned virtual regions."""

    def __init__(self, base: int = 1 << 40):
        self._next = base

    def allocate(self, size: int, page_size: int) -> Region:
        # Round the size up to the page size; keep every region aligned
        # to 2 MB so 4 KB and 2 MB regions can never share a hugepage.
        size = -(-size // page_size) * page_size
        base = -(-self._next // PAGE_2M) * PAGE_2M
        self._next = base + size
        return Region(base=base, size=size, page_size=page_size)


@dataclass(frozen=True)
class ThreadLayout:
    """The IOMMU footprint of one receiver thread.

    ``data`` is the Rx buffer pool (payload DMA targets); the ring
    regions are the 4 KB control pages the NIC touches on every packet.
    """

    thread_id: int
    data: Region
    rx_desc_ring: Region
    rx_completion_ring: Region
    tx_desc_ring: Region
    tx_completion_ring: Region
    ack_staging: Region
    conn_state: Region
    #: Mutable cursor state for ring-page cycling (per 128/256 entries).
    _cursor: dict = field(default_factory=lambda: {"rx": 0, "tx": 0})
    #: ``(bound, bits)`` of the per-packet draws (payload slot,
    #: connection-state page, ACK-staging page), fixed at construction.
    _draws: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        slots = self.data.num_pages  # one slot per page
        if self.data.page_size == PAGE_4K and slots > 1:
            slots -= 1  # a 4 KB slot also spills into the next page
        object.__setattr__(self, "_draws", tuple(
            (bound, bound.bit_length()) for bound in (
                slots, self.conn_state.num_pages,
                self.ack_staging.num_pages)))

    def all_regions(self) -> Sequence[Region]:
        return (
            self.data,
            self.rx_desc_ring,
            self.rx_completion_ring,
            self.tx_desc_ring,
            self.tx_completion_ring,
            self.ack_staging,
            self.conn_state,
        )

    def total_pages(self) -> int:
        """Number of IOMMU entries this thread keeps registered."""
        return sum(region.num_pages for region in self.all_regions())

    def rx_dma_pages(self, rng: random.Random,
                     payload_bytes: int) -> List[int]:
        """Every page one received packet's DMA touches, in the order
        the IOMMU translates them: the payload pages, two
        connection-state pages, then the Rx descriptor and completion
        ring pages.

        *Payload.* Buffers are drawn at random from the thread's pool:
        the paper attributes IOTLB misses to "lack of locality in IOMMU
        access patterns — subsequent packets do not necessarily lie in
        contiguous memory regions".  With 4 KB mappings a 4 KB-MTU
        packet (payload + metadata) straddles two pages (paper §3.1:
        "fetching two pages instead of just a single hugepage").

        *Connection state* is touched twice per packet: the posted-WQE
        read and the flow-state update live on independent pages.  Each
        thread serves one connection per sender (40 by default); their
        descriptors and state span several pages with packet arrivals
        interleaved across connections, so each page is effectively
        random within the pool.

        *Rings* advance sequentially, so the hot page changes every
        ``_DESCS_PER_PAGE`` packets — control pages have high but not
        perfect locality.

        Three draws from ``rng`` per packet, in this order: the payload
        slot, then the two connection-state pages.  Each draw is
        ``rng.randrange(bound)`` open-coded as CPython computes it
        (``getrandbits(bound.bit_length())`` until the value is below
        ``bound``), so the generator sees the very same calls.
        """
        bits = rng.getrandbits
        (slots, k), (conns, kc), _ = self._draws
        slot = bits(k)
        while slot >= slots:
            slot = bits(k)
        data = self.data
        if data.page_size == PAGE_2M:
            pages = [data.base + slot * PAGE_2M]
        else:
            offset = slot * PAGE_4K
            # payload plus headers/metadata spills into the next page
            # (open-coded span_keys: offset is always in range here)
            end = offset + payload_bytes + PAGE_4K - 1
            if end >= data.size:
                end = data.size - 1
            base = data.base
            pages = list(range(base + offset,
                               base + (end // PAGE_4K) * PAGE_4K + 1,
                               PAGE_4K))
        conn = self.conn_state.base
        for _ in (0, 1):
            page = bits(kc)
            while page >= conns:
                page = bits(kc)
            pages.append(conn + page * PAGE_4K)
        cursor = self._cursor
        index = cursor["rx"]
        cursor["rx"] = index + 1
        desc = self.rx_desc_ring
        comp = self.rx_completion_ring
        pages.append(desc.base
                     + (index // _DESCS_PER_PAGE) % desc.num_pages * PAGE_4K)
        pages.append(comp.base
                     + (index // _COMPLETIONS_PER_PAGE) % comp.num_pages
                     * PAGE_4K)
        return pages

    def tx_control_pages(self, rng: random.Random) -> List[int]:
        """Descriptor, completion, and payload-staging pages for one
        transmitted ACK (the paper's footnote 3 counts the ACK's PCIe
        transactions against the same IOTLB).  One draw from ``rng``,
        the staging page, open-coded as in :meth:`rx_dma_pages`."""
        bound, k = self._draws[2]
        slot = rng.getrandbits(k)
        while slot >= bound:
            slot = rng.getrandbits(k)
        cursor = self._cursor
        index = cursor["tx"]
        cursor["tx"] = index + 1
        desc = self.tx_desc_ring
        comp = self.tx_completion_ring
        return [
            desc.base
            + (index // _DESCS_PER_PAGE) % desc.num_pages * PAGE_4K,
            comp.base
            + (index // _COMPLETIONS_PER_PAGE) % comp.num_pages * PAGE_4K,
            self.ack_staging.base + slot * PAGE_4K,
        ]


def build_thread_layouts(
    n_threads: int,
    rx_region_bytes: int,
    hugepages: bool,
    nic: NicConfig = NicConfig(),
    allocator: AddressSpaceAllocator | None = None,
) -> List[ThreadLayout]:
    """Allocate the full IOMMU footprint for ``n_threads`` threads,
    with ``nic``'s control page counts per ring.

    With the default NIC and a 12 MB hugepage data region the *active*
    footprint is 6 data + 10 control/state = 16 IOMMU entries per
    thread, so 8 threads exactly fill a 128-entry IOTLB — the knee the
    paper observes in Fig. 3.
    """
    if n_threads < 1:
        raise ValueError(f"need at least one thread, got {n_threads}")
    alloc = allocator or AddressSpaceAllocator()
    data_page = data_page_bytes(hugepages)
    layouts = []
    for tid in range(n_threads):
        layouts.append(
            ThreadLayout(
                thread_id=tid,
                data=alloc.allocate(rx_region_bytes, data_page),
                rx_desc_ring=alloc.allocate(
                    nic.desc_ring_pages * PAGE_4K, PAGE_4K),
                rx_completion_ring=alloc.allocate(
                    nic.completion_ring_pages * PAGE_4K, PAGE_4K),
                tx_desc_ring=alloc.allocate(
                    nic.tx_desc_ring_pages * PAGE_4K, PAGE_4K),
                tx_completion_ring=alloc.allocate(
                    nic.tx_completion_ring_pages * PAGE_4K, PAGE_4K),
                ack_staging=alloc.allocate(
                    nic.ack_staging_pages * PAGE_4K, PAGE_4K),
                conn_state=alloc.allocate(
                    nic.conn_state_pages * PAGE_4K, PAGE_4K),
            )
        )
    return layouts
