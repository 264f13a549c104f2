"""Unit tests for IOMMU address-space layout."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NicConfig
from repro.host.addressing import (
    _COMPLETIONS_PER_PAGE,
    _DESCS_PER_PAGE,
    PAGE_2M,
    PAGE_4K,
    AddressSpaceAllocator,
    Region,
    build_thread_layouts,
)


class TestRegion:
    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            Region(base=0, size=PAGE_4K, page_size=1234)

    def test_rejects_unaligned_base(self):
        with pytest.raises(ValueError):
            Region(base=123, size=PAGE_4K, page_size=PAGE_4K)

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            Region(base=0, size=PAGE_4K + 1, page_size=PAGE_4K)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Region(base=0, size=0, page_size=PAGE_4K)

    def test_num_pages(self):
        region = Region(base=0, size=8 * PAGE_4K, page_size=PAGE_4K)
        assert region.num_pages == 8

    def test_page_key_maps_offsets_to_page_starts(self):
        region = Region(base=1 << 30, size=4 * PAGE_4K, page_size=PAGE_4K)
        assert region.page_key(0) == 1 << 30
        assert region.page_key(PAGE_4K - 1) == 1 << 30
        assert region.page_key(PAGE_4K) == (1 << 30) + PAGE_4K

    def test_page_key_out_of_range(self):
        region = Region(base=0, size=PAGE_4K, page_size=PAGE_4K)
        with pytest.raises(ValueError):
            region.page_key(PAGE_4K)

    def test_page_keys_enumerates_all(self):
        region = Region(base=0, size=3 * PAGE_4K, page_size=PAGE_4K)
        assert region.page_keys() == [0, PAGE_4K, 2 * PAGE_4K]

    def test_span_keys_crossing_boundary(self):
        region = Region(base=0, size=4 * PAGE_4K, page_size=PAGE_4K)
        keys = region.span_keys(PAGE_4K - 100, 200)
        assert keys == [0, PAGE_4K]

    def test_span_keys_within_one_page(self):
        region = Region(base=0, size=4 * PAGE_4K, page_size=PAGE_4K)
        assert region.span_keys(10, 100) == [0]

    def test_span_keys_clamps_at_region_end(self):
        region = Region(base=0, size=2 * PAGE_4K, page_size=PAGE_4K)
        keys = region.span_keys(PAGE_4K, 10 * PAGE_4K)
        assert keys == [PAGE_4K]

    def test_span_keys_requires_positive_length(self):
        region = Region(base=0, size=PAGE_4K, page_size=PAGE_4K)
        with pytest.raises(ValueError):
            region.span_keys(0, 0)


class TestAllocator:
    def test_regions_disjoint(self):
        alloc = AddressSpaceAllocator()
        a = alloc.allocate(12 * 2**20, PAGE_2M)
        b = alloc.allocate(4 * PAGE_4K, PAGE_4K)
        c = alloc.allocate(2 * 2**20, PAGE_2M)
        assert a.end <= b.base
        assert b.end <= c.base

    def test_hugepage_alignment_preserved(self):
        alloc = AddressSpaceAllocator()
        alloc.allocate(PAGE_4K, PAGE_4K)
        huge = alloc.allocate(PAGE_2M, PAGE_2M)
        assert huge.base % PAGE_2M == 0

    def test_size_rounded_up_to_page(self):
        alloc = AddressSpaceAllocator()
        region = alloc.allocate(100, PAGE_4K)
        assert region.size == PAGE_4K


class TestThreadLayouts:
    def test_requires_at_least_one_thread(self):
        with pytest.raises(ValueError):
            build_thread_layouts(0, 12 * 2**20, hugepages=True)

    def test_default_footprint_calibration(self):
        # 6 hugepages of data + 14 registered control/state pages, of
        # which 12 are part of the *active* footprint (one hot page per
        # ring + conn pool + staging).  6 + 10 active control = 16
        # pages/thread puts the IOTLB knee at 8 threads (paper Fig. 3).
        (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages=True)
        assert layout.data.num_pages == 6
        registered_control = layout.total_pages() - layout.data.num_pages
        assert registered_control == 14
        hot_ring_pages = 4  # rx desc, rx cq, tx desc, tx cq
        active = (layout.data.num_pages
                  + layout.conn_state.num_pages
                  + layout.ack_staging.num_pages
                  + hot_ring_pages)
        assert active == 16

    def test_hugepages_off_multiplies_data_pages_by_512(self):
        (huge,) = build_thread_layouts(1, 12 * 2**20, hugepages=True)
        (small,) = build_thread_layouts(1, 12 * 2**20, hugepages=False)
        assert small.data.num_pages == huge.data.num_pages * 512

    def test_layouts_disjoint_across_threads(self):
        layouts = build_thread_layouts(4, 4 * 2**20, hugepages=True)
        seen = set()
        for layout in layouts:
            for region in layout.all_regions():
                for key in region.page_keys():
                    assert key not in seen
                    seen.add(key)

    def test_payload_pages_hugepage_is_single_page(self):
        (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages=True)
        rng = random.Random(0)
        for _ in range(50):
            pages = layout.rx_dma_pages(rng, 4096)[:-4]
            assert len(pages) == 1
            assert pages[0] in layout.data.page_keys()

    def test_payload_pages_4k_spans_two_pages(self):
        (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages=False)
        rng = random.Random(0)
        for _ in range(50):
            pages = layout.rx_dma_pages(rng, 4096)[:-4]
            assert len(pages) == 2
            assert pages[1] - pages[0] == PAGE_4K

    def test_rx_control_pages_cycle_through_ring(self):
        (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages=True)
        rng = random.Random(0)
        first = layout.rx_dma_pages(rng, 4096)[-2:]
        # The descriptor page advances after 128 packets.
        for _ in range(127):
            layout.rx_dma_pages(rng, 4096)
        later = layout.rx_dma_pages(rng, 4096)[-2:]
        assert later[0] != first[0]

    def test_conn_state_page_within_pool(self):
        (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages=True)
        rng = random.Random(0)
        pool = set(layout.conn_state.page_keys())
        for _ in range(20):
            assert set(layout.rx_dma_pages(rng, 4096)[-4:-2]) <= pool

    def test_tx_control_pages_include_staging(self):
        (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages=True)
        rng = random.Random(0)
        pages = layout.tx_control_pages(rng)
        assert len(pages) == 3
        assert pages[2] in layout.ack_staging.page_keys()


@settings(max_examples=100, deadline=None)
@given(hugepages=st.booleans(),
       ring_pages=st.tuples(*[st.integers(min_value=1, max_value=4)] * 5),
       start=st.integers(min_value=0, max_value=2048),
       count=st.integers(min_value=1, max_value=600),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ring_page_keys_equal_region_page_key(hugepages, ring_pages, start,
                                              count, seed):
    """The Rx and Tx ring pages (computed without ``page_key``'s range
    check) name the same pages as ``Region.page_key``, across cursor
    wrap-around, with 4 KB and 2 MB data pages."""
    desc, comp, tx_desc, tx_comp, staging = ring_pages
    nic = NicConfig(desc_ring_pages=desc, completion_ring_pages=comp,
                    tx_desc_ring_pages=tx_desc,
                    tx_completion_ring_pages=tx_comp,
                    ack_staging_pages=staging)
    (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages, nic)
    layout._cursor["rx"] = layout._cursor["tx"] = start
    rx_rng = random.Random(seed)
    rng = random.Random(seed)
    twin = random.Random(seed)

    def key(region, entry, per_page):
        return region.page_key(
            (entry // per_page) % region.num_pages * PAGE_4K)

    for entry in range(start, start + count):
        assert layout.rx_dma_pages(rx_rng, 4096)[-2:] == [
            key(layout.rx_desc_ring, entry, _DESCS_PER_PAGE),
            key(layout.rx_completion_ring, entry, _COMPLETIONS_PER_PAGE)]
        slot = twin.randrange(layout.ack_staging.num_pages)
        assert layout.tx_control_pages(rng) == [
            key(layout.tx_desc_ring, entry, _DESCS_PER_PAGE),
            key(layout.tx_completion_ring, entry, _COMPLETIONS_PER_PAGE),
            layout.ack_staging.page_key(slot * PAGE_4K)]


@pytest.mark.parametrize("hugepages", [True, False])
def test_rx_dma_pages_draw_order(hugepages):
    """One packet's pages: the payload pages, then two connection-state
    pages, from three draws in that order (a twin generator replays
    them through ``Region.page_key``/``span_keys``)."""
    (layout,) = build_thread_layouts(1, 12 * 2**20, hugepages)
    data, conn = layout.data, layout.conn_state
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(200):
        pages = layout.rx_dma_pages(rng, 4096)
        if hugepages:
            payload = [data.page_key(
                twin.randrange(data.num_pages) * PAGE_2M)]
        else:
            payload = data.span_keys(
                twin.randrange(data.num_pages - 1) * PAGE_4K,
                4096 + PAGE_4K)
        conns = [conn.page_key(twin.randrange(conn.num_pages) * PAGE_4K)
                 for _ in range(2)]
        assert pages[:-2] == payload + conns
    assert rng.random() == twin.random()
