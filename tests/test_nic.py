"""Unit tests for the NIC: buffer, rings, DMA pipeline, backpressure."""

import random

import pytest

from repro.core.config import (
    ExperimentConfig,
    HostConfig,
    IommuConfig,
    MemoryConfig,
    NicConfig,
    PcieConfig,
)
from repro.host.addressing import build_thread_layouts
from repro.host.iommu import Iommu
from repro.host.iotlb import Iotlb
from repro.host.memory import MemoryController
from repro.host.nic import Nic, RxRing
from repro.host.pagetable import PageTable
from repro.host.pcie import PcieLink
from repro.net.packet import Ack, Packet
from repro.sim import Simulator


class TestRxRing:
    def test_take_until_empty(self):
        # The DMA pump takes one descriptor per started DMA; on an empty
        # ring it stalls the head packet and counts one exhaustion.
        sim, nic, delivered = make_nic(ring_descriptors=2)
        ring = nic.rings[0]
        nic.receive(pkt(0))
        nic.receive(pkt(1))
        assert ring.free == 0
        assert ring.exhaustions == 0
        nic.receive(pkt(2))
        assert ring.exhaustions == 1
        assert len(nic.buffer) == 1
        sim.run(until=1e-3)
        assert [p.seq for p in delivered] == [0, 1]

    def test_replenish_capped_at_capacity(self):
        ring = RxRing(4)
        ring.free -= 1
        ring.replenish(100)
        assert ring.free == 4

    def test_negative_replenish_rejected(self):
        with pytest.raises(ValueError):
            RxRing(4).replenish(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            RxRing(0)


def make_nic(n_threads=2, iommu_enabled=False, buffer_bytes=2**20,
             ring_descriptors=1024, nic_overrides=None,
             pcie_overrides=None):
    sim = Simulator()
    memory = MemoryController(sim, MemoryConfig())
    pagetable = PageTable()
    layouts = build_thread_layouts(n_threads, 12 * 2**20, hugepages=True)
    for layout in layouts:
        for region in layout.all_regions():
            pagetable.register_region(region)
    iommu = Iommu(IommuConfig(enabled=iommu_enabled, iotlb_ways=None),
                  Iotlb(128), pagetable, memory)
    pcie_config = PcieConfig(**(pcie_overrides or {}))
    pcie = PcieLink(sim, pcie_config)
    delivered = []
    nic_config = NicConfig(buffer_bytes=buffer_bytes,
                           ring_descriptors=ring_descriptors,
                           replenish_batch=min(32, ring_descriptors),
                           **(nic_overrides or {}))
    nic = Nic(sim, nic_config, pcie, iommu, memory, layouts,
              random.Random(1), deliver=delivered.append)
    return sim, nic, delivered


def pkt(seq, thread_id=0, payload=4096, wire=4452, flow=0):
    return Packet(flow_id=flow, seq=seq, payload_bytes=payload,
                  wire_bytes=wire, sent_time=0.0, thread_id=thread_id)


def test_packet_flows_through_dma():
    sim, nic, delivered = make_nic()
    nic.receive(pkt(0))
    sim.run(until=1e-4)
    assert len(delivered) == 1
    assert delivered[0].dma_done_time is not None
    assert delivered[0].nic_arrival_time == 0.0
    assert nic.dma_completed_packets == 1


def test_dma_latency_includes_fixed_and_memory_components():
    sim, nic, delivered = make_nic()
    nic.receive(pkt(0))
    sim.run(until=1e-4)
    latency = delivered[0].dma_done_time - delivered[0].nic_arrival_time
    expected_min = (nic.pcie.config.dma_fixed_latency
                    + nic.pcie.transfer_time(4452)
                    + nic.memory.config.idle_latency)
    assert latency == pytest.approx(expected_min, rel=0.01)


def test_buffer_overflow_drops():
    # Tiny buffer: only one packet (plus inflight) fits.
    sim, nic, _ = make_nic(buffer_bytes=5000)
    nic.receive(pkt(0))
    nic.receive(pkt(1))  # buffer + inflight exceeded -> drop
    assert nic.dropped_packets == 1
    assert nic.rx_packets == 2
    assert nic.drop_rate() == pytest.approx(0.5)


def test_credit_backpressure_limits_inflight():
    # Credits cover 5 wire packets; the 6th waits in the buffer.
    sim, nic, delivered = make_nic()
    for seq in range(8):
        nic.receive(pkt(seq))
    assert nic._inflight_bytes <= nic.pcie.config.max_inflight_bytes
    inflight_pkts = nic._inflight_bytes // 4452
    assert inflight_pkts == 5
    assert len(nic.buffer) == 3
    sim.run(until=1e-3)
    assert len(delivered) == 8  # drains eventually


class TestPcieCredits:
    """The NIC counts its PCIe credits as DMA bytes in flight."""

    def test_no_credits_in_use_initially(self):
        _, nic, _ = make_nic()
        assert nic._inflight_bytes == 0

    def test_credits_return_when_dmas_complete(self):
        sim, nic, delivered = make_nic(
            pcie_overrides={"max_inflight_bytes": 2 * 4452})
        for seq in range(3):
            nic.receive(pkt(seq))
        # A window of exactly two DMAs: both start, the third waits.
        assert nic._inflight_bytes == 2 * 4452
        assert len(nic.buffer) == 1
        sim.run(until=1e-4)
        assert len(delivered) == 3
        assert nic._inflight_bytes == 0

    def test_credit_window_below_one_dma_rejected(self):
        # A DMA takes credits for its whole wire size (4452 B here), so
        # a smaller window would stall the NIC forever.
        with pytest.raises(ValueError,
                           match=r"host\.pcie\.max_inflight_bytes"):
            ExperimentConfig(host=HostConfig(
                pcie=PcieConfig(max_inflight_bytes=4451)))
        ExperimentConfig(host=HostConfig(
            pcie=PcieConfig(max_inflight_bytes=4452)))

    def test_zero_credit_window_rejected(self):
        with pytest.raises(ValueError, match="credit window"):
            PcieConfig(max_inflight_bytes=0)

    def test_each_dma_returns_exactly_its_own_credits(self):
        # A window of one full packet: the 4452 B DMA runs alone, then
        # the 1000 B and 2000 B DMAs share the window.  Each completion
        # gives back its own wire bytes, never more, so the count read at
        # each delivery is exact and never negative.
        inflight_at_delivery = []
        sim, nic, delivered = make_nic(
            pcie_overrides={"max_inflight_bytes": 4452})
        nic.deliver = lambda p: (delivered.append(p),
                                 inflight_at_delivery.append(
                                     nic._inflight_bytes))
        nic.receive(pkt(0))
        nic.receive(pkt(1, payload=644, wire=1000))
        nic.receive(pkt(2, payload=1644, wire=2000))
        assert nic._inflight_bytes == 4452
        sim.run(until=1e-4)
        assert [p.seq for p in delivered] == [0, 1, 2]
        assert inflight_at_delivery == [0, 2000, 0]
        assert nic._inflight_bytes == 0


def test_descriptor_exhaustion_stalls_head_of_line():
    sim, nic, delivered = make_nic(ring_descriptors=2)
    for seq in range(4):
        nic.receive(pkt(seq))
    sim.run(until=1e-3)
    # Only 2 descriptors and nobody replenishes: 2 packets DMA'd.
    assert len(delivered) == 2
    assert len(nic.buffer) == 2
    assert nic.rings[0].free == 0
    nic.replenish(0, 2)
    sim.run(until=2e-3)
    assert len(delivered) == 4


def test_fifo_order_preserved():
    sim, nic, delivered = make_nic()
    for seq in range(10):
        nic.receive(pkt(seq))
    sim.run(until=1e-3)
    assert [p.seq for p in delivered] == list(range(10))


def test_sustained_drain_rate_near_littles_law():
    # Huge rings: nobody replenishes descriptors in this open loop.
    sim, nic, delivered = make_nic(ring_descriptors=10**6)
    # Offer far above capacity for 2 ms; measure the drain rate.
    interval = 0.2e-6  # 178 Gbps offered
    state = {"seq": 0}

    def inject():
        nic.receive(pkt(state["seq"], thread_id=state["seq"] % 2))
        state["seq"] += 1
        if sim.now < 2e-3:
            sim.call(interval, inject)

    sim.call(0.0, inject)
    sim.run(until=2e-3)
    drained_bps = nic.dma_completed_payload_bytes * 8 / 2e-3
    # IOMMU off: bound ~ C/T_base ≈ 113 Gbps wire (≈104 Gbps payload),
    # further capped by PCIe goodput 110 Gbps wire ≈ 101 payload.
    assert 85e9 < drained_bps < 110e9


def test_iommu_misses_slow_the_drain():
    def drain_rate(iommu_enabled, n_threads):
        sim, nic, _ = make_nic(n_threads=n_threads,
                               iommu_enabled=iommu_enabled,
                               ring_descriptors=10**6)
        state = {"seq": 0}

        def inject():
            nic.receive(pkt(state["seq"],
                            thread_id=state["seq"] % n_threads))
            state["seq"] += 1
            if sim.now < 2e-3:
                sim.call(0.2e-6, inject)

        sim.call(0.0, inject)
        sim.run(until=2e-3)
        return nic.dma_completed_payload_bytes

    # 16 threads' working set thrashes a 128-entry IOTLB.
    assert drain_rate(True, 16) < 0.92 * drain_rate(False, 16)


def test_transmit_ack_translates_tx_pages():
    sim, nic, _ = make_nic(iommu_enabled=True)
    sent = []
    ack = Ack(flow_id=0, seq=0, sent_time_echo=0.0, host_delay=1e-6)
    sim.run(until=1e-6)
    nic.transmit_ack(ack, 0,
                     on_wire=lambda a, wire_time: sent.append((a, wire_time)))
    # Handed over at once, stamped with the time it leaves the NIC:
    # the fixed TX latency plus the translation of its three pages.
    assert [a for a, _ in sent] == [ack]
    assert nic.iommu.translations == 1
    assert nic.acks_sent == 1
    walk = nic.memory.walk_access_latency()  # idle bus: a constant
    assert nic.iommu.total_misses == 3
    assert sent[0][1] == pytest.approx(
        1e-6 + 0.3e-6 + nic.iommu.total_walk_accesses * walk, rel=1e-12)


def test_ack_coalescing_reduces_tx():
    sim, nic, _ = make_nic(iommu_enabled=True,
                           nic_overrides={"ack_coalescing": 4})
    sent = []
    for i in range(8):
        nic.transmit_ack(
            Ack(flow_id=0, seq=i, sent_time_echo=0.0, host_delay=0.0),
            0, on_wire=lambda ack, wire_time: sent.append(ack))
    sim.run(until=1e-3)
    assert len(sent) == 2  # one wire ACK per 4
    assert [ack.seq for ack in sent] == [3, 7]
    assert nic.acks_sent == 2
    assert nic.iommu.translations == 2


def test_buffer_fraction_reflects_occupancy():
    sim, nic, _ = make_nic()
    assert nic.buffer_fraction() == 0.0
    for seq in range(20):
        nic.receive(pkt(seq))
    assert nic.buffer_fraction() > 0.0


def test_reset_stats_zeroes_counters():
    sim, nic, _ = make_nic()
    nic.receive(pkt(0))
    sim.run(until=1e-4)
    nic.reset_stats()
    assert nic.rx_packets == 0
    assert nic.dma_completed_packets == 0
    assert nic.mean_dma_latency() == 0.0
