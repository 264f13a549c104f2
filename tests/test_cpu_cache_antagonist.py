"""Unit tests for receiver threads, the copy-traffic model, and the
STREAM antagonist."""

import random

import pytest

from repro.core.config import (
    CpuConfig,
    DdioConfig,
    IommuConfig,
    MemoryConfig,
    NicConfig,
    PcieConfig,
)
from repro.host.addressing import build_thread_layouts
from repro.host.antagonist import StreamAntagonist
from repro.host.cache import CopyTrafficModel
from repro.host.cpu import ReceiverThread
from repro.host.iommu import Iommu
from repro.host.iotlb import Iotlb
from repro.host.memory import MemoryController
from repro.host.nic import Nic
from repro.host.pagetable import PageTable
from repro.host.pcie import PcieLink
from repro.net.packet import Packet
from repro.sim import Simulator


def make_thread(cores_rate_bps=11.5e9, slowdown=0.0, batch=4):
    sim = Simulator()
    memory = MemoryController(sim, MemoryConfig())
    layouts = build_thread_layouts(1, 12 * 2**20, hugepages=True)
    pagetable = PageTable()
    for region in layouts[0].all_regions():
        pagetable.register_region(region)
    nic = Nic(
        sim, NicConfig(), PcieLink(sim, PcieConfig()),
        Iommu(IommuConfig(enabled=False), Iotlb(128), pagetable, memory),
        memory, layouts, random.Random(0), deliver=lambda p: None)
    copy_model = CopyTrafficModel(DdioConfig(), memory)
    processed = []
    thread = ReceiverThread(
        sim, 0, CpuConfig(cores=1, core_rate_bps=cores_rate_bps,
                          contention_slowdown=slowdown),
        nic, memory, copy_model, on_processed=processed.append,
        replenish_batch=batch)
    return sim, thread, nic, processed, copy_model


def pkt(seq, payload=4096):
    p = Packet(flow_id=0, seq=seq, payload_bytes=payload,
               wire_bytes=payload + 356, sent_time=0.0, thread_id=0)
    p.nic_arrival_time = 0.0
    p.dma_done_time = 0.0
    return p


def test_processing_time_matches_core_rate():
    sim, thread, _, processed, _ = make_thread(cores_rate_bps=11.5e9)
    thread.enqueue(pkt(0))
    sim.run(until=10e-3)
    assert len(processed) == 1
    expected = 4096 * 8 / 11.5e9
    assert processed[0].cpu_done_time == pytest.approx(expected)


def test_fifo_processing_and_queueing():
    sim, thread, _, processed, _ = make_thread()
    for seq in range(5):
        thread.enqueue(pkt(seq))
    sim.run(until=10e-3)
    assert [p.seq for p in processed] == list(range(5))
    per_pkt = 4096 * 8 / 11.5e9
    assert processed[-1].cpu_done_time == pytest.approx(5 * per_pkt)


def test_throughput_capped_at_core_rate():
    sim, thread, _, processed, _ = make_thread()
    n = 200
    for seq in range(n):
        thread.enqueue(pkt(seq))
    sim.run(until=10e-3)
    elapsed = processed[-1].cpu_done_time
    rate = n * 4096 * 8 / elapsed
    assert rate == pytest.approx(11.5e9, rel=0.01)


def test_descriptors_replenished_in_batches():
    sim, thread, nic, _, _ = make_thread(batch=4)
    nic.rings[0].free = 0
    for seq in range(4):
        thread.enqueue(pkt(seq))
    sim.run(until=10e-3)
    assert nic.rings[0].free == 4


def test_flush_descriptors_returns_partial_batch():
    sim, thread, nic, _, _ = make_thread(batch=100)
    nic.rings[0].free = 0
    thread.enqueue(pkt(0))
    sim.run(until=10e-3)
    assert nic.rings[0].free == 0  # still batched
    thread.flush_descriptors()
    assert nic.rings[0].free == 1


def test_contention_slows_processing():
    sim, thread, _, processed, _ = make_thread(slowdown=0.5)
    # Saturate the memory bus.
    thread.memory.register_constant("stream", "cpu", 200e9)
    sim.run(until=1e-3)
    thread.enqueue(pkt(0))
    sim.run(until=2e-3)
    base = 4096 * 8 / 11.5e9
    measured = processed[0].cpu_done_time - 1e-3
    assert measured == pytest.approx(base * 1.5, rel=0.05)


def test_mean_queue_delay_statistic():
    sim, thread, _, processed, _ = make_thread()
    for seq in range(3):
        thread.enqueue(pkt(seq))
    sim.run(until=10e-3)
    assert thread.mean_queue_delay() > 0
    assert thread.processed_packets == 3


def test_utilization_fraction():
    sim, thread, _, _, _ = make_thread()
    thread.enqueue(pkt(0))
    sim.run(until=1e-3)
    per_pkt = 4096 * 8 / 11.5e9
    assert thread.utilization(1e-3) == pytest.approx(per_pkt / 1e-3)


class TestCopyTrafficModel:
    def test_ddio_on_fractions(self):
        sim = Simulator()
        memory = MemoryController(sim, MemoryConfig())
        model = CopyTrafficModel(DdioConfig(enabled=True), memory)
        model.record_copy(10000)
        assert model._reads.bytes_pending == 2900
        assert model._writes.bytes_pending == 500

    def test_ddio_off_reads_full_payload(self):
        sim = Simulator()
        memory = MemoryController(sim, MemoryConfig())
        model = CopyTrafficModel(DdioConfig(enabled=False), memory)
        model.record_copy(10000)
        assert model._reads.bytes_pending == 10000

    def test_accumulates_payload_counter(self):
        sim = Simulator()
        memory = MemoryController(sim, MemoryConfig())
        model = CopyTrafficModel(DdioConfig(), memory)
        model.record_copy(100)
        model.record_copy(200)
        assert model.payload_bytes_copied == 300


class TestStreamAntagonist:
    def test_demand_scales_with_cores(self):
        sim = Simulator()
        memory = MemoryController(sim, MemoryConfig())
        ant = StreamAntagonist(memory, cores=4, per_core_Bps=6.5e9)
        assert ant.demand_Bps == pytest.approx(26e9)

    def test_achieved_saturates_at_capacity(self):
        sim = Simulator()
        memory = MemoryController(
            sim, MemoryConfig(achievable_Bps=90e9))
        ant = StreamAntagonist(memory, cores=15, per_core_Bps=6.5e9)
        sim.run(until=1e-3)
        assert ant.achieved_Bps() <= 90e9
        assert ant.achieved_Bps() > 85e9

    def test_set_cores_updates_demand(self):
        sim = Simulator()
        memory = MemoryController(sim, MemoryConfig())
        ant = StreamAntagonist(memory, cores=0, per_core_Bps=6.5e9)
        ant.set_cores(10)
        assert ant.demand_Bps == pytest.approx(65e9)

    def test_negative_cores_rejected(self):
        sim = Simulator()
        memory = MemoryController(sim, MemoryConfig())
        with pytest.raises(ValueError):
            StreamAntagonist(memory, cores=-1, per_core_Bps=1e9)
        ant = StreamAntagonist(memory, cores=0, per_core_Bps=1e9)
        with pytest.raises(ValueError):
            ant.set_cores(-2)
