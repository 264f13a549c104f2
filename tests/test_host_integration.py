"""Integration tests of the assembled receiver host datapath."""

import random

import pytest

from repro.core.config import (
    CpuConfig,
    HostConfig,
    IommuConfig,
)
from repro.host import ReceiverHost
from repro.net.packet import Ack, Packet
from repro.sim import Simulator


def make_host(cores=4, iommu=True, antagonists=0, hugepages=True,
              acks=True):
    sim = Simulator()
    config = HostConfig(
        cpu=CpuConfig(cores=cores),
        iommu=IommuConfig(enabled=iommu),
        hugepages=hugepages,
        antagonist_cores=antagonists,
    )
    host = ReceiverHost(sim, config, random.Random(1))
    egress = []
    host.attach_ack_egress(lambda ack, wire_time: egress.append(ack))
    processed = []

    def on_packet(pkt):
        processed.append(pkt)
        if acks:
            host.send_ack(
                Ack(pkt.flow_id, pkt.seq, pkt.sent_time,
                    pkt.host_delay()), pkt.thread_id)

    host.attach_receiver(on_packet)
    return sim, host, processed, egress


def inject(sim, host, n, cores, rate_gbps=90.0, wire=4452):
    interval = wire * 8 / (rate_gbps * 1e9)
    for i in range(n):
        pkt = Packet(flow_id=0, seq=i, payload_bytes=4096,
                     wire_bytes=wire, sent_time=i * interval,
                     thread_id=i % cores)
        sim.at(i * interval, host.deliver_packet, pkt)


def test_packets_traverse_the_full_pipeline():
    sim, host, processed, egress = make_host()
    inject(sim, host, 100, cores=4, rate_gbps=40)
    sim.run(until=5e-3)
    assert len(processed) == 100
    assert len(egress) == 100
    for pkt in processed:
        assert pkt.nic_arrival_time is not None
        assert pkt.dma_done_time >= pkt.nic_arrival_time
        assert pkt.cpu_done_time > pkt.dma_done_time


def test_iommu_entries_scale_with_cores():
    _, host4, _, _ = make_host(cores=4)
    _, host8, _, _ = make_host(cores=8)
    assert host8.registered_iommu_entries() == \
        2 * host4.registered_iommu_entries()


def test_snapshot_contains_all_headline_metrics():
    sim, host, _, _ = make_host()
    inject(sim, host, 50, cores=4, rate_gbps=40)
    sim.run(until=5e-3)
    snapshot = host.snapshot()
    for key in ("app_throughput_gbps", "wire_arrival_gbps", "drop_rate",
                "iotlb_misses_per_packet", "memory_utilization",
                "memory_total_GBps", "mean_dma_latency_us",
                "mean_nic_delay_us", "nic_buffer_peak_fraction",
                "iommu_entries"):
        assert key in snapshot
    assert snapshot["app_throughput_gbps"] > 0


def test_throughput_accounting_consistent():
    sim, host, processed, _ = make_host()
    inject(sim, host, 200, cores=4, rate_gbps=40)
    sim.run(until=5e-3)
    payload_bits = sum(p.payload_bytes for p in processed) * 8
    assert host.app_throughput_bps() == pytest.approx(
        payload_bits / host.elapsed)


def test_host_delay_reported_in_acks():
    sim, host, _, egress = make_host()
    inject(sim, host, 10, cores=4, rate_gbps=10)
    sim.run(until=5e-3)
    for ack in egress:
        assert ack.host_delay > 0
        assert ack.nic_buffer_fraction >= 0
        assert 0 <= ack.memory_utilization <= 1


def test_antagonist_registers_memory_demand():
    sim, host, _, _ = make_host(antagonists=10)
    sim.run(until=1e-3)
    assert host.memory.utilization > 0.5


def test_reset_stats_gives_clean_window():
    sim, host, processed, _ = make_host()
    inject(sim, host, 100, cores=4, rate_gbps=40)
    sim.run(until=2e-3)
    host.reset_stats()
    snap = host.snapshot()
    assert snap["app_throughput_gbps"] == 0.0
    assert host.nic.rx_packets == 0
    # Fresh traffic after the reset is accounted in the new window.
    for i in range(50):
        pkt = Packet(flow_id=0, seq=1000 + i, payload_bytes=4096,
                     wire_bytes=4452, sent_time=sim.now, thread_id=i % 4)
        sim.call(i * 1e-6, host.deliver_packet, pkt)
    sim.run(until=5e-3)
    assert host.snapshot()["app_throughput_gbps"] > 0


def test_overload_drops_at_nic_not_fabric():
    # 4 cores can only process ~46 Gbps; offer 95 Gbps open loop with
    # no CC: the NIC buffer must fill and drop (descriptors deplete).
    sim, host, processed, _ = make_host(cores=2)
    inject(sim, host, 4000, cores=2, rate_gbps=95)
    sim.run(until=3e-3)
    assert host.nic.dropped_packets > 0


def test_send_ack_without_egress_raises():
    sim = Simulator()
    host = ReceiverHost(sim, HostConfig(), random.Random(0))
    with pytest.raises(RuntimeError):
        host.send_ack(Ack(0, 0, 0.0, 0.0), 0)


def test_hugepages_off_registers_512x_data_pages():
    _, on, _, _ = make_host(hugepages=True, cores=2)
    _, off, _, _ = make_host(hugepages=False, cores=2)
    assert off.registered_iommu_entries() > \
        100 * on.registered_iommu_entries()


def test_iotlb_misses_metric_counts_rx_and_tx():
    sim, host, _, _ = make_host(cores=2, iommu=True)
    inject(sim, host, 50, cores=2, rate_gbps=20)
    sim.run(until=5e-3)
    assert host.iotlb_misses_per_packet() >= 0
    assert host.iommu.translations >= 50  # rx at least; + tx acks
