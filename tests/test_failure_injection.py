"""Failure-injection tests: the system under broken/extreme inputs."""

import random

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    IommuConfig,
    LinkConfig,
    MemoryConfig,
    NicConfig,
    PcieConfig,
    SimConfig,
    SwiftConfig,
    WorkloadConfig,
)
from repro.core.experiment import run_experiment
from repro.host import ReceiverHost
from repro.host.pagetable import TranslationFault
from repro.net.packet import Packet
from repro.sim import Simulator


def test_dma_to_unmapped_address_faults_loudly():
    """A packet pointed at a thread with no registered layout must
    raise, not silently corrupt state."""
    sim = Simulator()
    host = ReceiverHost(sim, HostConfig(cpu=CpuConfig(cores=2)),
                        random.Random(0))
    host.attach_ack_egress(lambda ack, wire_time: None)
    host.attach_receiver(lambda p: None)
    # Forge a layout access outside registered space by unregistering.
    for region in host.layouts[0].all_regions():
        host.pagetable.unregister_region(region)
    # The DMA engine starts synchronously on arrival.
    with pytest.raises(TranslationFault):
        host.deliver_packet(Packet(0, 0, 4096, 4452, 0.0, 0))
        sim.run(until=1e-3)


def test_thread_id_out_of_range_raises():
    sim = Simulator()
    host = ReceiverHost(sim, HostConfig(cpu=CpuConfig(cores=2)),
                        random.Random(0))
    host.attach_ack_egress(lambda ack, wire_time: None)
    host.attach_receiver(lambda p: None)
    with pytest.raises(IndexError):
        host.deliver_packet(Packet(0, 0, 4096, 4452, 0.0, thread_id=7))
        sim.run(until=1e-3)


def test_tiny_nic_buffer_still_makes_progress():
    config = ExperimentConfig(
        host=HostConfig(
            cpu=CpuConfig(cores=4),
            nic=NicConfig(buffer_bytes=16 * 1024),  # ~3 packets
        ),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=1e-3, duration=2e-3, seed=1))
    result = run_experiment(config)
    assert result.metrics["app_throughput_gbps"] > 1
    assert result.metrics["drop_rate"] < 0.9


def test_tiny_iotlb_still_makes_progress():
    config = ExperimentConfig(
        host=HostConfig(
            cpu=CpuConfig(cores=4),
            iommu=IommuConfig(iotlb_entries=4, iotlb_ways=None),
        ),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=1e-3, duration=2e-3, seed=1))
    result = run_experiment(config)
    # Every access misses; throughput collapses but survives.
    assert result.metrics["iotlb_misses_per_packet"] > 4
    assert result.metrics["app_throughput_gbps"] > 1


def test_starved_memory_bus_does_not_deadlock():
    config = ExperimentConfig(
        host=HostConfig(
            cpu=CpuConfig(cores=4),
            antagonist_cores=15,
            memory=MemoryConfig(achievable_Bps=30e9),  # weak bus
        ),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=1e-3, duration=2e-3, seed=1))
    result = run_experiment(config)
    assert result.metrics["app_throughput_gbps"] > 0.5


def test_slow_fabric_link_is_the_bottleneck_not_the_host():
    config = ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=8)),
        link=LinkConfig(rate_bps=10e9),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=2e-3, duration=3e-3, seed=1))
    result = run_experiment(config)
    assert result.metrics["app_throughput_gbps"] < 10.5
    assert result.metrics["drop_rate"] < 0.01  # host never congests


def test_single_sender_single_core_minimal_topology():
    config = ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=1)),
        workload=WorkloadConfig(senders=1),
        sim=SimConfig(warmup=1e-3, duration=2e-3, seed=1))
    result = run_experiment(config)
    assert result.metrics["app_throughput_gbps"] == pytest.approx(
        11.5, rel=0.1)


def test_extreme_rto_storm_recovers():
    """Pathologically small RTO: constant spurious timeouts must not
    wedge the connection machinery."""
    config = ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=2)),
        workload=WorkloadConfig(senders=2),
        swift=SwiftConfig(rto=25e-6),  # below the RTT: fires spuriously
        sim=SimConfig(warmup=1e-3, duration=2e-3, seed=1))
    result = run_experiment(config)
    assert result.metrics["timeouts"] > 0
    assert result.metrics["app_throughput_gbps"] > 1


def test_pcie_slower_than_line_rate():
    """An x8-style link: PCIe becomes the hard ceiling."""
    config = ExperimentConfig(
        host=HostConfig(
            cpu=CpuConfig(cores=12),
            pcie=PcieConfig(raw_bps=63e9, goodput_bps=55e9),
        ),
        workload=WorkloadConfig(senders=8),
        sim=SimConfig(warmup=2e-3, duration=3e-3, seed=1))
    result = run_experiment(config)
    assert result.metrics["app_throughput_gbps"] < 55 * 0.93
    assert result.metrics["app_throughput_gbps"] > 30
