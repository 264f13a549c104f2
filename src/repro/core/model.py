"""Analytical models of host interconnect throughput.

The paper's central quantitative claim (§3.1) is a Little's-law bound:
PCIe credits allow at most :math:`C` bytes in flight, each DMA takes
:math:`T_{base} + M \\cdot T_{miss}`, so NIC-to-CPU throughput is
bounded by :math:`C / (T_{base} + M \\cdot T_{miss})`.  The "Modeled App
Throughput" line of Fig. 3 is exactly this bound evaluated with the
measured IOTLB miss rate.  This module implements that model plus the
working-set model that predicts the miss rate, and a combined
throughput predictor covering the CPU-bound region as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.calibration import CONTROL_ACCESSES_PER_PACKET
from repro.core.config import ExperimentConfig, HostConfig, MemoryConfig
from repro.host.memory import queue_delay_for

__all__ = [
    "ThroughputModel",
    "dma_base_latency",
    "iotlb_working_set",
    "littles_law_throughput_bps",
    "modeled_app_throughput_bps",
    "predicted_miss_ratio",
]


def littles_law_throughput_bps(inflight_bytes: int, latency: float) -> float:
    """Throughput bound for ``inflight_bytes`` of credits and a per-DMA
    ``latency`` (seconds): :math:`C \\cdot 8 / T` bits/s."""
    if latency <= 0:
        raise ValueError(f"latency must be positive, got {latency}")
    if inflight_bytes <= 0:
        raise ValueError(f"inflight must be positive, got {inflight_bytes}")
    return inflight_bytes * 8 / latency


def dma_base_latency(config: HostConfig, wire_bytes: int,
                     memory_utilization: float = 0.15) -> float:
    """Per-DMA latency with zero IOTLB misses (:math:`T_{base}`).

    Fixed PCIe/root-complex overhead + serialization at PCIe goodput +
    one (possibly contended) memory write.
    """
    serialization = wire_bytes * 8 / config.pcie.goodput_bps
    mem = config.memory.idle_latency + queue_delay_for(
        memory_utilization, config.memory)
    return config.pcie.dma_fixed_latency + serialization + mem


def miss_penalty(config: MemoryConfig, memory_utilization: float,
                 walk_accesses: float = 1.0) -> float:
    """Latency added per IOTLB miss (:math:`T_{miss}`)."""
    per_access = config.walk_base_latency + (
        config.walk_contention_fraction
        * queue_delay_for(memory_utilization, config)
    )
    return walk_accesses * per_access


@dataclass(frozen=True)
class WorkingSet:
    """IOMMU footprint of the configured receive layout."""

    pages_per_thread: int
    total_pages: int
    accesses_per_packet: int


def iotlb_working_set(config: HostConfig) -> WorkingSet:
    """The *active* IOMMU working set for the configured host.

    Counts the pages the NIC actually touches in steady state: the data
    pool, connection-state pool, ACK staging, and one hot page per ring.
    This is what determines whether the IOTLB thrashes, and predicts
    the paper's Fig. 3 knee (8 threads × 16 pages = 128 entries).
    """
    per_thread = config.data_pages_per_thread + config.hot_pages_per_thread
    return WorkingSet(
        pages_per_thread=per_thread,
        total_pages=per_thread * config.cpu.cores,
        accesses_per_packet=(config.payload_pages_per_packet
                             + CONTROL_ACCESSES_PER_PACKET),
    )


def predicted_miss_ratio(config: HostConfig) -> float:
    """First-order IOTLB miss-ratio estimate: for an LRU cache under a
    working set ``W`` larger than its capacity ``K``, uniform reuse
    gives a miss ratio of ``1 - K/W`` (zero when everything fits)."""
    ws = iotlb_working_set(config)
    capacity = config.iommu.iotlb_entries
    if ws.total_pages <= capacity:
        return 0.0
    return 1.0 - capacity / ws.total_pages


class ThroughputModel:
    """Combined predictor for the paper's operating points.

    ``interconnect_bound`` is the Fig. 3 "Modeled App Throughput" line
    (fed with a *measured* miss rate); ``predict`` composes the CPU
    bound, line rate, PCIe goodput, and the interconnect bound.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.wire_bytes = config.workload.wire_bytes_per_packet
        self.payload_fraction = (
            config.workload.mtu_payload / self.wire_bytes
        )

    def interconnect_bound_bps(
        self,
        misses_per_packet: float,
        memory_utilization: float = 0.15,
        walk_accesses: float = 1.0,
    ) -> float:
        """Little's-law app-level bound given a miss rate (bits/s)."""
        host = self.config.host
        t_base = dma_base_latency(host, self.wire_bytes,
                                  memory_utilization)
        t_total = t_base + misses_per_packet * miss_penalty(
            host.memory, memory_utilization, walk_accesses)
        wire_bps = littles_law_throughput_bps(
            host.pcie.max_inflight_bytes, t_total)
        return wire_bps * self.payload_fraction

    def cpu_bound_bps(self) -> float:
        """Receiver-processing bound (the linear region of Fig. 3)."""
        cpu = self.config.host.cpu
        return cpu.cores * cpu.core_rate_bps

    def line_rate_bound_bps(self) -> float:
        """Max app goodput through the access link."""
        return self.config.link.rate_bps * self.payload_fraction

    def pcie_bound_bps(self) -> float:
        """Max app goodput through the PCIe link."""
        return self.config.host.pcie.goodput_bps * self.payload_fraction

    def predict(self, misses_per_packet: float = 0.0,
                memory_utilization: float = 0.15) -> float:
        """App-level throughput prediction (bits/s): min of all bounds."""
        return min(
            self.cpu_bound_bps(),
            self.line_rate_bound_bps(),
            self.pcie_bound_bps(),
            self.interconnect_bound_bps(misses_per_packet,
                                        memory_utilization),
        )


def modeled_app_throughput_bps(
    config: ExperimentConfig,
    misses_per_packet: float,
    memory_utilization: float = 0.15,
) -> float:
    """Convenience wrapper: the Fig. 3 model line for one data point."""
    return ThroughputModel(config).predict(
        misses_per_packet, memory_utilization)
