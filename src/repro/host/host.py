"""The assembled receiver host (paper Fig. 2).

Wires every interconnect component together and exposes the three
interfaces the rest of the system uses:

- the fabric delivers packets via :attr:`ReceiverHost.deliver_packet`;
- the transport receiver is attached with :meth:`attach_receiver` and
  gets each packet after CPU processing;
- ACKs flow back out through :meth:`send_ack`, stamped with the host
  signals (NIC buffer occupancy, memory utilization) that the §4
  extension transport consumes.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.core.config import HostConfig
from repro.host.addressing import ThreadLayout, build_thread_layouts
from repro.host.antagonist import StreamAntagonist
from repro.host.cache import CopyTrafficModel
from repro.host.cpu import ReceiverThread
from repro.host.iommu import Iommu
from repro.host.iotlb import Iotlb
from repro.host.memory import MemoryController
from repro.host.nic import Nic
from repro.host.pagetable import PageTable
from repro.host.pcie import PcieLink
from repro.net.packet import Ack, Packet
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer

__all__ = ["ReceiverHost"]


def _unattached(pkt: Packet) -> None:
    """Processed-packet sink until :meth:`ReceiverHost.attach_receiver`."""


class ReceiverHost(Component):
    """One receiver machine: NIC, PCIe, IOMMU, memory, CPU threads."""

    label = "host"

    def __init__(
        self,
        sim: Simulator,
        config: HostConfig,
        rng: random.Random,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.config = config
        self.memory = MemoryController(sim, config.memory)
        self.pagetable = PageTable(config.iommu.walk_cache_entries)
        self.iotlb = Iotlb(config.iommu.iotlb_entries,
                           ways=config.iommu.iotlb_ways)
        self.iommu = Iommu(config.iommu, self.iotlb, self.pagetable,
                           self.memory)
        self.layouts: List[ThreadLayout] = build_thread_layouts(
            config.cpu.cores, config.rx_region_bytes, config.hugepages,
            config.nic)
        for layout in self.layouts:
            for region in layout.all_regions():
                self.pagetable.register_region(region)
        self.pcie = PcieLink(sim, config.pcie)
        self.nic = Nic(
            sim,
            config.nic,
            self.pcie,
            self.iommu,
            self.memory,
            self.layouts,
            rng,
            deliver=self._on_dma_complete,
            tracer=tracer,
        )
        #: Entry point from the access link: the NIC's receive itself,
        #: so the fabric hands each packet over without a relay.
        self.deliver_packet: Callable[[Packet], None] = self.nic.receive
        if config.ddio.dynamic_llc:
            from repro.host.llc import DynamicLlcModel

            self.copy_model = DynamicLlcModel(config.ddio, self.memory)
        else:
            self.copy_model = CopyTrafficModel(config.ddio, self.memory)
        self.threads: List[ReceiverThread] = [
            ReceiverThread(
                sim,
                thread_id=tid,
                config=config.cpu,
                nic=self.nic,
                memory=self.memory,
                copy_model=self.copy_model,
                on_processed=_unattached,
                replenish_batch=config.nic.replenish_batch,
                tracer=tracer,
            )
            for tid in range(config.cpu.cores)
        ]
        self.antagonist = StreamAntagonist(
            self.memory, config.antagonist_cores,
            config.antagonist_per_core_Bps)
        # The second NUMA node: its own memory controller, populated
        # only by antagonists that were scheduled away from the NIC
        # (paper §4's coordinated congestion response).
        self.remote_memory = MemoryController(sim, config.memory)
        self.remote_antagonist = StreamAntagonist(
            self.remote_memory, config.remote_antagonist_cores,
            config.antagonist_per_core_Bps)
        self._ack_egress: Optional[Callable[[Ack, float], None]] = None
        self._stats_since = sim.now
        sim.call(config.cpu.descriptor_flush_interval, self._flush_tick)

    # -- wiring ---------------------------------------------------------------

    def children(self):
        """Every stats-bearing part, named by its historical metric
        namespace (relative to this host's own prefix)."""
        return (
            [("nic", self.nic),
             ("iommu", self.iommu),
             ("iotlb", self.iotlb),
             ("pcie", self.pcie),
             ("memory", self.memory),
             ("remote_memory", self.remote_memory),
             ("copy", self.copy_model)]
            + [(f"cpu{t.thread_id}", t) for t in self.threads]
        )

    def bind_own_metrics(self, registry, component: str) -> None:
        """Host-level derived gauges (component parts register their
        own observables through the :class:`Component` recursion)."""
        for name, unit, fn in (
            ("app_throughput_gbps", "Gbps",
             lambda: self.app_throughput_bps() / 1e9),
            ("wire_arrival_gbps", "Gbps",
             lambda: self.wire_arrival_bps() / 1e9),
            ("iotlb_misses_per_packet", "misses/pkt",
             self.iotlb_misses_per_packet),
            ("iommu_entries", "entries",
             lambda: float(self.pagetable.entry_count)),
        ):
            registry.gauge(name, component, unit, fn=fn)

    def attach_receiver(self, receiver: Callable[[Packet], None]) -> None:
        """Transport-layer hook, called once per processed packet (each
        thread calls it directly)."""
        for thread in self.threads:
            thread.on_processed = receiver

    def attach_ack_egress(self,
                          egress: Callable[[Ack, float], None]) -> None:
        """Fabric hook for ACKs leaving the host: called as
        ``egress(ack, wire_time)`` (see :meth:`Nic.transmit_ack`)."""
        self._ack_egress = egress

    # -- datapath -------------------------------------------------------------

    def _on_dma_complete(self, pkt: Packet) -> None:
        if self.config.ddio.dynamic_llc:
            # Only the dynamic LLC model tracks DMA-write residency.
            self.copy_model.record_dma_write(pkt)
        self.threads[pkt.thread_id].enqueue(pkt)

    def send_ack(self, ack: Ack, thread_id: int) -> None:
        """Transport receiver sends an ACK back to a sender."""
        egress = self._ack_egress
        if egress is None:
            raise RuntimeError("no ACK egress attached to host")
        nic = self.nic
        ack.nic_buffer_fraction = nic.buffer_fraction()
        utilization = self.memory.utilization
        ack.memory_utilization = 1.0 if 1.0 < utilization else utilization
        nic.transmit_ack(ack, thread_id, egress)

    def _flush_tick(self) -> None:
        for thread in self.threads:
            thread.flush_descriptors()
        self.sim.call(self.config.cpu.descriptor_flush_interval,
                      self._flush_tick)

    # -- telemetry ------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self.sim.now - self._stats_since

    def app_throughput_bps(self) -> float:
        """Application-level goodput (processed payload bits/s)."""
        if self.elapsed <= 0:
            return 0.0
        payload = sum(t.processed_payload_bytes for t in self.threads)
        return payload * 8 / self.elapsed

    def wire_arrival_bps(self) -> float:
        """Offered load on the access link, including drops."""
        if self.elapsed <= 0:
            return 0.0
        return self.nic.rx_bytes * 8 / self.elapsed

    def drop_rate(self) -> float:
        return self.nic.drop_rate()

    def iotlb_misses_per_packet(self) -> float:
        """All IOTLB misses (Rx and ACK-Tx translations) per received
        data packet — the paper's Fig. 3/4/5 right-hand metric."""
        if self.nic.dma_completed_packets == 0:
            return 0.0
        return self.iommu.total_misses / self.nic.dma_completed_packets

    def registered_iommu_entries(self) -> int:
        return self.pagetable.entry_count

    def snapshot(self) -> Dict[str, float]:
        """All headline metrics for the current measurement window.

        Deliberately overrides the :class:`Component` recursion: this
        flat dict is the stable reporting surface that
        ``ExperimentHandle.collect()`` and the sweep CSVs are built on.
        """
        return {
            "app_throughput_gbps": self.app_throughput_bps() / 1e9,
            "wire_arrival_gbps": self.wire_arrival_bps() / 1e9,
            "drop_rate": self.drop_rate(),
            "iotlb_misses_per_packet": self.iotlb_misses_per_packet(),
            "memory_utilization": self.memory.utilization,
            "memory_total_GBps": self.memory.total_achieved_bandwidth() / 1e9,
            "mean_dma_latency_us": self.nic.mean_dma_latency() * 1e6,
            "mean_nic_delay_us": self.nic.mean_nic_delay() * 1e6,
            "nic_buffer_peak_fraction":
                self.nic.buffer.peak_bytes / self.config.nic.buffer_bytes,
            "iommu_entries": float(self.pagetable.entry_count),
            "remote_memory_GBps":
                self.remote_memory.total_achieved_bandwidth() / 1e9,
        }

    def reset_own_stats(self) -> None:
        """Warmup boundary: restart the host's rate clock (component
        counters are zeroed by the :class:`Component` recursion)."""
        self._stats_since = self.sim.now
