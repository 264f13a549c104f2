"""The NIC: input buffer, Rx descriptor rings, and the DMA engine.

This is the component where host congestion becomes visible (paper §2):

1. arriving packets enqueue in a small SRAM input buffer — the only
   place on the receive path where drops happen;
2. the DMA engine takes an Rx descriptor and PCIe credits, asks the
   IOMMU for translations, occupies the PCIe link, and pays the
   (possibly contended) memory-write latency;
3. credit release on completion is the backpressure loop: "any delays
   in the NIC-to-memory datapath result in a backpressure to the NIC
   input buffer, until the root complex can replenish the credits."
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.core.calibration import NIC_CONTROL_WRITE_BYTES
from repro.core.config import NicConfig
from repro.host.addressing import ThreadLayout
from repro.host.iommu import Iommu
from repro.host.memory import MemoryController, TrafficCounter
from repro.host.pcie import PcieLink
from repro.net.packet import Ack, Packet
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.queues import ByteQueue
from repro.sim.tracing import Tracer

__all__ = ["Nic", "RxRing"]

#: Fixed NIC-side latency for transmitting one ACK (doorbell, DMA read
#: issue); the ACK's translation latency is added on top.
_ACK_TX_LATENCY = 0.3e-6


class RxRing:
    """Free-descriptor accounting for one receive queue.

    The NIC's DMA pump takes descriptors by decrementing ``free`` (and
    counts an ``exhaustions`` when it finds none); the CPU gives them
    back with :meth:`replenish`.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.free = capacity
        self.exhaustions = 0

    def replenish(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"cannot replenish {n} descriptors")
        self.free = min(self.free + n, self.capacity)


class Nic(Component):
    """Receive-side NIC model."""

    label = "nic"

    def __init__(
        self,
        sim: Simulator,
        config: NicConfig,
        pcie: PcieLink,
        iommu: Iommu,
        memory: MemoryController,
        layouts: List[ThreadLayout],
        rng: random.Random,
        deliver: Callable[[Packet], None],
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.config = config
        self.pcie = pcie
        self.iommu = iommu
        self.memory = memory
        self.layouts = layouts
        self.rng = rng
        self.deliver = deliver
        self.tracer = tracer
        self.buffer = ByteQueue(sim, config.buffer_bytes, name="nic-input")
        self.rings = [RxRing(config.ring_descriptors) for _ in layouts]
        #: PCIe credits: DMA bytes in flight, at most
        #: ``pcie.config.max_inflight_bytes``.  A DMA takes its wire
        #: bytes when it starts and returns them when it completes.
        self._inflight_bytes = 0
        self._max_inflight_bytes = pcie.config.max_inflight_bytes
        self._traffic: TrafficCounter = memory.register_counter(
            "nic-dma", "nic")
        self._ack_countdown = config.ack_coalescing
        # Window counters (reset at the warmup boundary).
        self.rx_packets = 0
        self.rx_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.dma_completed_packets = 0
        self.dma_completed_payload_bytes = 0
        self.acks_sent = 0
        self._nic_delay_sum = 0.0
        self._dma_latency_sum = 0.0
        # Bound by bind_metrics(); None keeps the hot path at one branch.
        # While bound, per-packet samples land in plain lists and drain
        # into the histograms only at snapshot() — an append costs less
        # than half a sketch observe.  The warmup boundary clears them.
        self._m_host_delay = None
        self._m_dma_latency = None
        self._host_delay_pending: List[float] = []
        self._dma_latency_pending: List[float] = []

    def bind_own_metrics(self, registry, component: str) -> None:
        """Register every NIC observable in ``registry``.

        Counter/gauge readers pull the existing window counters at
        snapshot time (zero hot-path cost); the two latency histograms
        observe per-packet and cost one guarded append each.
        """
        for name, fn in (
            ("rx_packets", lambda: self.rx_packets),
            ("rx_bytes", lambda: self.rx_bytes),
            ("dropped_packets", lambda: self.dropped_packets),
            ("dropped_bytes", lambda: self.dropped_bytes),
            ("dma_completed_packets", lambda: self.dma_completed_packets),
            ("dma_completed_payload_bytes",
             lambda: self.dma_completed_payload_bytes),
            ("acks_sent", lambda: self.acks_sent),
            ("ring_exhaustions",
             lambda: sum(r.exhaustions for r in self.rings)),
        ):
            registry.counter(name, component, fn=fn)
        for name, unit, fn in (
            ("drop_rate", "fraction", self.drop_rate),
            ("buffer_fraction", "fraction", self.buffer_fraction),
            ("buffer_peak_fraction", "fraction",
             lambda: self.buffer.peak_bytes / self.config.buffer_bytes),
            ("mean_nic_delay_us", "us",
             lambda: self.mean_nic_delay() * 1e6),
            ("mean_dma_latency_us", "us",
             lambda: self.mean_dma_latency() * 1e6),
        ):
            registry.gauge(name, component, unit, fn=fn)
        self._m_host_delay = registry.histogram("host_delay_us", component)
        self._m_dma_latency = registry.histogram("dma_latency_us", component)
        registry.add_flush_callback(self.flush_metric_samples)

    def flush_metric_samples(self) -> None:
        """Drain buffered histogram samples (registry flush hook)."""
        for sketch, pending in (
                (self._m_host_delay, self._host_delay_pending),
                (self._m_dma_latency, self._dma_latency_pending)):
            sketch.extend(pending)
            pending.clear()

    # -- receive path -------------------------------------------------------

    def receive(self, pkt: Packet) -> None:
        """A packet arrives from the wire."""
        self.rx_packets += 1
        self.rx_bytes += pkt.wire_bytes
        pkt.nic_arrival_time = self.sim.now
        occupied = self.buffer.bytes_used + self._inflight_bytes
        if occupied + pkt.wire_bytes > self.config.buffer_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += pkt.wire_bytes
            if self.tracer:
                self.tracer.emit("nic", "drop", flow=pkt.flow_id,
                                 seq=pkt.seq, occupied=occupied)
            pkt.release()
            return
        self.buffer.offer(pkt, pkt.wire_bytes)
        self._pump()

    def _pump(self) -> None:
        """Start DMAs while the head packet has descriptors and credits."""
        buffer = self.buffer
        items = buffer.items
        rings = self.rings
        max_inflight = self._max_inflight_bytes
        start_dma = self._start_dma
        while items:
            pkt: Packet = items[0][0]
            ring = rings[pkt.thread_id]
            if not ring.free:
                ring.exhaustions += 1
                return  # head-of-line stall until CPU replenishes
            inflight = self._inflight_bytes + pkt.wire_bytes
            if inflight > max_inflight:
                return  # retry when a DMA completes and returns credits
            ring.free -= 1
            buffer.pop()
            self._inflight_bytes = inflight
            start_dma(pkt)

    def _start_dma(self, pkt: Packet) -> None:
        translation = self.iommu.translate(
            self.layouts[pkt.thread_id].rx_dma_pages(
                self.rng, pkt.payload_bytes))
        pcie_delay = self.pcie.occupy(pkt.wire_bytes)
        mem_latency = self.memory.dma_write_latency()
        total = (self.pcie.config.dma_fixed_latency
                 + translation.latency + pcie_delay + mem_latency)
        self._dma_latency_sum += total
        if self._m_dma_latency is not None:
            self._dma_latency_pending.append(total * 1e6)
        span = 0
        if self.tracer is not None and self.tracer.enabled:
            tracer = self.tracer
            tracer.emit(
                "nic", "dma_start", flow=pkt.flow_id, seq=pkt.seq,
                misses=translation.iotlb_misses, latency=total)
            # One span per DMA, plus complete sub-spans for the stages
            # whose latency is known up front: descriptor fetch →
            # IOMMU translate → PCIe transfer → memory write.
            span = tracer.begin("nic", "dma", flow=pkt.flow_id,
                                seq=pkt.seq,
                                misses=translation.iotlb_misses)
            stage_start = self.sim.now
            for stage, owner, dur in (
                ("descriptor_fetch", "nic",
                 self.pcie.config.dma_fixed_latency),
                ("translate", "iommu", translation.latency),
                ("pcie_transfer", "pcie", pcie_delay),
                ("memory_write", "memory", mem_latency),
            ):
                if dur > 0:
                    tracer.complete(owner, stage, stage_start, dur,
                                    flow=pkt.flow_id, seq=pkt.seq)
                stage_start += dur
        self.sim.call(total, self._dma_done, pkt, span)

    def _dma_done(self, pkt: Packet, span: int = 0) -> None:
        self._inflight_bytes -= pkt.wire_bytes
        pkt.dma_done_time = self.sim.now
        self.dma_completed_packets += 1
        self.dma_completed_payload_bytes += pkt.payload_bytes
        nic_delay = pkt.dma_done_time - pkt.nic_arrival_time
        self._nic_delay_sum += nic_delay
        if self._m_host_delay is not None:
            self._host_delay_pending.append(nic_delay * 1e6)
        self._traffic.bytes_pending += (pkt.payload_bytes
                                        + NIC_CONTROL_WRITE_BYTES)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit("nic", "dma_done", flow=pkt.flow_id, seq=pkt.seq)
            tracer.end(span)
        self.deliver(pkt)
        self._pump()

    # -- descriptor replenishment --------------------------------------------

    def replenish(self, thread_id: int, n: int) -> None:
        """CPU gives descriptors back to queue ``thread_id``."""
        self.rings[thread_id].replenish(n)
        self._pump()

    # -- transmit path (ACKs) --------------------------------------------------

    def transmit_ack(self, ack: Ack, thread_id: int,
                     on_wire: Callable[[Ack, float], None]) -> None:
        """Send an ACK: its descriptor/staging pages go through the same
        IOTLB (the paper's footnote 3 counts the ACK's transactions in
        the per-packet miss budget).

        ``on_wire(ack, wire_time)`` is called at once with the absolute
        time the ACK leaves the NIC; the fabric schedules its delivery
        from there, so an ACK costs one engine event, not two.
        """
        self._ack_countdown -= ack.acked_count
        if self._ack_countdown > 0:
            # Coalesced away; a later ACK will carry this acknowledgment.
            return
        self._ack_countdown = self.config.ack_coalescing
        layout = self.layouts[thread_id]
        pages = layout.tx_control_pages(self.rng)
        translation = self.iommu.translate(pages)
        self.acks_sent += 1
        latency = _ACK_TX_LATENCY + translation.latency
        on_wire(ack, self.sim.now + latency)

    # -- telemetry ----------------------------------------------------------

    def buffer_fraction(self) -> float:
        """Current input-buffer occupancy (0..1), inflight included."""
        return (self.buffer.bytes_used + self._inflight_bytes) / (
            self.config.buffer_bytes
        )

    def mean_nic_delay(self) -> float:
        """Mean NIC-arrival → DMA-complete latency this window."""
        if self.dma_completed_packets == 0:
            return 0.0
        return self._nic_delay_sum / self.dma_completed_packets

    def mean_dma_latency(self) -> float:
        """Mean scheduled per-DMA latency this window."""
        if self.dma_completed_packets == 0:
            return 0.0
        return self._dma_latency_sum / self.dma_completed_packets

    def drop_rate(self) -> float:
        if self.rx_packets == 0:
            return 0.0
        return self.dropped_packets / self.rx_packets

    def reset_own_stats(self) -> None:
        """Zero window counters and drop buffered samples (warmup
        boundary)."""
        self.rx_packets = 0
        self.rx_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.dma_completed_packets = 0
        self.dma_completed_payload_bytes = 0
        self.acks_sent = 0
        self._nic_delay_sum = 0.0
        self._dma_latency_sum = 0.0
        self._host_delay_pending.clear()
        self._dma_latency_pending.clear()
        self.buffer.peak_bytes = self.buffer.bytes_used

    def own_snapshot(self) -> dict:
        return {
            "rx_packets": self.rx_packets,
            "dropped_packets": self.dropped_packets,
            "drop_rate": self.drop_rate(),
            "mean_dma_latency_us": self.mean_dma_latency() * 1e6,
            "mean_nic_delay_us": self.mean_nic_delay() * 1e6,
            "buffer_peak_fraction":
                self.buffer.peak_bytes / self.config.buffer_bytes,
        }
