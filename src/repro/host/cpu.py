"""Receiver threads: per-packet processing and descriptor replenishment.

Each thread runs on a dedicated core (paper §3 setup) and serves its
queue of DMA-completed packets at a fixed per-core rate (the paper's
CPU-bottlenecked region: throughput linear in cores up to 8 × 11.5 Gbps
≈ 92 Gbps).  Processing a packet copies its payload to application
buffers — memory traffic accounted through
:class:`~repro.host.cache.CopyTrafficModel` — and returns descriptors
to the NIC in batches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.core.config import CpuConfig
from repro.host.cache import CopyTrafficModel
from repro.host.memory import MemoryController
from repro.host.nic import Nic
from repro.net.packet import Packet
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer

__all__ = ["ReceiverThread"]


class ReceiverThread(Component):
    """One receive-processing thread pinned to one core."""

    def __init__(
        self,
        sim: Simulator,
        thread_id: int,
        config: CpuConfig,
        nic: Nic,
        memory: MemoryController,
        copy_model: CopyTrafficModel,
        on_processed: Callable[[Packet], None],
        replenish_batch: int = 32,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.thread_id = thread_id
        self.label = f"cpu{thread_id}"
        self.config = config
        self.nic = nic
        self.memory = memory
        self.copy_model = copy_model
        self.on_processed = on_processed
        self.replenish_batch = replenish_batch
        self.tracer = tracer
        # Hot-path hoists (config is immutable after construction).
        self._core_rate_bps = config.core_rate_bps
        self._contention_slowdown = config.contention_slowdown
        self._queue: Deque[Packet] = deque()
        self._busy = False
        self._pending_descriptors = 0
        # Window counters.
        self.processed_packets = 0
        self.processed_payload_bytes = 0
        self._busy_time = 0.0
        self._queue_delay_sum = 0.0

    def __len__(self) -> int:
        return len(self._queue)

    # -- packet intake --------------------------------------------------------

    def enqueue(self, pkt: Packet) -> None:
        """Called by the host when the NIC finishes a packet's DMA."""
        self._queue.append(pkt)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        pkt = self._queue.popleft()
        # Copies stall when the memory bus is saturated, inflating the
        # service time by up to ``contention_slowdown``.
        contention = self.memory.utilization
        if contention > 1.0:
            contention = 1.0
        service = (pkt.payload_bytes * 8 / self._core_rate_bps
                   * (1.0 + self._contention_slowdown * contention))
        self._busy_time += service
        span = 0
        if self.tracer is not None and self.tracer.enabled:
            span = self.tracer.begin(f"cpu{self.thread_id}", "process",
                                     flow=pkt.flow_id, seq=pkt.seq)
        self.sim.call(service, self._finish, pkt, span)

    def _finish(self, pkt: Packet, span: int = 0) -> None:
        if span and self.tracer is not None:
            self.tracer.end(span)
        pkt.cpu_done_time = self.sim.now
        self.processed_packets += 1
        self.processed_payload_bytes += pkt.payload_bytes
        if pkt.dma_done_time is not None:
            self._queue_delay_sum += self.sim.now - pkt.dma_done_time
        self.copy_model.record_copy(pkt)
        self._pending_descriptors += 1
        if self._pending_descriptors >= self.replenish_batch:
            self.nic.replenish(self.thread_id, self._pending_descriptors)
            self._pending_descriptors = 0
        self.on_processed(pkt)
        self._start_next()

    def flush_descriptors(self) -> None:
        """Return any batched descriptors immediately (idle housekeeping,
        so a quiet thread cannot strand descriptors)."""
        if self._pending_descriptors:
            self.nic.replenish(self.thread_id, self._pending_descriptors)
            self._pending_descriptors = 0

    # -- telemetry -------------------------------------------------------------

    def bind_own_metrics(self, registry, component: str) -> None:
        """Register per-thread counters (reader-backed) in ``registry``.

        The default component label is ``cpu<thread_id>`` so every
        thread instance enumerates separately.
        """
        registry.counter("processed_packets", component,
                         fn=lambda: self.processed_packets)
        registry.counter("processed_payload_bytes", component, unit="bytes",
                         fn=lambda: self.processed_payload_bytes)
        registry.gauge("queue_depth", component, unit="packets",
                       fn=lambda: float(len(self._queue)))
        registry.gauge("mean_queue_delay_us", component, unit="us",
                       fn=lambda: self.mean_queue_delay() * 1e6)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(self._busy_time / elapsed, 1.0)

    def mean_queue_delay(self) -> float:
        """Mean DMA-done → processing-complete delay this window."""
        if self.processed_packets == 0:
            return 0.0
        return self._queue_delay_sum / self.processed_packets

    def reset_own_stats(self) -> None:
        self.processed_packets = 0
        self.processed_payload_bytes = 0
        self._busy_time = 0.0
        self._queue_delay_sum = 0.0
