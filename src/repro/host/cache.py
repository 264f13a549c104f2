"""Direct cache access (DDIO) and the copy-traffic model.

DDIO steers NIC DMA writes into the last-level cache.  Two consequences
(paper §2, footnote 2):

- DMA writes may evict existing lines "to the host memory over the same
  memory bus", so NIC *write* demand still crosses the bus in full.
- Receiver-thread copies read payload mostly from LLC, so copy *read*
  demand is a small fraction of payload rate (the paper measures
  3.3 GB/s of reads against 11.8 GB/s of writes at full rate); with
  DDIO off the copies miss and read demand is the full payload rate.
"""

from __future__ import annotations

from repro.core.config import DdioConfig
from repro.host.memory import MemoryController, TrafficCounter
from repro.sim.component import Component

__all__ = ["CopyTrafficModel"]


class CopyTrafficModel(Component):
    """Converts payload bytes processed by receiver threads into memory
    read/write demand."""

    label = "copy"

    def __init__(self, config: DdioConfig, memory: MemoryController):
        self.config = config
        read_fraction, write_fraction = config.copy_demand_fractions()
        self._read_fraction = read_fraction
        self._write_fraction = write_fraction
        self._reads: TrafficCounter = memory.register_counter(
            "cpu-copy-reads", "cpu")
        self._writes: TrafficCounter = memory.register_counter(
            "cpu-copy-writes", "cpu")
        self.payload_bytes_copied = 0

    def record_copy(self, pkt_or_bytes) -> None:
        """Account for one packet's payload copy to application buffers.

        Accepts a :class:`~repro.net.packet.Packet` or a byte count.
        DMA writes need no hook here: residency is implicit in the
        static fractions (the dynamic alternative is
        :class:`repro.host.llc.DynamicLlcModel`).
        """
        try:
            payload_bytes = pkt_or_bytes.payload_bytes
        except AttributeError:
            payload_bytes = int(pkt_or_bytes)
        self.payload_bytes_copied += payload_bytes
        read_bytes = int(payload_bytes * self._read_fraction)
        write_bytes = int(payload_bytes * self._write_fraction)
        if read_bytes:
            self._reads.bytes_pending += read_bytes
        if write_bytes:
            self._writes.bytes_pending += write_bytes

    # -- telemetry -----------------------------------------------------------

    def bind_own_metrics(self, registry, component: str) -> None:
        registry.counter("payload_bytes_copied", component, unit="bytes",
                         fn=lambda: self.payload_bytes_copied)

    def reset_own_stats(self) -> None:
        self.payload_bytes_copied = 0
