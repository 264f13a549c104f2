"""Output-queued switch ports and multi-port switches.

The paper's incast (40 senders → 1 receiver) aggregates at the switch
port feeding the receiver's access link.  The port has a large buffer
(fabric congestion is not the subject of the paper) and optional ECN
marking so the DCTCP baseline has a signal to work with.  The fabric
composes ports into :class:`Switch` nodes — one per edge/agg/core
switch, or the star's single switch — so every hop shows up in the
metric tree with its own drop and occupancy counters
(``fabric/agg1/port2.dropped``; ``port0.dropped`` on the star).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.queues import ByteQueue

__all__ = ["Switch", "SwitchPort"]


class SwitchPort(Component):
    """FIFO output port with serialization, ECN, and a finite buffer."""

    label = "port"

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        buffer_bytes: int,
        prop_delay: float,
        deliver: Callable[[Packet], None],
        ecn_threshold_bytes: Optional[int] = None,
        name: str = "switch-port",
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.deliver = deliver
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.queue = ByteQueue(sim, buffer_bytes, name=name)
        self._transmitting = False
        self.forwarded = 0
        # Port-level drop accounting: counted here, at the port that
        # dropped, so multi-port switches report per-port drops instead
        # of one pooled number at the fabric root.
        self.dropped_packets = 0
        self.dropped_bytes = 0

    def enqueue(self, pkt: Packet) -> None:
        if (self.ecn_threshold_bytes is not None
                and self.queue.bytes_used >= self.ecn_threshold_bytes):
            pkt.ecn_marked = True
        if not self.queue.offer(pkt, pkt.wire_bytes):
            self.dropped_packets += 1
            self.dropped_bytes += pkt.wire_bytes
            return  # fabric drop, charged to this port
        if not self._transmitting:
            self._next()

    def _next(self) -> None:
        entry = self.queue.pop()
        if entry is None:
            self._transmitting = False
            return
        self._transmitting = True
        pkt = entry[0]
        tx = pkt.wire_bytes * 8 / self.rate_bps
        self.sim.call(tx, self._sent, pkt)

    def _sent(self, pkt: Packet) -> None:
        self.forwarded += 1
        self.sim.call(self.prop_delay, self.deliver, pkt)
        self._next()

    @property
    def dropped(self) -> int:
        return self.dropped_packets

    def queue_depth_bytes(self) -> int:
        return self.queue.bytes_used

    def peak_queue_bytes(self) -> int:
        return self.queue.peak_bytes

    def bind_own_metrics(self, registry, component: str) -> None:
        registry.counter("forwarded", component,
                         fn=lambda: self.forwarded)
        registry.counter("dropped", component,
                         fn=lambda: self.dropped)
        registry.gauge("queue_depth_bytes", component, unit="bytes",
                       fn=lambda: float(self.queue_depth_bytes()))
        registry.gauge("peak_queue_bytes", component, unit="bytes",
                       fn=lambda: float(self.peak_queue_bytes()))

    def own_snapshot(self) -> Dict[str, float]:
        return {
            "forwarded": float(self.forwarded),
            "dropped": float(self.dropped_packets),
            "dropped_bytes": float(self.dropped_bytes),
            "queue_depth_bytes": float(self.queue.bytes_used),
            "peak_queue_bytes": float(self.queue.peak_bytes),
        }

    def reset_own_stats(self) -> None:
        """Deliberate no-op: fabric drop/forward counts run from t=0 so
        `collect()` keeps reporting whole-run fabric drops."""


class Switch(Component):
    """A named switch: a bag of output ports, one per attached link.

    Pure composition — the data path lives in the ports; the switch
    exists so per-hop metrics namespace cleanly (``fabric/agg1/port2``)
    and per-switch drop/occupancy roll-ups are one call away.
    """

    label = "switch"

    def __init__(self, name: str, tier: str):
        #: Empty for the star's one switch (its ports sit at the root).
        self.name = name
        self.label = name
        #: "edge" / "agg" / "core".
        self.tier = tier
        self._ports: List[Tuple[str, SwitchPort]] = []

    def add_port(self, name: str, port: SwitchPort) -> SwitchPort:
        self._ports.append((name, port))
        return port

    @property
    def ports(self) -> Tuple[SwitchPort, ...]:
        return tuple(p for _, p in self._ports)

    def children(self):
        return tuple(self._ports)

    def dropped(self) -> int:
        return sum(p.dropped for p in self.ports)

    def queue_depth_bytes(self) -> int:
        return sum(p.queue_depth_bytes() for p in self.ports)
