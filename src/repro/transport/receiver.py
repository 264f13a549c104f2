"""Receiver transport endpoint.

Gets each packet after CPU processing, generates an ACK carrying the
echoed send timestamp and the measured host delay (Swift's endpoint
signal), and tracks remote-read (message) completion latency — the
application-level metric the paper's intro cares about ("hundreds of
microseconds of tail latency").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.net.packet import Ack, Packet
from repro.sim.component import Component

__all__ = ["ReceiverEndpoint"]


class _FlowState:
    __slots__ = ("received", "messages_done", "message_latencies",
                 "read_counts")

    def __init__(self):
        self.received: Set[int] = set()
        self.messages_done = 0
        self.message_latencies: List[float] = []
        #: read_id -> distinct packets seen; a read completes when its
        #: count reaches packets-per-read (each distinct seq maps to
        #: exactly one read, so this equals the full-range membership
        #: scan it replaces, without the O(packets_per_read) probe).
        self.read_counts: Dict[int, int] = {}


class ReceiverEndpoint(Component):
    """Per-host receiver transport: ACK generation + read accounting."""

    label = "receiver"

    def __init__(
        self,
        send_ack: Callable[[Ack, int], None],
        packets_per_read: int,
        now: Callable[[], float],
        max_latency_samples: int = 200_000,
        per_flow_packets: Optional[Dict[int, int]] = None,
    ):
        if packets_per_read < 1:
            raise ValueError("packets_per_read must be >= 1")
        self.send_ack = send_ack
        self.packets_per_read = packets_per_read
        self.now = now
        self.max_latency_samples = max_latency_samples
        #: per-flow override of packets-per-read (isolation studies mix
        #: small-RPC victims with elephant reads on one host).
        self.per_flow_packets = per_flow_packets or {}
        if any(v < 1 for v in self.per_flow_packets.values()):
            raise ValueError("per-flow packets_per_read must be >= 1")
        self._flows: Dict[int, _FlowState] = {}
        #: first-packet send time per (flow, read) for latency accounting
        self._read_start: Dict[tuple, float] = {}
        self.packets_received = 0
        self.duplicates = 0

    def on_packet(self, pkt: Packet) -> None:
        """Host calls this after CPU processing of each packet."""
        state = self._flows.get(pkt.flow_id)
        if state is None:
            state = self._flows[pkt.flow_id] = _FlowState()
        self.packets_received += 1
        is_dup = pkt.seq in state.received
        if is_dup:
            self.duplicates += 1
        else:
            state.received.add(pkt.seq)
            self._track_read(state, pkt)
        ack = Ack(pkt.flow_id, pkt.seq, pkt.sent_time, pkt.host_delay(),
                  ecn_echo=pkt.ecn_marked)
        thread_id = pkt.thread_id
        # The endpoint is the packet's final consumer; everything the
        # ACK needs has been copied out, so the buffer can be recycled.
        pkt.release()
        self.send_ack(ack, thread_id)

    def _track_read(self, state: _FlowState, pkt: Packet) -> None:
        ppr = self.per_flow_packets.get(pkt.flow_id, self.packets_per_read)
        read_id = pkt.seq // ppr
        key = (pkt.flow_id, read_id)
        start = self._read_start.get(key)
        if start is None or pkt.sent_time < start:
            self._read_start[key] = pkt.sent_time
        count = state.read_counts.get(read_id, 0) + 1
        if count < ppr:
            state.read_counts[read_id] = count
        else:
            state.read_counts.pop(read_id, None)
            latency = self.now() - self._read_start.pop(key)
            state.messages_done += 1
            if len(state.message_latencies) < self.max_latency_samples:
                state.message_latencies.append(latency)

    # -- reporting ---------------------------------------------------------

    def all_message_latencies(self) -> List[float]:
        out: List[float] = []
        for state in self._flows.values():
            out.extend(state.message_latencies)
        return out

    def message_latencies_for(self, flow_ids) -> List[float]:
        """Latencies restricted to ``flow_ids`` (isolation analysis)."""
        wanted = set(flow_ids)
        out: List[float] = []
        for flow_id, state in self._flows.items():
            if flow_id in wanted:
                out.extend(state.message_latencies)
        return out

    def messages_completed(self) -> int:
        return sum(s.messages_done for s in self._flows.values())

    def bind_own_metrics(self, registry, component: str) -> None:
        registry.counter("messages_completed", component,
                         fn=lambda: float(self.messages_completed()))
        registry.counter("packets_received", component,
                         fn=lambda: self.packets_received)
        registry.counter("duplicates", component,
                         fn=lambda: self.duplicates)

    def reset_own_stats(self) -> None:
        self.packets_received = 0
        self.duplicates = 0
        for state in self._flows.values():
            state.messages_done = 0
            state.message_latencies.clear()
