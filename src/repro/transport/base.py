"""Sender-side connection state machine.

Window management, pacing (Swift supports cwnd < 1), SACK-style loss
detection by transmission-order reordering, and an RTO backstop.  The
congestion-control algorithm itself is pluggable
(:class:`CongestionControl`), so Swift, DCTCP, CUBIC, and the host-
signal extension all share this machinery.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Protocol

from repro.net.packet import Ack, Packet
from repro.sim.component import Component
from repro.sim.engine import Simulator

__all__ = ["CongestionControl", "Connection"]


class CongestionControl(Protocol):
    """The decision core of a transport protocol."""

    def on_ack(self, rtt: float, ack: Ack, now: float) -> None:
        """Process one acknowledgment."""

    def on_loss(self, now: float) -> None:
        """A packet was declared lost (fast retransmit)."""

    def on_timeout(self, now: float) -> None:
        """The retransmission timer fired."""

    def cwnd(self) -> float:
        """Current congestion window in packets (may be fractional)."""


class _SentRecord:
    __slots__ = ("seq", "tx_index", "sent_time", "retransmitted")

    def __init__(self, seq: int, tx_index: int, sent_time: float):
        self.seq = seq
        self.tx_index = tx_index
        self.sent_time = sent_time
        self.retransmitted = False


class Connection(Component):
    """One always-backlogged sender → receiver flow.

    The paper's workload is closed-loop 16 KB remote reads issued
    continuously; at saturation that is an always-backlogged windowed
    stream, which is how the sender is modelled.  Message (read)
    latency accounting happens at the receiver endpoint.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        sender_id: int,
        thread_id: int,
        cc: CongestionControl,
        send: Callable[[Packet], None],
        payload_bytes: int,
        wire_bytes: int,
        rto: float = 1e-3,
        reorder_threshold: int = 3,
        initial_rtt: float = 25e-6,
        max_inflight: int = 1024,
        always_backlogged: bool = True,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.label = f"flow{flow_id}"
        self.sender_id = sender_id
        self.thread_id = thread_id
        self.cc = cc
        self._send = send
        self.payload_bytes = payload_bytes
        self.wire_bytes = wire_bytes
        self.rto = rto
        self.reorder_threshold = reorder_threshold
        self.max_inflight = max_inflight

        self.always_backlogged = always_backlogged
        #: Packets of application data awaiting first transmission
        #: (ignored when ``always_backlogged``).
        self._backlog_packets = 0
        self._next_seq = 0
        self._tx_counter = 0
        self._highest_acked_tx = -1
        #: seq -> _SentRecord, in transmission order.
        self._inflight: "OrderedDict[int, _SentRecord]" = OrderedDict()
        self._retx_queue: Deque[int] = deque()
        self.srtt = initial_rtt
        self._next_send_time = 0.0
        self._send_scheduled = False
        self._last_ack_time = sim.now
        # Statistics.
        self.packets_sent = 0
        self.retransmissions = 0
        self.acks_received = 0
        self.losses_detected = 0
        self.timeouts = 0

        #: True iff an _rto_check timer is pending (armed on transmit,
        #: disarmed when nothing is in flight — keeps idle flows off the
        #: event heap in large-N sweeps).  The timer itself lives in the
        #: engine's timer wheel, not the dispatch heap.
        self._rto_armed = False

        sim.call(0.0, self._maybe_send)

    # -- sending ---------------------------------------------------------------

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    @property
    def backlog_packets(self) -> int:
        return self._backlog_packets

    def add_backlog(self, packets: int) -> None:
        """Open-loop mode: application data arrives to be sent."""
        if packets <= 0:
            raise ValueError(f"backlog must be positive, got {packets}")
        self._backlog_packets += packets
        self._maybe_send()

    def _maybe_send(self) -> None:
        self._send_scheduled = False
        now = self.sim.now
        # Fast retransmit: a lost packet's window slot is already
        # accounted for, so retransmissions bypass the window check
        # (and pacing) — they replace in-flight data, not add to it.
        while self._retx_queue:
            self._transmit_next()
        # Transmitting only schedules events, so the window and the
        # pacing gap hold for the whole loop.
        cwnd = self.cc.cwnd()
        if cwnd >= 1.0:
            window = int(cwnd)
            gap = 0.0
        else:
            # Sub-packet windows are enforced by pacing.
            window = 1
            gap = self.srtt / (1e-3 if 1e-3 > cwnd else cwnd)
        max_inflight = self.max_inflight
        if max_inflight < window:
            window = max_inflight
        inflight = self._inflight
        while self.always_backlogged or self._backlog_packets > 0:
            if len(inflight) >= window:
                return
            if now < self._next_send_time:
                self._schedule_send(self._next_send_time - now)
                return
            self._transmit_next()
            if gap > 0:
                self._next_send_time = self.sim.now + gap
                self._schedule_send(gap)
                return

    def _schedule_send(self, delay: float) -> None:
        if not self._send_scheduled:
            self._send_scheduled = True
            self.sim.schedule_timer(delay, self._maybe_send)

    def _transmit_next(self) -> None:
        now = self.sim.now
        if self._retx_queue:
            seq = self._retx_queue.popleft()
            retx = True
            # Re-insert at the tail so _inflight stays in tx order (a
            # fresh seq has never been in flight).
            self._inflight.pop(seq, None)
        else:
            seq = self._next_seq
            self._next_seq += 1
            retx = False
            if not self.always_backlogged:
                self._backlog_packets -= 1
        record = _SentRecord(seq, self._tx_counter, now)
        record.retransmitted = retx
        self._tx_counter += 1
        self._inflight[seq] = record
        pkt = Packet.acquire(self.flow_id, seq, self.payload_bytes,
                             self.wire_bytes, now, self.thread_id, retx)
        self.packets_sent += 1
        if retx:
            self.retransmissions += 1
        if not self._rto_armed:
            self._rto_armed = True
            self.sim.schedule_timer(self.rto, self._rto_check)
        self._send(pkt)

    # -- receiving acks ----------------------------------------------------------

    def on_ack(self, ack: Ack) -> None:
        now = self.sim.now
        self._last_ack_time = now
        record = self._inflight.pop(ack.seq, None)
        if record is None:
            return  # duplicate/late ack for a retransmitted packet
        self.acks_received += 1
        if record.tx_index > self._highest_acked_tx:
            self._highest_acked_tx = record.tx_index
        rtt = now - ack.sent_time_echo
        self.srtt += 0.125 * (rtt - self.srtt)
        self.cc.on_ack(rtt, ack, now)
        self._detect_losses()
        self._maybe_send()

    def _detect_losses(self) -> None:
        """Transmission-order reordering: a packet is lost once
        ``reorder_threshold`` later transmissions have been acked."""
        lost = []
        threshold = self._highest_acked_tx - self.reorder_threshold
        for seq, record in self._inflight.items():
            if record.tx_index <= threshold:
                lost.append(seq)
            else:
                break  # _inflight is in tx order
        for seq in lost:
            del self._inflight[seq]
            self.losses_detected += 1
            self._retx_queue.append(seq)
        if lost:
            self.cc.on_loss(self.sim.now)

    # -- timeout backstop ---------------------------------------------------------

    def _rto_check(self) -> None:
        now = self.sim.now
        if not self._inflight:
            # Nothing to back-stop: disarm until the next transmission.
            # (The check itself stays on the rto/2 grid while armed —
            # cancelling it early would shift the polling phase and
            # change timeout detection times.)
            self._rto_armed = False
            return
        oldest = next(iter(self._inflight.values()))
        if now - oldest.sent_time > self.rto:
            seq = oldest.seq
            del self._inflight[seq]
            self._retx_queue.append(seq)
            self.timeouts += 1
            self.cc.on_timeout(now)
            self._maybe_send()
        self.sim.schedule_timer(self.rto / 2, self._rto_check)

    # -- telemetry ----------------------------------------------------------

    def bind_own_metrics(self, registry, component: str) -> None:
        """Per-flow observables.

        Not bound automatically by the workload composites — one
        registry entry per flow × counter would swamp snapshots at
        cores × senders flows — but available for focused studies.
        """
        for name, fn in (
            ("packets_sent", lambda: self.packets_sent),
            ("retransmissions", lambda: self.retransmissions),
            ("acks_received", lambda: self.acks_received),
            ("losses_detected", lambda: self.losses_detected),
            ("timeouts", lambda: self.timeouts),
        ):
            registry.counter(name, component, fn=fn)
        registry.gauge("cwnd", component, unit="packets",
                       fn=lambda: self.cc.cwnd())

    def reset_own_stats(self) -> None:
        self.packets_sent = 0
        self.retransmissions = 0
        self.acks_received = 0
        self.losses_detected = 0
        self.timeouts = 0
