"""Packet and ACK records.

Packets are plain mutable objects (``__slots__`` for speed); the
simulator moves hundreds of thousands of them per run.  Timestamps are
stamped in place as a packet traverses the pipeline so the receiver can
compute the host-delay components that Swift consumes.

Steady-state runs recycle packets through a free list:
:meth:`Packet.acquire` takes one from the pool (re-stamping every slot)
and :meth:`Packet.release` returns it once the receiver endpoint — or
the NIC drop path — is finished with it.  Pool identity is never used
for ordering or hashing, so recycling cannot perturb determinism.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.engine import SimulationError

__all__ = ["Ack", "Packet"]

#: Upper bound on pooled packets; beyond it released packets are simply
#: dropped for the garbage collector (steady state needs roughly the
#: bandwidth-delay product's worth of packets, far below this).
_POOL_LIMIT = 65536


class Packet:
    """A data MTU travelling sender → receiver.

    ``flow_id`` identifies the (sender, receiver-thread) connection;
    ``seq`` is the per-flow packet sequence number.
    """

    __slots__ = (
        "flow_id",
        "seq",
        "payload_bytes",
        "wire_bytes",
        "sent_time",
        "is_retransmission",
        "ecn_marked",
        "nic_arrival_time",
        "dma_done_time",
        "cpu_done_time",
        "thread_id",
        # Fabric state, written by the Fabric only: the index of the
        # equal-cost path chosen at ingress (in ``Fabric.paths``) and
        # the current hop along it.
        "path",
        "hop",
        "_pooled",
    )

    #: Free list shared by all flows/simulations (packets carry no
    #: cross-run state once re-stamped by acquire()).
    _pool: List["Packet"] = []

    def __init__(
        self,
        flow_id: int,
        seq: int,
        payload_bytes: int,
        wire_bytes: int,
        sent_time: float,
        thread_id: int,
        is_retransmission: bool = False,
    ):
        self.flow_id = flow_id
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.wire_bytes = wire_bytes
        self.sent_time = sent_time
        self.thread_id = thread_id
        self.is_retransmission = is_retransmission
        self.ecn_marked = False
        self.nic_arrival_time: Optional[float] = None
        self.dma_done_time: Optional[float] = None
        self.cpu_done_time: Optional[float] = None
        self._pooled = False

    @classmethod
    def acquire(
        cls,
        flow_id: int,
        seq: int,
        payload_bytes: int,
        wire_bytes: int,
        sent_time: float,
        thread_id: int,
        is_retransmission: bool = False,
    ) -> "Packet":
        """A packet from the free list (or a fresh one when empty),
        with every slot re-stamped as if newly constructed."""
        pool = cls._pool
        if not pool:
            return cls(flow_id, seq, payload_bytes, wire_bytes,
                       sent_time, thread_id, is_retransmission)
        pkt = pool.pop()
        pkt.flow_id = flow_id
        pkt.seq = seq
        pkt.payload_bytes = payload_bytes
        pkt.wire_bytes = wire_bytes
        pkt.sent_time = sent_time
        pkt.thread_id = thread_id
        pkt.is_retransmission = is_retransmission
        pkt.ecn_marked = False
        pkt.nic_arrival_time = None
        pkt.dma_done_time = None
        pkt.cpu_done_time = None
        pkt._pooled = False
        return pkt

    def release(self) -> None:
        """Return this packet to the free list.

        Only the component that consumed the packet (receiver endpoint
        after the ACK is built, or the NIC drop path) may release it —
        nothing else may hold a reference afterwards.  Releasing the
        same packet twice is a bug and raises.
        """
        if self._pooled:
            raise SimulationError(
                f"double release of {self!r}: packet is already pooled")
        self._pooled = True
        pool = Packet._pool
        if len(pool) < _POOL_LIMIT:
            pool.append(self)

    def host_delay(self) -> float:
        """NIC arrival → CPU processing complete (the paper's "host
        delay": NIC queueing + DMA + CPU queueing + processing)."""
        if self.cpu_done_time is None or self.nic_arrival_time is None:
            raise SimulationError(
                f"host_delay() before host processing completed for "
                f"{self!r}: nic_arrival_time={self.nic_arrival_time}, "
                f"cpu_done_time={self.cpu_done_time}")
        return self.cpu_done_time - self.nic_arrival_time

    def __repr__(self) -> str:
        return (
            f"Packet(flow={self.flow_id}, seq={self.seq}, "
            f"payload={self.payload_bytes}, retx={self.is_retransmission})"
        )


class Ack:
    """An acknowledgement travelling receiver → sender.

    Carries everything Swift needs: the echoed send timestamp (for RTT),
    the measured host delay, and optional explicit host signals used by
    the §4 extension transport.
    """

    __slots__ = (
        "flow_id",
        "seq",
        "wire_bytes",
        "sent_time_echo",
        "host_delay",
        "ecn_echo",
        "acked_count",
        "nic_buffer_fraction",
        "memory_utilization",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int,
        sent_time_echo: float,
        host_delay: float,
        wire_bytes: int = 64,
        ecn_echo: bool = False,
        acked_count: int = 1,
        nic_buffer_fraction: float = 0.0,
        memory_utilization: float = 0.0,
    ):
        self.flow_id = flow_id
        self.seq = seq
        self.wire_bytes = wire_bytes
        self.sent_time_echo = sent_time_echo
        self.host_delay = host_delay
        self.ecn_echo = ecn_echo
        self.acked_count = acked_count
        self.nic_buffer_fraction = nic_buffer_fraction
        self.memory_utilization = memory_utilization

    def __repr__(self) -> str:
        return f"Ack(flow={self.flow_id}, seq={self.seq})"
