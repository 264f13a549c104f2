"""The paper's minimal host-congestion workload (§3).

"40 sender machines and one receiver machine exchange traffic ...
The receiver machine runs one or more threads, each on a dedicated
core ...; each receiver thread issues 16KB remote reads using one
connection per sender."

This module wires senders, fabric, host, and transport together: one
:class:`~repro.transport.base.Connection` per (receiver thread, sender)
pair, all continuously backlogged with 16 KB read responses.
:func:`build_remote_read_graph` builds M receiver hosts behind one
fabric, each with its own ``senders``-way incast (one
:class:`HostWorkload` per host); :meth:`repro.core.topology.Topology.build`
wraps the result as the experiment's root component.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Tuple

from repro.core.config import ExperimentConfig
from repro.host.host import ReceiverHost
from repro.net.fabric import Fabric
from repro.net.plan import build_fabric_plan
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.randoms import RngRegistry
from repro.sim.tracing import Tracer
from repro.transport.base import Connection
from repro.transport.receiver import ReceiverEndpoint
from repro.transport.registry import create as make_cc

__all__ = ["HostWorkload", "build_remote_read_graph",
           "require_single_star_host"]


class _TransportStats(Component):
    """Fleet-aggregate sender-side observables for one host's flows.

    A component of its own so the transport counters keep their
    historical ``transport.*`` namespace (per-host: ``host0/transport``)
    without the workload hand-rolling registration loops.
    """

    label = "transport"

    def __init__(self, connections: List[Connection]):
        #: shared list object, owned by the enclosing HostWorkload.
        self._connections = connections

    def bind_own_metrics(self, registry, component: str) -> None:
        conns = self._connections
        for name, fn in (
            ("packets_sent", lambda: sum(c.packets_sent for c in conns)),
            ("retransmissions",
             lambda: sum(c.retransmissions for c in conns)),
            ("timeouts", lambda: sum(c.timeouts for c in conns)),
            ("acks_received",
             lambda: sum(c.acks_received for c in conns)),
            ("losses_detected",
             lambda: sum(c.losses_detected for c in conns)),
        ):
            registry.counter(name, component, fn=fn)
        registry.gauge(
            "mean_cwnd", component, unit="packets",
            fn=lambda: (sum(c.cc.cwnd() for c in conns) / len(conns)
                        if conns else 0.0))
        registry.gauge(
            "mean_srtt_us", component, unit="us",
            fn=lambda: (sum(c.srtt for c in conns) / len(conns) * 1e6
                        if conns else 0.0))

    def reset_own_stats(self) -> None:
        for conn in self._connections:
            conn.reset_stats()


class HostWorkload(Component):
    """One receiver host's share of the incast: its transport endpoint
    and one connection per (receiver thread, sender)."""

    def __init__(
        self,
        sim: Simulator,
        config: ExperimentConfig,
        host: ReceiverHost,
        fabric: Fabric,
        host_index: int = 0,
        arrival_rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.config = config
        self.host = host
        self.fabric = fabric
        self.host_index = host_index
        self._arrival_rng = arrival_rng
        cores = config.host.cpu.cores
        senders = config.workload.senders
        #: global ids: flows and sender machines are disjoint per host.
        self._flow_base = host_index * cores * senders
        self._sender_base = host_index * senders
        self.receiver = ReceiverEndpoint(
            send_ack=host.send_ack,
            packets_per_read=config.workload.packets_per_read,
            now=lambda: sim.now,
        )
        host.attach_receiver(self.receiver.on_packet)
        host.attach_ack_egress(fabric.route_ack)
        self.connections: List[Connection] = []
        flow_id = self._flow_base
        for thread_id in range(cores):
            for sender_id in range(senders):
                self.connections.append(
                    self._make_connection(flow_id, sender_id, thread_id))
                flow_id += 1
        self.transport = _TransportStats(self.connections)

    def children(self) -> Tuple[Tuple[str, Component], ...]:
        return (
            ("", self.host),
            ("receiver", self.receiver),
            ("transport", self.transport),
        )

    def _make_connection(self, flow_id: int, sender_id: int,
                         thread_id: int) -> Connection:
        cfg = self.config
        cc = make_cc(cfg.transport, cfg.swift, initial_cwnd=1.0)
        open_loop = cfg.workload.offered_load is not None
        global_sender = self._sender_base + sender_id
        conn = Connection(
            sim=self.sim,
            flow_id=flow_id,
            sender_id=sender_id,
            thread_id=thread_id,
            cc=cc,
            send=functools.partial(self.fabric.send_packet, global_sender),
            payload_bytes=cfg.workload.mtu_payload,
            wire_bytes=cfg.workload.wire_bytes_per_packet,
            rto=cfg.swift.rto,
            reorder_threshold=cfg.swift.loss_retx_threshold,
            always_backlogged=not open_loop,
        )
        self.fabric.register_flow(flow_id, conn.on_ack,
                                  host=self.host_index)
        if open_loop:
            self._start_arrivals(conn)
        return conn

    def set_offered_load(self, fraction: float) -> None:
        """Change the open-loop offered load at run time (payload
        fraction of the link rate).  Only valid when the workload was
        built open-loop (``offered_load`` set)."""
        if self.config.workload.offered_load is None:
            raise ValueError(
                "workload was built closed-loop; offered load is fixed")
        if not 0 < fraction <= 2:
            raise ValueError(f"offered load {fraction} out of (0, 2]")
        self._offered_load = fraction

    def _per_flow_read_rate(self) -> float:
        cfg = self.config
        n_flows = cfg.host.cpu.cores * cfg.workload.senders
        aggregate_reads_per_s = (
            self._offered_load * self.config.link.rate_bps
            / (cfg.workload.read_size_bytes * 8))
        return aggregate_reads_per_s / n_flows

    def _start_arrivals(self, conn: Connection) -> None:
        """Poisson arrivals of whole reads to one connection.

        The aggregate arrival rate across this host's flows equals
        ``offered_load × link rate`` in payload terms; the rate is
        re-read on every arrival so :meth:`set_offered_load` takes
        effect immediately (time-varying load).
        """
        if not hasattr(self, "_offered_load"):
            self._offered_load = self.config.workload.offered_load
        packets_per_read = self.config.workload.packets_per_read
        rng = self._arrival_rng

        def arrive():
            conn.add_backlog(packets_per_read)
            self.sim.call(rng.expovariate(self._per_flow_read_rate()),
                          arrive)

        self.sim.call(rng.expovariate(self._per_flow_read_rate()),
                      arrive)

    # -- aggregate statistics ---------------------------------------------

    def total_packets_sent(self) -> int:
        return sum(c.packets_sent for c in self.connections)

    def total_retransmissions(self) -> int:
        return sum(c.retransmissions for c in self.connections)

    def total_timeouts(self) -> int:
        return sum(c.timeouts for c in self.connections)


def build_remote_read_graph(
    sim: Simulator,
    config: ExperimentConfig,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[ReceiverHost], Fabric, List[HostWorkload]]:
    """Construct {N×M senders → fabric → M receiver hosts}, M =
    ``config.workload.receivers``.

    Each receiver host gets its own disjoint set of ``senders`` sender
    machines and ``cores × senders`` flows, so per-host congestion is
    independent by construction (the headline multi-receiver claim).

    The fabric is built from ``config.fabric``'s plan, whatever the
    topology: the one-hop star is a one-switch plan.

    With one receiver the build order — RNG streams, host, fabric,
    endpoint, connections — replays the historical single-host
    construction event for event, which is what keeps single-host
    results bit-identical.
    """
    receivers = config.workload.receivers
    rngs = RngRegistry(config.sim.seed)
    arrival_rng = rngs.stream("arrivals")
    hosts = [
        ReceiverHost(
            sim, config.host,
            rngs.stream("host" if receivers == 1 else f"host{i}"),
            tracer=tracer)
        for i in range(receivers)
    ]
    fabric = Fabric(sim, config, build_fabric_plan(config),
                    [host.deliver_packet for host in hosts])
    workloads = [
        HostWorkload(sim, config, host, fabric,
                     host_index=i, arrival_rng=arrival_rng)
        for i, host in enumerate(hosts)
    ]
    return hosts, fabric, workloads


def require_single_star_host(config: ExperimentConfig,
                             driver: str) -> None:
    """Reject a graph shape a single-host packet ``driver`` does not
    measure: it reads one receiver host behind the one-hop star."""
    if config.workload.receivers != 1:
        raise ValueError(
            f"{driver} runs one receiver host: workload.receivers must "
            f"be 1, got {config.workload.receivers}")
    if config.fabric.topology != "star":
        raise ValueError(
            f"{driver} runs on the one-hop star: fabric.topology must "
            f"be 'star', got {config.fabric.topology!r}")
