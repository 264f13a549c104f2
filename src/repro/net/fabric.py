"""Fabrics: one-hop star and general multi-tier switched topologies.

:class:`Fabric` is the historical star — N senders → switch ports → M
receiver hosts, with each receiver's egress port as the incast
aggregation point.  :class:`MultiTierFabric` generalizes it: it
instantiates a :class:`~repro.net.plan.FabricPlan` — the pure fabric
description the fluid solver reads too — so every hop is a real
:class:`~repro.net.switch.SwitchPort` with its own output queue, and a
routing policy from :mod:`repro.net.routing` picks the path per packet
at ingress.

The reverse (ACK) path is modelled as a fixed one-way delay in both
fabrics: ACKs are tiny and the reverse direction is uncongested in
every experiment of the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ExperimentConfig, LinkConfig
from repro.net.link import Link
from repro.net.packet import Ack, Packet
from repro.net.plan import FabricPlan, _PlanHop
from repro.net.routing import create_policy
from repro.net.switch import Switch, SwitchPort
from repro.sim.component import Component
from repro.sim.engine import Simulator

__all__ = ["Fabric", "MultiTierFabric"]

#: Fraction of the one-way delay on the sender access link; the rest is
#: switch-to-receiver.
_SENDER_LEG_FRACTION = 0.2


class Fabric(Component):
    """Connects sender endpoints to one or more receiver hosts."""

    label = "fabric"

    def __init__(
        self,
        sim: Simulator,
        config: LinkConfig,
        n_senders: int,
        deliver_to_host: Optional[Callable[[Packet], None]] = None,
        *,
        receivers: Optional[Sequence[Callable[[Packet], None]]] = None,
    ):
        """Exactly one of ``deliver_to_host`` (the historical single-host
        callable) or ``receivers`` (one delivery callback per receiver
        host) must be given."""
        if n_senders < 1:
            raise ValueError(f"need at least one sender, got {n_senders}")
        if (deliver_to_host is None) == (receivers is None):
            raise ValueError(
                "pass exactly one of deliver_to_host or receivers")
        if deliver_to_host is not None:
            receivers = [deliver_to_host]
        receivers = list(receivers)
        if not receivers:
            raise ValueError("need at least one receiver host")
        self.sim = sim
        self.config = config
        sender_delay = config.one_way_delay * _SENDER_LEG_FRACTION
        switch_delay = config.one_way_delay * (1 - _SENDER_LEG_FRACTION)
        self.ports: List[SwitchPort] = [
            SwitchPort(
                sim,
                rate_bps=config.rate_bps,
                buffer_bytes=config.switch_buffer_bytes,
                prop_delay=switch_delay,
                deliver=deliver,
                ecn_threshold_bytes=config.ecn_threshold_bytes,
                name=f"switch-port-{i}",
            )
            for i, deliver in enumerate(receivers)
        ]
        # Single receiver: links feed the lone port directly, keeping
        # the historical (and bit-identical) zero-lookup data path.
        ingress = (self.ports[0].enqueue if len(self.ports) == 1
                   else self._route_packet)
        self.sender_links: List[Link] = [
            Link(sim, config.rate_bps, sender_delay,
                 deliver=ingress, name=f"sender-{i}")
            for i in range(n_senders)
        ]
        self._ack_handlers: Dict[int, Callable[[Ack], None]] = {}
        self._flow_host: Dict[int, int] = {}

    @property
    def port(self) -> SwitchPort:
        """The first egress port (the historical single-host alias)."""
        return self.ports[0]

    # -- data path ------------------------------------------------------------

    def send_packet(self, sender_id: int, pkt: Packet) -> None:
        """Sender ``sender_id`` puts a packet on its access link."""
        self.sender_links[sender_id].send(pkt, pkt.wire_bytes)

    def _route_packet(self, pkt: Packet) -> None:
        """Switch crossbar: steer a packet to its flow's egress port."""
        try:
            host = self._flow_host[pkt.flow_id]
        except KeyError:
            raise KeyError(
                f"packet for unregistered flow {pkt.flow_id}") from None
        self.ports[host].enqueue(pkt)

    # -- ack path -------------------------------------------------------------

    def register_flow(self, flow_id: int,
                      on_ack: Callable[[Ack], None],
                      host: int = 0) -> None:
        """Register a flow's ACK handler and its receiver host index."""
        if flow_id in self._ack_handlers:
            raise ValueError(f"flow {flow_id} already registered")
        if not 0 <= host < len(self.ports):
            raise ValueError(
                f"flow {flow_id} routed to unknown host {host} "
                f"(topology has {len(self.ports)} receiver(s))")
        self._ack_handlers[flow_id] = on_ack
        self._flow_host[flow_id] = host

    def route_ack(self, ack: Ack, wire_time: float) -> None:
        """Receiver-to-sender path: fixed one-way delay, no queueing.

        Called when the receiver's NIC hands the ACK over, with the
        absolute ``wire_time`` it leaves the NIC; the flow's handler is
        scheduled ``one_way_delay`` later (one event per ACK).
        """
        handler = self._ack_handlers.get(ack.flow_id)
        if handler is None:
            raise KeyError(f"ACK for unknown flow {ack.flow_id}")
        self.sim.at(wire_time + self.config.one_way_delay, handler, ack)

    # -- telemetry -------------------------------------------------------------

    def children(self):
        """Egress ports only: per-sender access links are uncongested
        by construction and would add N metric rows per fabric."""
        return tuple((f"port{i}", p) for i, p in enumerate(self.ports))

    def bind_own_metrics(self, registry, component: str) -> None:
        registry.counter("fabric_drops", component,
                         fn=lambda: float(self.fabric_drops()))

    def fabric_drops(self) -> int:
        return sum(p.dropped for p in self.ports)

    def switch_queue_bytes(self) -> int:
        return sum(p.queue_depth_bytes() for p in self.ports)


class MultiTierFabric(Component):
    """A planned multi-tier fabric: every hop is a real switch port.

    Data path: sender access link → ingress edge switch, where the
    routing policy picks one path out of the plan's equal-cost set;
    the packet then walks its path port by port (serialization +
    per-hop propagation + output queueing at each).  Drops happen at
    whichever port overflowed and are charged there.
    """

    label = "fabric"

    def __init__(
        self,
        sim: Simulator,
        config: ExperimentConfig,
        plan: FabricPlan,
        receivers: Sequence[Callable[[Packet], None]],
    ):
        link_cfg = config.link
        fabric_cfg = config.fabric
        if len(receivers) != len(plan.host_ports):
            raise ValueError(
                f"plan has {len(plan.host_ports)} host ports but "
                f"{len(receivers)} receiver callbacks were given")
        self.sim = sim
        self.config = link_cfg
        self.plan = plan
        self._receivers = list(receivers)
        buffer_bytes = (fabric_cfg.buffer_bytes
                        if fabric_cfg.buffer_bytes is not None
                        else link_cfg.switch_buffer_bytes)
        sender_delay = link_cfg.one_way_delay * _SENDER_LEG_FRACTION
        hop_delay = (link_cfg.one_way_delay * (1 - _SENDER_LEG_FRACTION)
                     / plan.max_hops)
        self.switches: List[Switch] = [
            Switch(name, tier) for name, tier in plan.switches]
        names = [name for name, _ in plan.switches]
        self._link_ports: List[SwitchPort] = []
        for src, dst, scale in plan.links:
            port = SwitchPort(
                sim,
                rate_bps=scale * link_cfg.rate_bps,
                buffer_bytes=buffer_bytes,
                prop_delay=hop_delay,
                deliver=self._advance,
                ecn_threshold_bytes=link_cfg.ecn_threshold_bytes,
                name=f"{names[src]}->{names[dst]}",
            )
            self._link_ports.append(
                self.switches[src].add_port(
                    f"port{len(self.switches[src].ports)}", port))
        self._host_ports: List[SwitchPort] = []
        for switch, host in plan.host_ports:
            port = SwitchPort(
                sim,
                rate_bps=link_cfg.rate_bps,
                buffer_bytes=buffer_bytes,
                prop_delay=hop_delay,
                deliver=self._advance,
                ecn_threshold_bytes=link_cfg.ecn_threshold_bytes,
                name=f"{names[switch]}->host{host}",
            )
            self._host_ports.append(
                self.switches[switch].add_port(
                    f"port{len(self.switches[switch].ports)}", port))
        # Resolve plan paths into tuples of actual ports once.
        self._paths: Dict[Tuple[int, int],
                          Tuple[Tuple[SwitchPort, ...], ...]] = {
            key: tuple(tuple(self._resolve(hop) for hop in path)
                       for path in group)
            for key, group in plan.paths.items()
        }
        self.sender_links: List[Link] = [
            Link(sim, link_cfg.rate_bps, sender_delay,
                 deliver=self._ingress_for(edge), name=f"sender-{i}")
            for i, edge in enumerate(plan.sender_edge)
        ]
        self.policy = create_policy(
            fabric_cfg.routing,
            seed=config.sim.seed,
            flowlet_gap=fabric_cfg.flowlet_gap)
        self._ack_handlers: Dict[int, Callable[[Ack], None]] = {}
        self._flow_host: Dict[int, int] = {}

    def _resolve(self, hop: _PlanHop) -> SwitchPort:
        kind, idx = hop
        return (self._link_ports[idx] if kind == "link"
                else self._host_ports[idx])

    def _ingress_for(self, edge: int) -> Callable[[Packet], None]:
        def ingress(pkt: Packet, _edge: int = edge) -> None:
            host = self._flow_host[pkt.flow_id]
            group = self._paths[(_edge, host)]
            n = len(group)
            idx = (self.policy.select(pkt.flow_id, n, self.sim.now)
                   if n > 1 else 0)
            pkt.path = group[idx]
            pkt.hop = 0
            pkt.path[0].enqueue(pkt)
        return ingress

    # -- data path ------------------------------------------------------------

    def send_packet(self, sender_id: int, pkt: Packet) -> None:
        """Sender ``sender_id`` puts a packet on its access link."""
        self.sender_links[sender_id].send(pkt, pkt.wire_bytes)

    def _advance(self, pkt: Packet) -> None:
        """One hop done: enqueue at the next port or deliver."""
        nxt = pkt.hop + 1
        path = pkt.path
        if nxt < len(path):
            pkt.hop = nxt
            path[nxt].enqueue(pkt)
        else:
            # Clear the path before the packet can be pooled so a free
            # list never pins switch ports (or whole simulations) live.
            pkt.path = None
            self._receivers[self._flow_host[pkt.flow_id]](pkt)

    # -- ack path -------------------------------------------------------------

    def register_flow(self, flow_id: int,
                      on_ack: Callable[[Ack], None],
                      host: int = 0) -> None:
        """Register a flow's ACK handler and its receiver host index."""
        if flow_id in self._ack_handlers:
            raise ValueError(f"flow {flow_id} already registered")
        if not 0 <= host < len(self._receivers):
            raise ValueError(
                f"flow {flow_id} routed to unknown host {host} "
                f"(topology has {len(self._receivers)} receiver(s))")
        self._ack_handlers[flow_id] = on_ack
        self._flow_host[flow_id] = host

    def route_ack(self, ack: Ack, wire_time: float) -> None:
        """Receiver-to-sender path: fixed one-way delay, no queueing.

        Called when the receiver's NIC hands the ACK over, with the
        absolute ``wire_time`` it leaves the NIC; the flow's handler is
        scheduled ``one_way_delay`` later (one event per ACK).
        """
        handler = self._ack_handlers.get(ack.flow_id)
        if handler is None:
            raise KeyError(f"ACK for unknown flow {ack.flow_id}")
        self.sim.at(wire_time + self.config.one_way_delay, handler, ack)

    # -- telemetry -------------------------------------------------------------

    @property
    def ports(self) -> List[SwitchPort]:
        """Every port in the fabric (link ports then host ports)."""
        return self._link_ports + self._host_ports

    def children(self):
        return tuple((f"fabric/{sw.name}", sw) for sw in self.switches)

    def bind_own_metrics(self, registry, component: str) -> None:
        registry.counter("fabric_drops", component,
                         fn=lambda: float(self.fabric_drops()))

    def fabric_drops(self) -> int:
        return sum(p.dropped for p in self.ports)

    def switch_queue_bytes(self) -> int:
        return sum(p.queue_depth_bytes() for p in self.ports)
