"""The packet fabric: senders → planned switch ports → receiver hosts.

:class:`Fabric` instantiates a :class:`~repro.net.plan.FabricPlan` —
the pure fabric description the fluid solver reads too — so every hop
is a real :class:`~repro.net.switch.SwitchPort` with its own output
queue, and a routing policy from :mod:`repro.net.routing` picks the
path per packet at ingress.  Every topology is a plan: the paper's
one-hop star is a single switch with one egress port per receiver host
(the incast aggregation point), built like a fat tree or a dumbbell.

The reverse (ACK) path is modelled as a fixed one-way delay: ACKs are
tiny and the reverse direction is uncongested in every experiment of
the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.config import ExperimentConfig
from repro.net.link import Link
from repro.net.packet import Ack, Packet
from repro.net.plan import FabricPlan, _PlanHop
from repro.net.routing import create_policy
from repro.net.switch import Switch, SwitchPort
from repro.sim.component import Component
from repro.sim.engine import Simulator

__all__ = ["Fabric"]

#: Fraction of the one-way delay on the sender access link; the rest is
#: spread evenly over the longest path's switch hops.
_SENDER_LEG_FRACTION = 0.2


class Fabric(Component):
    """A planned fabric: every hop is a real switch port.

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
                buffer_bytes=config.switch_buffer_bytes,
                prop_delay=hop_delay,
                deliver=self._advance,
                ecn_threshold_bytes=link_cfg.ecn_threshold_bytes,
                name=f"{names[src]}->{names[dst]}",
            )
            self._link_ports.append(
                self.switches[src].add_port(
                    f"port{len(self.switches[src].ports)}", port))
        # Every path ends at its host's port, which hands the packet
        # straight to that host.
        self._host_ports: List[SwitchPort] = []
        for switch, host in plan.host_ports:
            port = SwitchPort(
                sim,
                rate_bps=link_cfg.rate_bps,
                buffer_bytes=config.switch_buffer_bytes,
                prop_delay=hop_delay,
                deliver=self._receivers[host],
                ecn_threshold_bytes=link_cfg.ecn_threshold_bytes,
                name=f"{names[switch]}->host{host}",
            )
            self._host_ports.append(
                self.switches[switch].add_port(
                    f"port{len(self.switches[switch].ports)}", port))
        # Every planned path, resolved to its ports once.  A packet
        # carries its path's index here, never the ports themselves, so
        # a pooled packet cannot keep a finished simulation alive.
        self.paths: List[Tuple[SwitchPort, ...]] = []
        #: ingress edge -> host -> the equal-cost group's path indices.
        self._groups: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        for (edge, host), group in plan.paths.items():
            ids = []
            for path in group:
                ids.append(len(self.paths))
                self.paths.append(tuple(self._resolve(hop) for hop in path))
            self._groups.setdefault(edge, {})[host] = tuple(ids)
        self._ack_handlers: Dict[int, Callable[[Ack], None]] = {}
        self._flow_host: Dict[int, int] = {}
        self.policy = create_policy(
            fabric_cfg.routing,
            seed=config.sim.seed,
            flowlet_gap=fabric_cfg.flowlet_gap)
        ingress = {edge: self._ingress_for(edge) for edge in self._groups}
        self.sender_links: List[Link] = [
            Link(sim, link_cfg.rate_bps, sender_delay,
                 deliver=ingress[edge], name=f"sender-{i}")
            for i, edge in enumerate(plan.sender_edge)
        ]

    def _resolve(self, hop: _PlanHop) -> SwitchPort:
        kind, idx = hop
        return (self._link_ports[idx] if kind == "link"
                else self._host_ports[idx])

    def _ingress_for(self, edge: int) -> Callable[[Packet], None]:
        groups = self._groups[edge]
        paths = self.paths
        flow_host = self._flow_host
        sim = self.sim
        select = self.policy.select

        def ingress(pkt: Packet) -> None:
            group = groups[flow_host[pkt.flow_id]]
            n = len(group)
            path = group[select(pkt.flow_id, n, sim.now) if n > 1 else 0]
            pkt.path = path
            pkt.hop = 0
            paths[path][0].enqueue(pkt)
        return ingress

    # -- data path ------------------------------------------------------------

    def send_packet(self, sender_id: int, pkt: Packet) -> None:
        """Sender ``sender_id`` puts a packet on its access link."""
        self.sender_links[sender_id].send(pkt, pkt.wire_bytes)

    def _advance(self, pkt: Packet) -> None:
        """An inter-switch hop done: enqueue at the path's next port."""
        pkt.hop += 1
        self.paths[pkt.path][pkt.hop].enqueue(pkt)

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
        """One child per switch (``fabric/agg1/port2.dropped``).  The
        star's one switch is unnamed, so it merges into the fabric's
        namespace and its egress ports keep their root names
        (``port0.dropped``).  Sender access links are uncongested by
        construction and would add N metric rows per fabric."""
        return tuple((f"fabric/{sw.name}" if sw.name else "", sw)
                     for sw in self.switches)

    def bind_own_metrics(self, registry, component: str) -> None:
        registry.counter("fabric_drops", component,
                         fn=lambda: float(self.fabric_drops()))

    def fabric_drops(self) -> int:
        return sum(p.dropped for p in self.ports)

    def switch_queue_bytes(self) -> int:
        return sum(p.queue_depth_bytes() for p in self.ports)
