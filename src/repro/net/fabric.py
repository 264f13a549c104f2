"""Fabrics: one-hop star and general multi-tier switched topologies.

:class:`Fabric` is the historical star — N senders → switch ports → M
receiver hosts, with each receiver's egress port as the incast
aggregation point.  :class:`MultiTierFabric` generalizes it: a
:class:`FabricPlan` (pure data, built by :func:`fattree_plan` or
:func:`dumbbell_plan`) describes switches, directed inter-switch links,
endpoint attachment, and the enumerated equal-cost path sets; every hop
is then a real :class:`~repro.net.switch.SwitchPort` with its own
output queue, and a routing policy from :mod:`repro.net.routing` picks
the path per packet at ingress.

The reverse (ACK) path is modelled as a fixed one-way delay in both
fabrics: ACKs are tiny and the reverse direction is uncongested in
every experiment of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ExperimentConfig, LinkConfig
from repro.net.link import Link
from repro.net.packet import Ack, Packet
from repro.net.routing import create_policy
from repro.net.switch import Switch, SwitchPort
from repro.sim.component import Component
from repro.sim.engine import Simulator

__all__ = [
    "Fabric",
    "FabricPlan",
    "MultiTierFabric",
    "build_fabric_plan",
    "dumbbell_plan",
    "fattree_plan",
]

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

    def route_ack(self, ack: Ack) -> None:
        """Receiver-to-sender path: fixed one-way delay, no queueing."""
        handler = self._ack_handlers.get(ack.flow_id)
        if handler is None:
            raise KeyError(f"ACK for unknown flow {ack.flow_id}")
        ack.send_time = self.sim.now
        self.sim.call(self.config.one_way_delay, handler, ack)

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


# -- multi-tier fabrics --------------------------------------------------------

#: A hop in a planned path: ("link", link_index) for an inter-switch
#: link or ("host", host_index) for the final edge→host egress port.
_PlanHop = Tuple[str, int]


@dataclass(frozen=True)
class FabricPlan:
    """Pure description of a multi-tier fabric (no simulator state).

    ``switches``
        ``(name, tier)`` per switch, tiers in {"edge", "agg", "core"}.
    ``links``
        Directed inter-switch links ``(src_switch, dst_switch, scale)``;
        each becomes one output port on ``src_switch`` whose rate is
        ``scale × access-link rate``.
    ``host_ports``
        ``(switch, host)`` final egress ports, serializing at the
        receiver's access-link rate.
    ``sender_edge`` / ``host_edge``
        Ingress/egress edge-switch index per global sender / per host.
    ``paths``
        ``(edge_switch, host) → tuple of equal-cost paths``, each path
        a tuple of :data:`_PlanHop` entries ending in a host port.  The
        enumeration order is canonical: routing policies index into it,
        and the fluid solver mirrors the same order analytically.
    """

    switches: Tuple[Tuple[str, str], ...]
    links: Tuple[Tuple[int, int, float], ...]
    host_ports: Tuple[Tuple[int, int], ...]
    sender_edge: Tuple[int, ...]
    host_edge: Tuple[int, ...]
    paths: Dict[Tuple[int, int], Tuple[Tuple[_PlanHop, ...], ...]]

    @property
    def max_hops(self) -> int:
        return max(len(p) for group in self.paths.values() for p in group)


def fattree_plan(k: int, n_senders: int, n_hosts: int,
                 uplink_scale: float = 1.0) -> FabricPlan:
    """A k-ary fat-tree: k pods × (k/2 edge + k/2 agg) + (k/2)² cores.

    Endpoints (senders and receiver hosts alike) are placed round-robin
    over the edge switches: ``edge = index % n_edges``.  Cross-pod
    traffic has (k/2)² equal-cost paths enumerated as (agg choice j,
    core choice m) → index ``j·(k/2)+m``; same-pod cross-edge traffic
    has k/2 paths (one per agg); same-edge traffic goes straight to the
    host port.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    n_edges = k * half
    switches: List[Tuple[str, str]] = []
    edge_idx: List[List[int]] = []   # [pod][e] -> switch index
    agg_idx: List[List[int]] = []    # [pod][j] -> switch index
    for pod in range(k):
        edge_idx.append([])
        for e in range(half):
            edge_idx[pod].append(len(switches))
            switches.append((f"edge{pod * half + e}", "edge"))
    for pod in range(k):
        agg_idx.append([])
        for j in range(half):
            agg_idx[pod].append(len(switches))
            switches.append((f"agg{pod * half + j}", "agg"))
    core_idx: List[int] = []
    for c in range(half * half):
        core_idx.append(len(switches))
        switches.append((f"core{c}", "core"))

    links: List[Tuple[int, int, float]] = []
    link_of: Dict[Tuple[int, int], int] = {}

    def link(src: int, dst: int) -> int:
        key = (src, dst)
        idx = link_of.get(key)
        if idx is None:
            idx = link_of[key] = len(links)
            links.append((src, dst, uplink_scale))
        return idx

    # Edge e in pod p uplinks to every agg in p; agg j uplinks to cores
    # j·(k/2)..j·(k/2)+k/2-1; and the reverse down-links mirror them.
    for pod in range(k):
        for e in range(half):
            for j in range(half):
                link(edge_idx[pod][e], agg_idx[pod][j])
                link(agg_idx[pod][j], edge_idx[pod][e])
        for j in range(half):
            for m in range(half):
                core = core_idx[j * half + m]
                link(agg_idx[pod][j], core)
                link(core, agg_idx[pod][j])

    def edge_of(endpoint: int) -> Tuple[int, int]:
        """(pod, local edge) for round-robin endpoint placement."""
        edge = endpoint % n_edges
        return edge // half, edge % half

    host_ports: List[Tuple[int, int]] = []
    host_edge: List[int] = []
    for h in range(n_hosts):
        pod, e = edge_of(h)
        host_ports.append((edge_idx[pod][e], h))
        host_edge.append(pod * half + e)
    sender_edge = tuple(s % n_edges for s in range(n_senders))

    paths: Dict[Tuple[int, int], Tuple[Tuple[_PlanHop, ...], ...]] = {}
    for h in range(n_hosts):
        dpod, de = edge_of(h)
        dst_edge = edge_idx[dpod][de]
        final: _PlanHop = ("host", h)
        for src in set(sender_edge):
            spod, se = src // half, src % half
            src_edge = edge_idx[spod][se]
            if src_edge == dst_edge:
                group = ((final,),)
            elif spod == dpod:
                group = tuple(
                    (("link", link(src_edge, agg_idx[spod][j])),
                     ("link", link(agg_idx[spod][j], dst_edge)),
                     final)
                    for j in range(half))
            else:
                group = tuple(
                    (("link", link(src_edge, agg_idx[spod][j])),
                     ("link", link(agg_idx[spod][j],
                                   core_idx[j * half + m])),
                     ("link", link(core_idx[j * half + m],
                                   agg_idx[dpod][j])),
                     ("link", link(agg_idx[dpod][j], dst_edge)),
                     final)
                    for j in range(half) for m in range(half))
            paths[(src, h)] = group
    return FabricPlan(
        switches=tuple(switches),
        links=tuple(links),
        host_ports=tuple(host_ports),
        sender_edge=sender_edge,
        host_edge=tuple(host_edge),
        paths=paths,
    )


def dumbbell_plan(trunk_links: int, n_senders: int, n_hosts: int,
                  trunk_scale: float = 1.0) -> FabricPlan:
    """A two-switch dumbbell with ``trunk_links`` parallel trunks.

    All senders attach to the left switch, all receiver hosts to the
    right; every flow crosses the shared trunk, so the equal-cost set
    is exactly the trunks — the textbook topology for antagonist flows
    squeezing a victim.
    """
    if trunk_links < 1:
        raise ValueError(f"need at least one trunk link, got {trunk_links}")
    switches = (("left", "edge"), ("right", "edge"))
    links = tuple((0, 1, trunk_scale) for _ in range(trunk_links))
    host_ports = tuple((1, h) for h in range(n_hosts))
    paths = {
        (0, h): tuple((("link", t), ("host", h))
                      for t in range(trunk_links))
        for h in range(n_hosts)
    }
    return FabricPlan(
        switches=switches,
        links=links,
        host_ports=host_ports,
        sender_edge=tuple(0 for _ in range(n_senders)),
        host_edge=tuple(0 for _ in range(n_hosts)),
        paths=paths,
    )


def build_fabric_plan(config: ExperimentConfig, n_senders: int,
                      n_hosts: int) -> FabricPlan:
    """The plan for ``config.fabric`` (star has none and raises)."""
    fc = config.fabric
    if fc.topology == "fattree":
        return fattree_plan(fc.fattree_k, n_senders, n_hosts,
                            uplink_scale=fc.uplink_scale)
    if fc.topology == "dumbbell":
        return dumbbell_plan(fc.trunk_links, n_senders, n_hosts,
                             trunk_scale=fc.uplink_scale)
    raise ValueError(
        f"no multi-tier plan for topology {fc.topology!r}")


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
        n_senders = len(plan.sender_edge)
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

    def route_ack(self, ack: Ack) -> None:
        """Receiver-to-sender path: fixed one-way delay, no queueing."""
        handler = self._ack_handlers.get(ack.flow_id)
        if handler is None:
            raise KeyError(f"ACK for unknown flow {ack.flow_id}")
        ack.send_time = self.sim.now
        self.sim.call(self.config.one_way_delay, handler, ack)

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
