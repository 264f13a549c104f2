"""Fabric plans: the pure description of a switched fabric.

A :class:`FabricPlan` lists switches, directed inter-switch links,
endpoint attachment and the equal-cost path sets, with no simulator
state.  Every topology has one, the one-hop star included (a single
switch, no inter-switch link).  Both fidelities read it:
:class:`~repro.net.fabric.Fabric` makes every hop a real switch port,
and :func:`~repro.sim.fluid.fluid_fabric_profile` charges flows to its
links.  A layer-0 kernel module (``scripts/check_layering.py``) whose
only ``repro`` import is ``repro.core.config``.

The builders remember their recent plans by argument, so every run of
one fabric shape shares a plan object: callers read it, never change it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.core.config import ExperimentConfig

__all__ = [
    "FabricPlan",
    "build_fabric_plan",
    "dumbbell_plan",
    "fattree_plan",
    "star_plan",
]

#: A hop in a planned path: ("link", link_index) for an inter-switch
#: link or ("host", host_index) for the final edge→host egress port.
_PlanHop = Tuple[str, int]


@dataclass(frozen=True)
class FabricPlan:
    """Pure description of a switched fabric (no simulator state).

    ``switches``
        ``(name, tier)`` per switch, tiers in {"edge", "agg", "core"}.
        An empty name (the star's one switch) puts the switch's ports
        at the root of the fabric's metric namespace.
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
        in the packet fabric and in the fluid fabric profile alike.
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


@lru_cache(maxsize=32)
def star_plan(n_senders: int, n_hosts: int) -> FabricPlan:
    """The one-hop star: one switch, one egress port per receiver host.

    Every sender attaches to the switch, and each host's only path is
    its own egress port — the port feeding the host's access link,
    where the paper's incast queues.
    """
    if n_senders < 1:
        raise ValueError(f"need at least one sender, got {n_senders}")
    if n_hosts < 1:
        raise ValueError("need at least one receiver host")
    return FabricPlan(
        switches=(("", "edge"),),
        links=(),
        host_ports=tuple((0, h) for h in range(n_hosts)),
        sender_edge=(0,) * n_senders,
        host_edge=(0,) * n_hosts,
        paths={(0, h): ((("host", h),),) for h in range(n_hosts)},
    )


@lru_cache(maxsize=32)
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


@lru_cache(maxsize=32)
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


def build_fabric_plan(config: ExperimentConfig) -> FabricPlan:
    """The plan for ``config.fabric.topology``.

    ``config.workload`` gives the endpoint counts: ``receivers`` hosts,
    each with its own ``senders`` sender machines.
    """
    fc = config.fabric
    n_hosts = config.workload.receivers
    n_senders = config.workload.senders * n_hosts
    if fc.topology == "star":
        return star_plan(n_senders, n_hosts)
    if fc.topology == "fattree":
        return fattree_plan(fc.fattree_k, n_senders, n_hosts,
                            uplink_scale=fc.uplink_scale)
    if fc.topology == "dumbbell":
        return dumbbell_plan(fc.trunk_links, n_senders, n_hosts,
                             trunk_scale=fc.uplink_scale)
    raise ValueError(f"no plan for topology {fc.topology!r}")
