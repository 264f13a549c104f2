"""Flow-level fluid engine: the repo's second simulation fidelity.

Where the packet kernel dispatches one event per packet, this solver
steps *rates* over RTT-scale intervals (Zhao et al.'s "Scalable Tail
Latency Estimation" two-tier pattern): an aggregate congestion window
and two queue fluid levels evolve under closed-form host bounds.  The
host pipeline has two stages, mirroring where congestion actually sits
in the packet engine:

- **NIC stage** — the bounded NIC buffer drained over PCIe at the
  Little's-law rate set by per-DMA latency (fixed cost, serialization,
  memory write, IOTLB walks from the working-set miss model).  Overflow
  here is packet drop, and the buffer bounds the delay Swift can ever
  observe — the paper's blind spot emerges from exactly this cap.
- **CPU stage** — receiver processing at the per-core rate (slowed by
  memory-bus contention).  Its backlog lives in host memory, so it
  drops nothing and its delay is fully visible to congestion control.

Everything is derived from the same frozen config tree and calibration
constants as the packet path, so a config means the same operating
point at either fidelity; ``tests/test_fluid_xval.py`` and the
``fluid-xval`` CI job hold the two engines to agreement on knees and
winners.

The step dynamics are written once, in ``_fluid_step``, and compiled
at import into two forms (:func:`specialize_step`): the plain-float
run loop ``FluidSolver.run_until`` here and the numpy-lane step of
:class:`repro.sim.fluid_batch.BatchFluidSolver`.

Layering: this module lives in the simulation kernel (layer 0).  It may
import only its ``repro.sim`` neighbours and the pinned kernel modules
(``repro.core.config`` / ``calibration`` / ``metrics``, the fabric plan
and routing hash in ``repro.net``) — never host, transport, or workload
(enforced by ``scripts/check_layering.py``).
The host-model constants it shares with the packet path (page sizes,
the load-latency knee, the NIC's per-packet control writes, the hot
ring pages) live in ``repro.core.calibration``, the one home both
layers import.
"""

from __future__ import annotations

import ast
import copy
import linecache
import math
import operator
import types
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.calibration import (
    CONTROL_ACCESSES_PER_PACKET,
    NIC_CONTROL_WRITE_BYTES,
    QUEUE_GAMMA,
    QUEUE_KNEE,
)
from repro.core.config import ExperimentConfig, HostConfig
from repro.net.plan import build_fabric_plan
from repro.net.routing import create_policy

__all__ = [
    "FabricProfile",
    "FluidRun",
    "FluidSolver",
    "fluid_fabric_profile",
    "fluid_inputs",
    "predicted_misses_per_packet",
    "specialize_step",
    "weighted_summary",
]

#: Fraction of the ideal Little's-law rate the DMA pipeline sustains.
#: Credit-return gaps and bursty walk stalls keep the packet engine's
#: achieved service a consistent ~6% short of ``C / E[T]`` across the
#: figure-3/5 operating points; calibrated once against those runs.
DMA_PIPELINE_EFFICIENCY = 0.94
#: Transports whose fluid congestion response is loss-based (drop
#: events, not delay, trigger multiplicative decrease).  DCTCP's ECN
#: marks live at the *fabric* switch, so host congestion reaches it
#: only through drops — same aggregate response as Cubic here.
LOSS_BASED_TRANSPORTS = ("cubic", "dctcp")
#: Aggregate loss-based response: classic 1 packet/RTT/flow additive
#: increase, Cubic's 0.7 window-reduction factor on a loss round.
LOSS_CC_AI = 1.0
LOSS_CC_BETA = 0.7


#: Width of the convex region of the load-latency curve.
_KNEE_SPAN = 1.0 - QUEUE_KNEE


def _cube(x: float) -> float:
    """``x ** QUEUE_GAMMA`` spelled as multiplications.  ``pow`` routes
    through libm and numpy's ``power`` through its own kernel, and the
    two differ in the last ulp for the same input; plain multiplication
    is a single IEEE operation, so the scalar solver and the lane-wise
    batched solver (``repro.sim.fluid_batch``) produce bit-identical
    queue delays from it."""
    return x * x * x


# ``_cube`` hardcodes the exponent; keep it honest against the
# calibrated curve-shape constant.
assert QUEUE_GAMMA == 3.0


#: Memo for :func:`predicted_misses_per_packet`, keyed on the host
#: values the model actually reads.  Fleet populations draw from small
#: discrete parameter sets, so a million hosts hit a few dozen distinct
#: keys — and the 60-iteration bisection runs once per key, not per
#: host.  Bounded: evicted wholesale if it ever grows past 4096 keys.
_MISSES_MEMO: Dict[Tuple, float] = {}


def predicted_misses_per_packet(host: HostConfig) -> float:
    """IOTLB misses per received packet, via the Che approximation.

    The access stream has two populations with very different reuse:
    payload pages, drawn uniformly from the large Rx data pool, and the
    per-thread control pages (rings, connection state) every packet
    touches.  A single uniform ``1 - K/W`` LRU ratio ignores that skew
    and overestimates misses severalfold; the Che characteristic-time
    model — solve ``Σ_i N_i (1 - e^{-λ_i T}) = K`` for ``T``, then miss
    probability per access to population ``i`` is ``e^{-λ_i T}`` —
    tracks the packet engine's measured IOTLB across the figure-3/4/5
    ladders.  Zero with the IOMMU off or when everything fits.
    """
    if not host.iommu.enabled:
        return 0.0
    cores = host.cpu.cores
    n_data = host.data_pages_per_thread * cores
    n_hot = host.hot_pages_per_thread * cores
    capacity = host.iommu.iotlb_entries
    if n_data + n_hot <= capacity:
        return 0.0
    key = (n_data, n_hot, capacity, host.hugepages)
    cached = _MISSES_MEMO.get(key)
    if cached is not None:
        return cached
    a_data = host.payload_pages_per_packet
    a_hot = CONTROL_ACCESSES_PER_PACKET
    lam_data = a_data / n_data
    lam_hot = a_hot / n_hot

    def occupied(t: float) -> float:
        return (n_data * -math.expm1(-lam_data * t)
                + n_hot * -math.expm1(-lam_hot * t))

    lo, hi = 0.0, 1.0
    while occupied(hi) < capacity:
        hi *= 2.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if occupied(mid) < capacity:
            lo = mid
        else:
            hi = mid
    t_char = (lo + hi) / 2.0
    misses = (a_data * math.exp(-lam_data * t_char)
              + a_hot * math.exp(-lam_hot * t_char))
    if len(_MISSES_MEMO) >= 4096:
        _MISSES_MEMO.clear()
    _MISSES_MEMO[key] = misses
    return misses


def fluid_inputs(config: ExperimentConfig) -> Dict[str, object]:
    """The config values the fluid constants are derived from, by name.

    One host's entry of every input :func:`_host_constants` reads: the
    scalar solver derives from it directly, and
    :class:`~repro.sim.fluid_batch.BatchFluidSolver` stacks one per lane
    into columns.  Config properties and lookups are resolved here (the
    IOTLB miss rate, the transport's CC family, the DDIO copy
    fractions), so the derivation itself is arithmetic.  Closed loop is
    ``open_loop`` False with a 0.0 ``offered_load``.
    """
    host, wl, swift = config.host, config.workload, config.swift
    pcie, memory, cpu = host.pcie, host.memory, host.cpu
    copy_read, copy_write = host.ddio.copy_demand_fractions()
    return {
        "wire_bytes": wl.wire_bytes_per_packet,
        "payload_bytes": wl.mtu_payload,
        "packets_per_read": wl.packets_per_read,
        "read_size_bytes": wl.read_size_bytes,
        "senders": wl.senders,
        "receivers": wl.receivers,
        "open_loop": wl.offered_load is not None,
        "offered_load": (0.0 if wl.offered_load is None
                         else wl.offered_load),
        "cores": cpu.cores,
        "core_rate_bps": cpu.core_rate_bps,
        "contention_slowdown": cpu.contention_slowdown,
        "one_way_delay": config.link.one_way_delay,
        "link_rate_bps": config.link.rate_bps,
        "misses_per_packet": predicted_misses_per_packet(host),
        "pcie_goodput_bps": pcie.goodput_bps,
        "dma_fixed_latency": pcie.dma_fixed_latency,
        "max_inflight_bytes": pcie.max_inflight_bytes,
        "antagonist_cores": host.antagonist_cores,
        "antagonist_per_core_Bps": host.antagonist_per_core_Bps,
        "copy_read_fraction": copy_read,
        "copy_write_fraction": copy_write,
        "achievable_Bps": memory.achievable_Bps,
        "max_queue_delay": memory.max_queue_delay,
        "walk_base_latency": memory.walk_base_latency,
        "walk_contention_fraction": memory.walk_contention_fraction,
        "idle_latency": memory.idle_latency,
        "nic_buffer_bytes": host.nic.buffer_bytes,
        "loss_based": config.transport in LOSS_BASED_TRANSPORTS,
        "host_target": swift.host_target,
        "additive_increase": swift.additive_increase,
        "swift_beta": swift.beta,
        "swift_max_mdf": swift.max_mdf,
        "min_cwnd": swift.min_cwnd,
        "max_cwnd": swift.max_cwnd,
    }


def weighted_summary(
        pairs: List[Tuple[float, float]]) -> Dict[str, float]:
    """count/mean/p50/p90/p99/min/max of a weighted sample of
    ``(value, weight)`` pairs, in the units of the values.

    A percentile is the smallest value whose cumulative weight reaches
    that fraction of the total.  The pairs are sorted once; the mean
    sums in input order and the percentile cuts over the sorted order.
    """
    if not pairs:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                "p99": 0.0, "min": 0.0, "max": 0.0}
    values = [value for value, _ in pairs]
    weights = [weight for _, weight in pairs]
    total = sum(weights)
    mean = (sum(map(operator.mul, values, weights)) / total
            if total > 0 else 0.0)
    ordered = sorted(pairs)
    ordered_weights = [weight for _, weight in ordered]
    # ``sum`` again rather than ``running[-1]``: from Python 3.12 ``sum``
    # compensates its rounding, and the cuts must not move with that.
    sorted_total = sum(ordered_weights)
    running = list(accumulate(ordered_weights))
    last = len(ordered) - 1
    p50, p90, p99 = (
        (ordered[min(bisect_left(running, fraction * sorted_total),
                     last)][0] for fraction in (0.50, 0.90, 0.99))
        if sorted_total > 0 else (0.0, 0.0, 0.0))
    return {"count": int(round(total)), "mean": mean, "p50": p50,
            "p90": p90, "p99": p99, "min": ordered[0][0],
            "max": ordered[-1][0]}


@dataclass(frozen=True)
class FabricProfile:
    """Calibrated aggregate treatment of a multi-tier fabric stage.

    Built by :func:`fluid_fabric_profile` from the same
    :class:`~repro.net.plan.FabricPlan` the packet engine instantiates,
    with path choices from the shared :mod:`repro.net.routing` policy —
    so static and ECMP per-link flow counts are *exact*, not estimated
    (flowlet is modelled as the ideal balance it converges to).
    ``terms`` describe, host-averaged, the receiver-side links of the
    flows' paths (the dumbbell trunks; the agg→edge down-links into the
    receiver's edge switch in a fat-tree): for each used link, the
    fraction of the host's window routed through it, its capacity
    share (link capacity × this host's flow share on it), and its
    buffer share.  ``free_fraction`` is the share of flows that never
    cross an inter-switch link (same-edge traffic).
    """

    #: (window fraction, capacity bits/s, buffer bytes) per used link,
    #: already divided by the receiver count (host-averaged).
    terms: Tuple[Tuple[float, float, float], ...]
    free_fraction: float


def _receiver_side_link(path) -> Optional[int]:
    """A plan path's last inter-switch link (None: same-edge path)."""
    return next((i for kind, i in reversed(path) if kind == "link"), None)


def fluid_fabric_profile(
        config: ExperimentConfig) -> Optional[FabricProfile]:
    """The fluid fabric stage for ``config.fabric``.

    None for the star: its plan has no inter-switch link to charge, and
    its egress port feeds the host's access link, which the host stage
    already models.  Otherwise charges every flow of
    ``build_fabric_plan(config)``, numbered as the packet workload
    numbers them (flow ``h·n_h + f`` of host ``h`` rides global sender
    ``h·senders + f % senders``): the flow's equal-cost group is the
    plan's path set from its sender's edge switch to its host, the
    routing policy picks a path exactly as
    :class:`~repro.net.fabric.Fabric` does at ingress, and the flow is
    charged to that path's receiver-side link.  Checked against
    the built packet fabric's own picks in ``tests/test_fluid_fabric.py``.

    ``sim.seed`` reaches a fluid solve here only, through the routing
    hash (``core.experiment.solve_key`` relies on it).
    """
    fc = config.fabric
    if fc.topology == "star":
        return None
    plan = build_fabric_plan(config)
    wl = config.workload
    receivers = wl.receivers
    senders = wl.senders
    cores = config.host.cpu.cores
    n_h = cores * senders
    rate_bps = config.link.rate_bps
    buf = float(config.switch_buffer_bytes)
    #: Flowlet rehashes every burst boundary; over a run it converges
    #: to the uniform split, which is what the fluid stage models.
    ideal = fc.routing == "flowlet"
    select = create_policy(fc.routing, seed=config.sim.seed,
                           flowlet_gap=fc.flowlet_gap).select
    #: (edge, host) -> receiver-side link per path, and the distinct
    #: ones in path order (the links flowlet's ideal split spreads over).
    groups: Dict[Tuple[int, int], Tuple[Tuple, Tuple]] = {}
    #: Per host, link (None: no link hop) -> the weights its flows add,
    #: in flow order; summed left to right as a per-flow walk would.
    host_adds: List[Dict[Optional[int], List[float]]] = []
    for h in range(receivers):
        by_sender = []
        for s in range(senders):
            key = (plan.sender_edge[h * senders + s], h)
            group = groups.get(key)
            if group is None:
                links = tuple(map(_receiver_side_link, plan.paths[key]))
                group = groups[key] = (links, tuple(dict.fromkeys(links)))
            by_sender.append(group)
        adds: Dict[Optional[int], List[float]] = {}
        if ideal:
            # Every flow splits evenly over its group's distinct links,
            # so the flows of one round of senders repeat ``cores`` times.
            for _, distinct in by_sender:
                weight = 1.0 / len(distinct)
                for link in distinct:
                    adds.setdefault(link, []).append(weight)
            for link in adds:
                adds[link] *= cores
        else:
            # Each flow puts its whole weight of 1.0 on the path picked
            # (``select`` only when there is a choice), so a count in
            # any order gives the same sums.
            picks: Counter = Counter()
            base = h * n_h
            for s, (links, _) in enumerate(by_sender):
                n = len(links)
                if n > 1:
                    picks.update(links[select(flow, n, 0.0)]
                                 for flow in range(base + s, base + n_h,
                                                   senders))
                else:
                    picks[links[0]] += cores
            # Integer sums: one term is as exact as ``count`` ones.
            adds = {link: [float(count)] for link, count in picks.items()}
        host_adds.append(adds)
    totals: Dict[int, float] = {}
    for adds in host_adds:
        for link, weights in adds.items():
            if link is not None:
                totals[link] = _sum_in_order(weights, totals.get(link, 0.0))
    terms: List[Tuple[float, float, float]] = []
    free = [0.0] * receivers
    for h, adds in enumerate(host_adds):
        for link, weights in adds.items():
            n_hj = _sum_in_order(weights)
            if link is None:
                free[h] = n_hj
                continue
            cap_link = plan.links[link][2] * rate_bps
            terms.append((n_hj / n_h / receivers,
                          cap_link * (n_hj / totals[link]) / receivers,
                          buf / receivers))
    return FabricProfile(tuple(sorted(terms)),
                         sum(free) / (n_h * receivers))


def _sum_in_order(values: List[float], start: float = 0.0) -> float:
    """``start + values[0] + values[1] + …``, added left to right
    (``sum`` compensates its rounding from Python 3.12)."""
    return reduce(operator.add, values, start)


@dataclass
class FluidRun:
    """Accumulated measurement-window outputs of one solved host.
    :class:`~repro.sim.fluid_batch.BatchFluidSolver` keeps shape-``(N,)``
    arrays of only the four its fleet metrics read (``elapsed``,
    ``rx_packets``, ``dropped_packets``, ``drained_payload_bytes``); the
    rest are accumulated by the scalar form of the step alone."""

    elapsed: float = 0.0
    rx_packets: float = 0.0
    dropped_packets: float = 0.0
    #: Multi-tier fabric stage accounting (zero on star topologies):
    #: packets offered to the fabric and packets tail-dropped at
    #: fabric switch ports before ever reaching the host NIC.
    fabric_offered_packets: float = 0.0
    fabric_dropped_packets: float = 0.0
    dma_packets: float = 0.0
    drained_packets: float = 0.0
    drained_payload_bytes: float = 0.0
    retransmissions: float = 0.0
    #: Packet-weighted integrals of the per-step latencies.
    dma_latency_weighted: float = 0.0
    nic_delay_weighted: float = 0.0
    #: Time integrals of bus state.
    utilization_integral: float = 0.0
    achieved_bw_integral: float = 0.0
    cwnd_integral: float = 0.0
    peak_queue_bytes: float = 0.0
    #: One 7-float row per step that drained packets: ``(host_delay,
    #: rtt_eff, p_pkt, drained, per_flow_w, nic_delay, dma)`` — seconds,
    #: seconds, packet-loss probability, packets, packets, seconds,
    #: packets.  Message latencies and timeouts are synthesized from
    #: the first five columns at collect time
    #: (:meth:`FluidSolver.synthesize_message_pairs`), for the host's
    #: own reads or for another traffic class sharing its congestion
    #: (isolation victims issuing single-packet reads); the last two
    #: are the ``(value, weight)`` pairs of the NIC host-delay summary.
    step_trace: List[Tuple[float, float, float, float, float, float,
                           float]] = field(default_factory=list)

    def drop_rate(self) -> float:
        return (self.dropped_packets / self.rx_packets
                if self.rx_packets > 0 else 0.0)


# -- the fluid step, written once ---------------------------------------------
#
# ``_fluid_step`` is the one definition of the step dynamics, written in
# a small dialect that :func:`specialize_step` compiles at import into
# a plain-float run loop (``FluidSolver.run_until``) and a numpy-lane
# step (``repro.sim.fluid_batch``):
#
# - ``_min(a, b)``, ``_max(a, b)``, ``_where(cond, a, b)`` choose values
#   per datum (per lane in the batch), and ``_float(x)`` is ``x`` as a
#   float (a float64 column);
# - ``_sel(new, old)`` and ``_acc(delta)`` are the batch's active-lane
#   mask: a frozen lane keeps ``old`` and accumulates ``+0.0``;
# - ``if _SCALAR:`` / ``if _LANES:`` blocks belong to one form only,
#   and only a scalar block may hold a plain ``if``: per-host choices,
#   ``loss_based`` and ``open_loop`` included, are ``_where``s, so one
#   batch steps any mix of star-fabric hosts as a single lane set.
#
# The definitions below give the dialect its scalar meaning, so
# ``_fluid_step`` also runs as written: a slow scalar reference.  The
# per-host constants the step reads are derived in the same dialect
# (``_host_constants``): ``FluidSolver`` runs that as written, once per
# solver, and the batch runs its lane form once per lane set.


def _min(a, b):
    return a if a < b else b


def _max(a, b):
    return a if a > b else b


def _where(cond, a, b):
    return a if cond else b


def _float(x):
    return float(x)


def _sel(new, old):
    return new


def _acc(delta):
    return delta


_SCALAR, _LANES = True, False
#: Dialect op -> argument count; lane form of the value ops.
_DIALECT_OPS = {"_min": 2, "_max": 2, "_where": 3, "_float": 1,
                "_sel": 2, "_acc": 1}
_NUMPY_OPS = {"_min": "minimum", "_max": "maximum", "_where": "where",
              "_float": "float64"}


def _is_truth(expr: ast.expr) -> bool:
    """``expr`` is a comparison or the constant ``True``/``False``."""
    return isinstance(expr, ast.Compare) or (
        isinstance(expr, ast.Constant) and isinstance(expr.value, bool))


def _demand_step_bytes(self, load):
    # Open-loop demand accrued per step (wire bytes) at offered ``load``
    # (a fraction of the link rate): reads/s -> wire bits/s -> bytes.
    reads_per_s = load * self.link_rate_bps / (self.read_size_bytes * 8)
    open_bps = reads_per_s * self.packets_per_read * self.wire_bytes * 8
    return open_bps / 8 * self.dt


def _host_constants(self, h) -> None:
    # The per-host constants the step reads, and its time-zero state,
    # from the config values ``h`` of :func:`fluid_inputs` (plain values
    # for ``FluidSolver``, lane columns for the batch).  The step
    # touches only these, never the config tree.
    self.wire_bytes = h.wire_bytes
    self.payload_bytes = h.payload_bytes
    self.payload_fraction = self.payload_bytes / self.wire_bytes
    self.packets_per_read = h.packets_per_read
    self.read_size_bytes = h.read_size_bytes
    self.n_flows = h.cores * h.senders
    self.base_rtt = 2 * h.one_way_delay
    # Step size: one base RTT (the CC update granularity); guarded for
    # degenerate zero-delay links.
    self.dt = _max(self.base_rtt, 1e-6)
    self.misses_per_packet = h.misses_per_packet
    self.serialization = self.wire_bytes * 8 / h.pcie_goodput_bps
    self.antagonist_Bps = h.antagonist_cores * h.antagonist_per_core_Bps
    self.copy_fraction = h.copy_read_fraction + h.copy_write_fraction
    # Memory-bus bytes the NIC writes per packet (payload + descriptor/
    # completion control writes), and the CPU copy path moves per
    # drained packet.
    self.nic_write_bytes = _float(self.payload_bytes
                                  + NIC_CONTROL_WRITE_BYTES)
    self.copy_bytes_per_packet = self.payload_bytes * self.copy_fraction
    self.achievable_Bps = h.achievable_Bps
    self.max_queue_delay = h.max_queue_delay
    self.walk_base = h.walk_base_latency
    self.walk_fraction = h.walk_contention_fraction
    # Per-DMA latency with zero queueing and zero misses (T_base): fixed
    # PCIe overhead + serialization + one memory write --
    # ``repro.core.model.dma_base_latency``.
    self.t_base = (h.dma_fixed_latency + self.serialization
                   + h.idle_latency)
    # Little's-law numerator: inflight DMA bits, derated by the
    # pipeline efficiency.
    self.littles_bits = (h.max_inflight_bytes * 8
                         * DMA_PIPELINE_EFFICIENCY)
    self.pcie_goodput_bps = h.pcie_goodput_bps
    # CPU-stage capacity in *wire* bits/s at an idle memory bus.
    self.cpu_wire_bps = h.cores * h.core_rate_bps / self.payload_fraction
    self.cpu_slowdown = h.contention_slowdown
    self.link_rate_bps = h.link_rate_bps
    self.buffer_bytes = _float(h.nic_buffer_bytes)
    self.wire_bits = self.wire_bytes * 8
    self.swift_target = h.host_target
    self.loss_based = h.loss_based
    # Additive-increase numerator of this host's congestion control,
    # pre-multiplied by the flow count (the per-step term divides by
    # ``rtt_eff`` only).
    self.ai_n = _where(self.loss_based, LOSS_CC_AI,
                       h.additive_increase) * self.n_flows
    self.swift_beta = h.swift_beta
    self.swift_max_mdf = h.swift_max_mdf
    self.min_cwnd = h.min_cwnd
    self.min_W = self.n_flows * h.min_cwnd
    self.max_W = self.n_flows * h.max_cwnd
    # Open-loop reads arrive at the offered rate whether or not the
    # window lets them out (``set_offered_load``).
    self.open_loop = h.open_loop
    self.demand_step_bytes = _where(
        self.open_loop, _demand_step_bytes(self, h.offered_load), 0.0)
    # State: one packet per flow (the transport's initial window),
    # empty queues, an empty sender-side demand backlog ``q_demand``
    # (wire bytes; demand unmet in an overloaded interval persists and
    # drains later at window rate, like ``Connection.add_backlog``),
    # and an uncongested delay estimate.
    self.W = _float(self.n_flows)
    self.q_nic = 0.0
    self.q_cpu = 0.0
    self.q_demand = 0.0
    self.now = 0.0
    self._host_delay = self.t_base
    self._delayed_signal = self._host_delay
    self._nic_drain_pps = 0.0
    self._cpu_drain_pps = 0.0
    self._last_decrease = -math.inf
    self._delayed_loss = 0.0


def _fluid_step(self) -> None:
    # One fused update: memory bus -> stage capacities -> arrivals
    # -> fabric -> NIC/CPU queue integration -> AIMD -> accumulators.
    # ``self`` carries the per-host constants hoisted in
    # ``FluidSolver.__init__`` (arrays of them in the batch).
    dt = self.dt
    run = self.run

    # Memory bus (the fluid half of ``repro.host.memory``): NIC DMA
    # writes + CPU copy traffic + the STREAM antagonist against the
    # achievable bandwidth give utilization, the load-latency queue
    # delay, and the achieved bandwidth.
    total_Bps = (self._nic_drain_pps * self.nic_write_bytes
                 + self._cpu_drain_pps * self.copy_bytes_per_packet
                 + self.antagonist_Bps)
    achievable_Bps = self.achievable_Bps
    rho = total_Bps / achievable_Bps
    queue_delay = _where(
        rho <= QUEUE_KNEE, 0.0,
        self.max_queue_delay
        * _cube(_min((rho - QUEUE_KNEE) / _KNEE_SPAN, 1.0)))

    # NIC-stage capacity (wire bytes/s): the Little's-law PCIe bound
    # over the per-DMA latency (T_base + queueing + IOTLB walks),
    # capped by PCIe goodput (both bits/s, hence the ``/ 8``).  With
    # the IOMMU off ``misses_per_packet`` is 0.0, and ``t + 0.0 *
    # walk`` is bitwise ``t``.
    t_total = self.t_base + queue_delay
    walk = self.walk_base + self.walk_fraction * queue_delay
    t_total = t_total + self.misses_per_packet * walk
    nic_Bps = _min(self.littles_bits / t_total, self.pcie_goodput_bps) / 8

    # CPU-stage capacity (wire bytes/s): per-core processing slowed
    # by memory-bus contention (copies stall on a loaded bus).
    cpu_Bps = self.cpu_wire_bps * (1.0 - self.cpu_slowdown
                                   * _min(rho, 1.0)) / 8

    # Arrivals: the window-limited closed loop.  An open-loop
    # workload accrues reads into the sender-side demand backlog
    # and the window drains *that* — demand unmet in an overloaded
    # interval carries over (``Connection.add_backlog``) instead of
    # being capped at the instantaneous offered rate.  ``q_demand`` is
    # computed for every host but kept only for open-loop ones.
    rtt_eff = self.base_rtt + self._host_delay
    if _SCALAR:
        if self._fab_terms is not None:
            rtt_eff += self._fab_delay
    window_bps = self.W * self.wire_bits / rtt_eff
    open_loop = self.open_loop
    q_demand = self.q_demand + self.demand_step_bytes
    arrival_bps = _min(_where(open_loop,
                              _min(window_bps, q_demand * 8 / dt),
                              window_bps), self.link_rate_bps)
    inflow = arrival_bps / 8 * dt
    q_demand = _max(q_demand - inflow, 0.0)

    if _SCALAR:
        # Fabric stage (multi-tier topologies only; the batch rejects
        # them): per-used-link fluid queues at the bottleneck multipath
        # tier.  Each link passes its window share through up to its
        # capacity share, buffers the excess, and tail-drops past its
        # buffer — drops the host NIC never sees, at whichever link the
        # routing policy overloaded.
        fab_dropped_bytes = 0.0
        if self._fab_terms is not None:
            served_bytes = arrival_bps * self._fab_free / 8.0 * dt
            delay_num = 0.0
            fab_q = self._fab_q
            for i, (frac, cap_Bps, cap_bytes, fab_buf) in enumerate(
                    self._fab_terms):
                backlog = fab_q[i] + arrival_bps * frac / 8.0 * dt
                served_t = backlog if backlog < cap_bytes else cap_bytes
                level = backlog - served_t
                over = level - fab_buf
                if over > 0.0:
                    fab_dropped_bytes += over
                    level = fab_buf
                fab_q[i] = level
                served_bytes += served_t
                delay_num += level / cap_Bps * frac
            self._fab_delay = (delay_num / self._fab_frac_sum
                               if self._fab_frac_sum > 0.0 else 0.0)
            run.fabric_offered_packets += inflow / self.wire_bytes
            run.fabric_dropped_packets += (fab_dropped_bytes
                                           / self.wire_bytes)
            run.retransmissions += fab_dropped_bytes / self.wire_bytes
            # Reliable transport: fabric-dropped reads come back.
            q_demand += fab_dropped_bytes
            inflow = served_bytes

    # NIC stage: bounded buffer, tail drop on overflow.
    nic_backlog = self.q_nic + inflow
    dma_bytes = _min(nic_Bps * dt, nic_backlog)
    level = nic_backlog - dma_bytes
    dropped_bytes = _max(level - self.buffer_bytes, 0.0)
    q_nic = _min(level, self.buffer_bytes)
    # Reliable transport: lost packets are retransmitted, so their
    # bytes return to the sender-side demand backlog rather than
    # vanishing from the open-loop workload.
    q_demand = q_demand + dropped_bytes
    nic_delay = t_total + q_nic / _max(nic_Bps, 1.0)

    # CPU stage: unbounded in-memory backlog, loss-free.
    cpu_backlog = self.q_cpu + dma_bytes
    done_bytes = _min(cpu_Bps * dt, cpu_backlog)
    q_cpu = cpu_backlog - done_bytes
    host_delay = nic_delay + q_cpu / _max(cpu_Bps, 1.0)

    # Aggregate AIMD against the one-RTT-delayed signal.  No hold
    # band: the aggregate sawtooth must keep probing, or a
    # deterministic fluid settles into a frozen dead zone the
    # per-flow packet engine never reaches.  Loss-based transports
    # (Cubic; DCTCP, whose ECN marks live at the fabric switch) only
    # see host congestion as drops: probe at 1 pkt/RTT/flow until a
    # loss round, then cut.  A cut waits one RTT after the last.
    signal = self._delayed_signal
    now = self.now
    W = self.W
    loss_based = self.loss_based
    grow = _where(loss_based, self._delayed_loss <= 0.0,
                  signal < self.swift_target)
    cut = _where(grow, False, now - self._last_decrease >= rtt_eff)
    W = _where(grow, W + self.ai_n * dt / rtt_eff,
               _where(cut, W * _where(
                   loss_based, LOSS_CC_BETA,
                   1.0 - _min(self.swift_beta * (signal - self.swift_target)
                              / signal, self.swift_max_mdf)), W))
    W = _min(_max(W, self.min_W), self.max_W)
    last_decrease = _where(cut, now, self._last_decrease)

    # Accumulators: both forms keep the four a fleet range reads
    # (``BatchFluidSolver.fleet_metrics``); the scalar form the rest.
    rx = inflow / self.wire_bytes
    dropped = dropped_bytes / self.wire_bytes
    dma = dma_bytes / self.wire_bytes
    drained = done_bytes / self.wire_bytes
    run.elapsed += _acc(dt)
    run.rx_packets += _acc(rx)
    run.dropped_packets += _acc(dropped)
    run.drained_payload_bytes += _acc(drained * self.payload_bytes)
    if _SCALAR:
        achieved_Bps = _min(total_Bps, achievable_Bps)
        per_flow_w = W / self.n_flows
        run.dma_packets += dma
        run.drained_packets += drained
        run.retransmissions += dropped
        run.dma_latency_weighted += t_total * dma
        run.nic_delay_weighted += nic_delay * dma
        run.utilization_integral += rho * dt
        run.achieved_bw_integral += achieved_Bps * dt
        # Read before the trace row clamps ``per_flow_w`` below.
        run.cwnd_integral += per_flow_w * dt
        run.peak_queue_bytes = _max(q_nic, run.peak_queue_bytes)
        if drained > 0.0:
            if rx > 0.0:
                p_pkt = dropped / rx
                if p_pkt > 1.0:
                    p_pkt = 1.0
            else:
                p_pkt = 0.0
            if per_flow_w < self.min_cwnd:
                per_flow_w = self.min_cwnd
            run.step_trace.append((host_delay, rtt_eff, p_pkt, drained,
                                   per_flow_w, nic_delay, dma))

    # Roll the delayed signals forward one step.  Loss-based CC sees
    # fabric drops too (they trigger the same retransmit/decrease
    # machinery in the packet engine).
    self._delayed_signal = _sel(self._host_delay, signal)
    self._host_delay = _sel(host_delay, self._host_delay)
    if _SCALAR:
        self._delayed_loss = dropped_bytes + fab_dropped_bytes
    else:
        self._delayed_loss = _sel(dropped_bytes, self._delayed_loss)
    self._nic_drain_pps = _sel(dma / dt, self._nic_drain_pps)
    self._cpu_drain_pps = _sel(drained / dt, self._cpu_drain_pps)
    self.W = _sel(W, self.W)
    self._last_decrease = _sel(last_decrease, self._last_decrease)
    self.q_nic = _sel(q_nic, self.q_nic)
    self.q_cpu = _sel(q_cpu, self.q_cpu)
    # A closed-loop host's backlog never moves, so the day driver's
    # ``set_offered_load`` switches resume it exactly.
    self.q_demand = _sel(_where(open_loop, q_demand, self.q_demand),
                         self.q_demand)
    self.now = now + _acc(dt)
    self.steps += _acc(1)


class _Specializer(ast.NodeTransformer):
    """Rewrites the dialect into one form (see :func:`specialize_step`)."""

    def __init__(self, source: Callable, lanes: bool):
        self.source = source
        self.lanes = lanes
        self.temps = 0

    def fail(self, node: ast.AST, message: str) -> None:
        raise ValueError(f"{self.source.__code__.co_filename}:"
                         f"{node.lineno}: fluid-step dialect: {message}")

    def visit_If(self, node: ast.If):
        test = node.test
        if not (isinstance(test, ast.Name)
                and test.id in ("_SCALAR", "_LANES")):
            if self.lanes:
                self.fail(node, "plain if outside an 'if _SCALAR:' "
                                "block; choose per lane with _where()")
            return self.generic_visit(node)
        kept = node.body if (test.id == "_LANES") == self.lanes \
            else node.orelse
        return (self.generic_visit(ast.Module(kept, [])).body
                or ast.copy_location(ast.Pass(), node))

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        name = getattr(node.func, "id", "")
        if name not in _DIALECT_OPS:
            if name.startswith("_") and name not in self.source.__globals__:
                self.fail(node, f"unknown op {name}()")
            return node
        args = node.args
        if len(args) != _DIALECT_OPS[name] or node.keywords:
            self.fail(node, f"{name}() takes {_DIALECT_OPS[name]} "
                            f"positional arguments")
        if self.lanes:
            if name == "_where" and all(map(_is_truth, args[1:])):
                return self.logical_where(node, *args)
            if name in _NUMPY_OPS:
                node.func = self.np_attr(_NUMPY_OPS[name], node)
            return node
        if name in ("_sel", "_acc"):
            return args[0]
        if name == "_float":
            node.func = ast.copy_location(ast.Name("float", ast.Load()),
                                          node.func)
            return node
        if name == "_where":
            return ast.copy_location(ast.IfExp(*args), node)
        (a_test, a), (b_test, b) = self.twice(args[0]), self.twice(args[1])
        op = ast.Lt() if name == "_min" else ast.Gt()
        return ast.copy_location(
            ast.IfExp(ast.copy_location(
                ast.Compare(a_test, [op], [b_test]), node), a, b), node)

    def np_attr(self, func: str, node: ast.AST) -> ast.Attribute:
        return ast.copy_location(ast.Attribute(
            ast.copy_location(ast.Name("np", ast.Load()), node), func,
            ast.Load()), node)

    def logical_where(self, node: ast.Call, cond: ast.expr, a: ast.expr,
                      b: ast.expr) -> ast.Call:
        """``_where(cond, a, b)`` over truth values as numpy logical
        ops: ``(cond and a) or (not cond and b)``, with a ``True`` or
        ``False`` branch folded in.  Exact, and several times cheaper
        than ``np.where`` over bool lanes."""
        def call(func: str, *args: ast.expr) -> ast.Call:
            return ast.copy_location(
                ast.Call(self.np_attr(func, node), list(args), []), node)

        def negated(expr: ast.expr) -> ast.Call:
            return call("logical_not", expr)

        if isinstance(a, ast.Constant):
            return (call("logical_or", cond, b) if a.value
                    else call("logical_and", negated(cond), b))
        if isinstance(b, ast.Constant):
            return (call("logical_or", negated(cond), a) if b.value
                    else call("logical_and", cond, a))
        first, second = self.twice(cond)
        return call("logical_or", call("logical_and", first, a),
                    call("logical_and", negated(second), b))

    def twice(self, expr: ast.expr) -> Tuple[ast.expr, ast.expr]:
        """``expr`` for a first and a second use: bound with ``:=``
        unless it is a name, attribute or constant."""
        if isinstance(expr, (ast.Name, ast.Attribute, ast.Constant)):
            return expr, copy.deepcopy(expr)
        self.temps += 1
        name = f"_v{self.temps}"
        bound = ast.NamedExpr(
            ast.copy_location(ast.Name(name, ast.Store()), expr), expr)
        return (ast.copy_location(bound, expr),
                ast.copy_location(ast.Name(name, ast.Load()), expr))

    def run_loop(self, func: ast.FunctionDef) -> None:
        """Makes the scalar step ``func`` the run loop ``func(self,
        until)`` (see :func:`specialize_step`)."""
        line = func.lineno
        obj = func.args.args[0].arg
        taken, assigned = set(), []
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                taken.add(node.id)
            if isinstance(getattr(node, "ctx", None), ast.Store):
                assigned.append(ast.unparse(node))
        # Loop invariants: a top-level ``name = self.attr`` line whose
        # name is assigned nowhere else and whose attribute the body
        # never assigns (``dt = self.dt``, ``run = self.run``) runs
        # once, before the loop.
        aliases = [stmt for stmt in func.body
                   if isinstance(stmt, ast.Assign)
                   and isinstance(stmt.targets[0], ast.Name)
                   and isinstance(stmt.value, ast.Attribute)
                   and getattr(stmt.value.value, "id", None) == obj
                   and assigned.count(ast.unparse(stmt.targets[0])) == 1
                   and ast.unparse(stmt.value) not in assigned]
        names = [obj] + [stmt.targets[0].id for stmt in aliases]
        guard = ast.parse("\n" * (line - 1) + f"{obj}.now < until - 1e-12",
                          mode="eval").body
        loop = ast.While(guard, [stmt for stmt in func.body
                                 if stmt not in aliases], [])
        localizer = _Localizer(names)
        loop = localizer.visit(loop)
        aliases = [localizer.visit(stmt) for stmt in aliases]
        local, stored = localizer.locals, localizer.stored
        clash = taken & {*local, "until"}
        if clash:
            self.fail(func, f"{sorted(clash)} clash with the run loop's "
                            f"locals")

        def assign(pairs) -> List[ast.stmt]:
            """``a = b; ...`` (or ``pass``), parsed on the ``def`` line."""
            return ast.parse("\n" * (line - 1) + ("; ".join(
                f"{a} = {b}" for a, b in pairs) or "pass")).body

        def loads(bases: List[str]) -> List[ast.stmt]:
            return assign((name, attr) for name, attr in local.items()
                          if attr.split(".")[0] in bases)

        write_back = assign((attr, name) for name, attr in local.items()
                            if name in stored)
        func.args.args.append(ast.copy_location(ast.arg("until"), func))
        func.body = loads(names[:1]) + aliases + loads(names[1:]) + [
            ast.copy_location(ast.Try([ast.copy_location(loop, func)], [],
                                      [], write_back), func)]


class _Localizer(ast.NodeTransformer):
    """Rewrites ``base.attr`` to the local ``base_attr`` for each base
    name given, noting each local's ``"base.attr"`` in first-use order
    and which locals are assigned."""

    def __init__(self, bases: List[str]):
        self.bases = bases
        self.locals: Dict[str, str] = {}
        self.stored: set = set()

    def visit_Attribute(self, node: ast.Attribute):
        self.generic_visit(node)
        base = node.value
        if not (isinstance(base, ast.Name) and base.id in self.bases):
            return node
        name = f"{base.id}_{node.attr}"
        self.locals[name] = f"{base.id}.{node.attr}"
        if isinstance(node.ctx, ast.Store):
            self.stored.add(name)
        return ast.copy_location(ast.Name(name, node.ctx), node)


def specialize_step(np=None, source: Callable = _fluid_step) -> Callable:
    """Compile dialect function ``source`` (default: the fluid step)
    for plain floats (``np`` None) or for lanes of numpy module ``np``;
    ``source`` must be a module-level function.

    Scalar: ``_min(a, b)`` becomes ``a if a < b else b`` (evaluating
    each argument once), ``_where`` a conditional expression that
    evaluates only the branch it takes, ``_sel(new, old)`` becomes
    ``new``, ``_acc(d)`` becomes ``d`` and ``_float(x)`` becomes
    ``float(x)``: no other op costs a call.  The
    body then runs as one loop, ``source(self, until)``, stepping while
    ``self.now < until - 1e-12``.  Top-level ``name = self.attr`` lines
    the body cannot change (``dt = self.dt``, ``run = self.run``) run
    once, before it; every ``self.X`` and ``run.X`` the body touches is
    the local ``self_X`` (``run_X``), loaded once there too, and the
    ones it assigns are written back in a ``finally``, so an
    interrupted run leaves the object as the step it stopped in left
    it.  Lanes: ``np.minimum``/``np.maximum``/``np.where``/
    ``np.float64``, except that a ``_where`` whose two values are
    comparisons or ``True``/``False`` becomes ``np.logical_and``/
    ``logical_or``/``logical_not`` (exact, and much cheaper than
    ``np.where`` over bool lanes); the function takes two more
    arguments, the ``_sel`` and ``_acc`` mask functions, which default
    to every lane active.  Both
    forms keep ``source``'s file name and line numbers (the loop's
    set-up and write-back sit on its ``def`` line).  Raises
    ``ValueError`` naming an unknown ``_``-prefixed op, or a body name
    that clashes with a loop local.
    """
    # The function's lines are the ``def`` and the indented, blank and
    # comment lines after it (``inspect.getsourcelines`` tokenizes the
    # file to find that end and ``ast.increment_lineno`` walks the tree:
    # together twice the cost of the whole pass, paid at every import).
    filename = source.__code__.co_filename
    lines = linecache.getlines(filename)
    first = end = source.__code__.co_firstlineno
    while end < len(lines) and lines[end][:1] in " \n#":
        end += 1
    # Blank lines in front keep every node at its line in the file.
    tree = ast.parse("\n" * (first - 1) + "".join(lines[first - 1:end]))
    func = tree.body[0]
    if np is not None:
        func.args.args += [ast.copy_location(ast.arg(mask), func)
                           for mask in ("_sel", "_acc")]
    specializer = _Specializer(source, np is not None)
    tree = specializer.visit(tree)
    if np is None:
        specializer.run_loop(func)
    # Every new node carries the position of the node it replaces (the
    # loop's own statements that of the ``def``), so no
    # ``ast.fix_missing_locations`` pass is needed.
    module = compile(tree, filename, "exec")
    code = next(const for const in module.co_consts
                if isinstance(const, types.CodeType))
    if np is None:
        return types.FunctionType(code, source.__globals__,
                                  source.__name__)
    return types.FunctionType(code, {**source.__globals__, "np": np},
                              source.__name__, (_sel, _acc))


class FluidSolver:
    """One receiver host's fluid dynamics, stepped at RTT granularity.

    State: ``W`` — the aggregate congestion window (packets, summed
    over every flow into this host) — ``q_nic`` (NIC buffer level,
    wire bytes, bounded and lossy) and ``q_cpu`` (receiver processing
    backlog, wire bytes, unbounded and loss-free).  Each step
    recomputes the closed-form stage capacities, integrates both
    queues, and applies one aggregate Swift-style AIMD update against
    the *one-RTT-delayed* total host delay; the NIC buffer caps the
    observable delay, so the packet engine's Swift blind spot (drops
    the CC never sees because the full buffer still drains inside the
    target delay) emerges here too.

    Multi-host topologies are symmetric (every receiver serves an
    identical incast), so one solver models one host and the runner
    aggregates exactly as ``repro.core.topology.Topology.snapshot``.
    """

    def __init__(self, config: ExperimentConfig,
                 fabric_profile: Optional[FabricProfile] = None):
        """``fabric_profile``, when given, is ``config``'s
        :func:`fluid_fabric_profile` already computed (a sweep's solve
        key holds it); None derives it here."""
        self.config = config
        _host_constants(self, types.SimpleNamespace(**fluid_inputs(config)))
        self.steps = 0
        # Multi-tier fabric stage (None on the star: the guarded branch
        # in the step is never entered, and the rest stay inert).
        profile = (fabric_profile if fabric_profile is not None
                   else fluid_fabric_profile(config))
        self.fabric_profile = profile
        if profile is not None:
            #: Per used link: (window fraction, capacity bytes/s,
            #: capacity bytes per step, buffer bytes).
            self._fab_terms: Optional[Tuple[Tuple[float, float, float,
                                                  float], ...]] = tuple(
                (frac, cap_bps / 8.0, cap_bps / 8.0 * self.dt, buf)
                for frac, cap_bps, buf in profile.terms)
            self._fab_free = profile.free_fraction
            self._fab_frac_sum = sum(f for f, _, _ in profile.terms)
            self._fab_q = [0.0] * len(profile.terms)
        else:
            self._fab_terms = None
            self._fab_free = self._fab_frac_sum = 0.0
            self._fab_q = []
        self._fab_delay = 0.0
        self.run = FluidRun()

    def synthesize_message_pairs(
            self, records, packets_per_read: float, scale: float,
    ) -> Tuple[List[Tuple[float, float]], float]:
        """Weighted message-latency samples for a traffic class issuing
        ``packets_per_read``-packet reads over the given step records
        (:attr:`FluidRun.step_trace` rows), latencies in seconds times
        ``scale`` (1e6 for µs).

        One sample per step per outcome class: a clean read finishes in
        ``rounds`` effective RTTs; a read that lost a packet pays one
        extra round trip (fast retransmit); a read that lost the
        retransmit too pays the RTO.  Returns ``(pairs, timeouts)``.
        """
        ppr = packets_per_read
        rto = self.config.swift.rto
        base_rtt = self.base_rtt
        pairs: List[Tuple[float, float]] = []
        timeouts = 0.0
        for host_delay, rtt_eff, p_pkt, drained, per_flow_w, _, _ \
                in records:
            messages = drained / ppr
            rounds = ppr / per_flow_w
            if rounds < 1.0:
                rounds = 1.0
            base = base_rtt + host_delay + (rounds - 1.0) * rtt_eff
            if p_pkt <= 0.0:
                # Loss-free step: every read is clean (the general
                # branch would add exactly ``+0.0`` timeouts).
                pairs.append((base * scale, messages))
                continue
            p_msg = 1.0 - (1.0 - p_pkt) ** ppr
            p_timeout = p_msg * p_pkt
            timeouts += messages * p_timeout
            pairs.append((base * scale, messages * (1.0 - p_msg)))
            if p_msg > 0:
                pairs.append(((base + rtt_eff) * scale,
                              messages * (p_msg - p_timeout)))
            if p_timeout > 0:
                pairs.append(((base + rto) * scale, messages * p_timeout))
        return pairs, timeouts

    # -- run control -------------------------------------------------------

    #: ``run_until(until)``: steps while ``now < until - 1e-12`` —
    #: :func:`_fluid_step` compiled to plain floats as one run loop.
    run_until = specialize_step()

    def reset_stats(self) -> None:
        """Warmup boundary: restart accumulators, keep CC/queue state."""
        self.run = FluidRun()

    def set_offered_load(self, load: Optional[float]) -> None:
        """Mid-run load change (the day driver's per-bin schedule) —
        mirrors ``HostWorkload.set_offered_load``, whose range it
        checks; ``None`` switches the host to closed loop.  Precomputes
        the per-step open-loop demand accrual so the step only adds a
        constant."""
        if load is not None and not 0 < load <= 2:
            raise ValueError(f"offered load {load} out of (0, 2]")
        self.open_loop = load is not None
        self.demand_step_bytes = (_demand_step_bytes(self, load)
                                  if self.open_loop else 0.0)

    def set_antagonist_cores(self, cores: int) -> None:
        """Mid-run antagonist change — mirrors
        ``MemoryAntagonist.set_cores``."""
        if cores < 0:
            raise ValueError(f"cores must be non-negative, got {cores}")
        self.antagonist_Bps = (cores
                               * self.config.host.antagonist_per_core_Bps)

    # -- reporting ---------------------------------------------------------

    def mean_cwnd(self) -> float:
        if self.run.elapsed <= 0:
            return self.W / self.n_flows
        return self.run.cwnd_integral / self.run.elapsed

    def snapshot(self) -> Dict[str, float]:
        """The 11-key host headline dict, same names and units as
        ``repro.host.host.ReceiverHost.snapshot``."""
        run = self.run
        elapsed = run.elapsed
        config = self.config
        if elapsed <= 0:
            app_gbps = wire_gbps = 0.0
            utilization = bandwidth = 0.0
        else:
            app_gbps = run.drained_payload_bytes * 8 / elapsed / 1e9
            wire_gbps = (run.rx_packets * self.wire_bytes * 8
                         / elapsed / 1e9)
            utilization = run.utilization_integral / elapsed
            bandwidth = run.achieved_bw_integral / elapsed
        dma = run.dma_packets
        mean_dma = run.dma_latency_weighted / dma if dma > 0 else 0.0
        mean_delay = run.nic_delay_weighted / dma if dma > 0 else 0.0
        remote_Bps = min(
            config.host.remote_antagonist_cores
            * config.host.antagonist_per_core_Bps,
            config.host.memory.achievable_Bps)
        return {
            "app_throughput_gbps": app_gbps,
            "wire_arrival_gbps": wire_gbps,
            "drop_rate": run.drop_rate(),
            "iotlb_misses_per_packet": self.misses_per_packet,
            "memory_utilization": utilization,
            "memory_total_GBps": bandwidth / 1e9,
            "mean_dma_latency_us": mean_dma * 1e6,
            "mean_nic_delay_us": mean_delay * 1e6,
            "nic_buffer_peak_fraction":
                run.peak_queue_bytes / config.host.nic.buffer_bytes,
            "iommu_entries": float(config.host.registered_pages_per_thread
                                   * config.host.cpu.cores),
            "remote_memory_GBps": remote_Bps / 1e9,
        }
