"""Oracle for the fluid collect path.

The step records one 7-float trace row per draining step, message
latencies are synthesized straight in µs, and the NIC host-delay
summary reads its pairs from the rows.  The oracle below is the route
those replaced, kept as it was: a step that records two lists
(``(nic_delay, dma)`` pairs and 5-float trace rows), unscaled message
synthesis, and a ``v * 1e6`` copy of the pairs before the summary.
Both routes must report the same bits.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
)
from repro.core.fluid import FluidExperiment
from repro.core.scenario import bundled_scenarios
from repro.sim.fluid import (
    _KNEE_SPAN,
    LOSS_CC_BETA,
    QUEUE_KNEE,
    FluidRun,
    FluidSolver,
    _acc,
    _cube,
    _max,
    _min,
    _sel,
    _where,
    weighted_summary,
)


@dataclass
class _TwoListRun(FluidRun):
    #: (nic_delay_seconds, packets) pairs for the host-delay summary.
    delay_pairs: List[Tuple[float, float]] = field(default_factory=list)


def _two_list_step(self) -> None:
    """The fluid step as it recorded two lists, read as plain floats
    (the dialect's scalar meaning); ``self._fab_terms`` holds the
    profile's ``(frac, cap_bps, buf)`` triples."""
    dt = self.dt
    run = self.run

    total_Bps = (self._nic_drain_pps * self.nic_write_bytes
                 + self._cpu_drain_pps * self.copy_bytes_per_packet
                 + self.antagonist_Bps)
    achievable_Bps = self.achievable_Bps
    rho = total_Bps / achievable_Bps
    queue_delay = _where(
        rho <= QUEUE_KNEE, 0.0,
        self.max_queue_delay
        * _cube(_min((rho - QUEUE_KNEE) / _KNEE_SPAN, 1.0)))
    achieved_Bps = _min(total_Bps, achievable_Bps)

    t_total = self.t_base + queue_delay
    walk = self.walk_base + self.walk_fraction * queue_delay
    t_total = t_total + self.misses_per_packet * walk
    nic_bps = _min(self.littles_bits / t_total, self.pcie_goodput_bps)

    cpu_bps = self.cpu_wire_bps * (1.0 - self.cpu_slowdown
                                   * _min(rho, 1.0))

    rtt_eff = self.base_rtt + self._host_delay
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

    fab_dropped_bytes = 0.0
    if self._fab_terms is not None:
        served_bytes = arrival_bps * self._fab_free / 8.0 * dt
        delay_num = 0.0
        fab_q = self._fab_q
        for i, (frac, cap_bps, fab_buf) in enumerate(self._fab_terms):
            backlog = fab_q[i] + arrival_bps * frac / 8.0 * dt
            cap_bytes = cap_bps / 8.0 * dt
            served_t = backlog if backlog < cap_bytes else cap_bytes
            level = backlog - served_t
            over = level - fab_buf
            if over > 0.0:
                fab_dropped_bytes += over
                level = fab_buf
            fab_q[i] = level
            served_bytes += served_t
            delay_num += level / (cap_bps / 8.0) * frac
        self._fab_delay = (delay_num / self._fab_frac_sum
                           if self._fab_frac_sum > 0.0 else 0.0)
        run.fabric_offered_packets += inflow / self.wire_bytes
        run.fabric_dropped_packets += (fab_dropped_bytes
                                       / self.wire_bytes)
        run.retransmissions += fab_dropped_bytes / self.wire_bytes
        q_demand += fab_dropped_bytes
        inflow = served_bytes

    nic_backlog = self.q_nic + inflow
    dma_bytes = _min(nic_bps / 8 * dt, nic_backlog)
    level = nic_backlog - dma_bytes
    dropped_bytes = _max(level - self.buffer_bytes, 0.0)
    q_nic = _min(level, self.buffer_bytes)
    q_demand = q_demand + dropped_bytes
    nic_delay = t_total + q_nic / _max(nic_bps / 8, 1.0)

    cpu_backlog = self.q_cpu + dma_bytes
    done_bytes = _min(cpu_bps / 8 * dt, cpu_backlog)
    q_cpu = cpu_backlog - done_bytes
    host_delay = nic_delay + q_cpu / _max(cpu_bps / 8, 1.0)

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

    rx = inflow / self.wire_bytes
    dropped = dropped_bytes / self.wire_bytes
    dma = dma_bytes / self.wire_bytes
    drained = done_bytes / self.wire_bytes
    run.elapsed += _acc(dt)
    run.rx_packets += _acc(rx)
    run.dropped_packets += _acc(dropped)
    run.dma_packets += _acc(dma)
    run.drained_packets += _acc(drained)
    run.drained_payload_bytes += _acc(drained * self.payload_bytes)
    run.retransmissions += _acc(dropped)
    run.dma_latency_weighted += _acc(t_total * dma)
    run.nic_delay_weighted += _acc(nic_delay * dma)
    run.utilization_integral += _acc(rho * dt)
    run.achieved_bw_integral += _acc(achieved_Bps * dt)
    run.cwnd_integral += _acc(W / self.n_flows * dt)
    run.peak_queue_bytes = _max(_acc(q_nic), run.peak_queue_bytes)
    if drained > 0.0:
        run.delay_pairs.append((nic_delay, dma))
        if rx > 0.0:
            p_pkt = dropped / rx
            if p_pkt > 1.0:
                p_pkt = 1.0
        else:
            p_pkt = 0.0
        per_flow_w = W / self.n_flows
        if per_flow_w < self.min_cwnd:
            per_flow_w = self.min_cwnd
        run.step_trace.append(
            (host_delay, rtt_eff, p_pkt, drained, per_flow_w))

    self._delayed_signal = _sel(self._host_delay, signal)
    self._host_delay = _sel(host_delay, self._host_delay)
    self._delayed_loss = dropped_bytes + fab_dropped_bytes
    self._nic_drain_pps = _sel(dma / dt, self._nic_drain_pps)
    self._cpu_drain_pps = _sel(drained / dt, self._cpu_drain_pps)
    self.W = _sel(W, self.W)
    self._last_decrease = _sel(last_decrease, self._last_decrease)
    self.q_nic = _sel(q_nic, self.q_nic)
    self.q_cpu = _sel(q_cpu, self.q_cpu)
    self.q_demand = _sel(_where(open_loop, q_demand, self.q_demand),
                         self.q_demand)
    self.now = now + _acc(dt)
    self.steps = _sel(self.steps + 1, self.steps)


def _unscaled_message_pairs(solver, records, ppr):
    """Message synthesis over 5-float rows, latencies in seconds."""
    rto = solver.config.swift.rto
    base_rtt = solver.base_rtt
    pairs = []
    timeouts = 0.0
    for host_delay, rtt_eff, p_pkt, drained, per_flow_w in records:
        messages = drained / ppr
        rounds = ppr / per_flow_w
        if rounds < 1.0:
            rounds = 1.0
        base = base_rtt + host_delay + (rounds - 1.0) * rtt_eff
        if p_pkt <= 0.0:
            pairs.append((base, messages))
            continue
        p_msg = 1.0 - (1.0 - p_pkt) ** ppr
        p_timeout = p_msg * p_pkt
        timeouts += messages * p_timeout
        pairs.append((base, messages * (1.0 - p_msg)))
        if p_msg > 0:
            pairs.append((base + rtt_eff, messages * (p_msg - p_timeout)))
        if p_timeout > 0:
            pairs.append((base + rto, messages * p_timeout))
    return pairs, timeouts


def _two_list_solver(config: ExperimentConfig) -> FluidSolver:
    solver = FluidSolver(config)
    profile = solver.fabric_profile
    solver._fab_terms = profile.terms if profile is not None else None
    for until in (config.sim.warmup, config.sim.end_time):
        solver.run = _TwoListRun()
        while solver.now < until - 1e-12:
            _two_list_step(solver)
    return solver


def _spec_point(name: str, point: int) -> ExperimentConfig:
    return bundled_scenarios()[name].expand(quality="quick",
                                            fidelity="fluid")[point]


#: A star, a fat-tree incast, a dumbbell, and a lossy star whose reads
#: time out (6 cores on 4K pages).
_CONFIGS = {
    "star": lambda: _spec_point("figure3", 4),
    "incast": lambda: _spec_point("incast", -1),
    "dumbbell": lambda: _spec_point("dumbbell", -1),
    "lossy": lambda: ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=6), hugepages=False),
        sim=SimConfig(warmup=2e-4, duration=1e-3), fidelity="fluid"),
}


def _reprs(mapping):
    return {key: repr(value) for key, value in mapping.items()}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_collect_path_matches_the_two_list_route(name):
    config = _CONFIGS[name]()
    oracle = _two_list_solver(config)
    experiment = FluidExperiment(config)
    experiment.run_warmup()
    experiment.run_measurement()
    result = experiment.collect()
    snapshot = experiment.metrics_snapshot()
    solver = experiment.solver

    # The step itself: the same state, and each row is the two lists'
    # entries side by side.
    old, new = vars(oracle.run), vars(solver.run)
    rows, pairs = old.pop("step_trace"), old.pop("delay_pairs")
    assert new.pop("step_trace") == [
        row + pair for row, pair in zip(rows, pairs)]
    assert new == old
    assert (solver.now, solver.W, solver.q_nic, solver.q_cpu) \
        == (oracle.now, oracle.W, oracle.q_nic, oracle.q_cpu)

    m = config.workload.receivers
    messages, timeouts = _unscaled_message_pairs(
        oracle, rows, oracle.packets_per_read)
    latency = weighted_summary([(v * 1e6, w) for v, w in messages])
    assert _reprs(result.message_latency_us) == _reprs(
        {key: latency[key] for key in ("p50", "p90", "p99", "mean")})
    assert repr(result.metrics["timeouts"]) == repr(timeouts * m)
    delay = weighted_summary(pairs)
    key = "nic.host_delay_us" if m == 1 else "host0/nic.host_delay_us"
    assert _reprs(snapshot["histograms"][key]) == _reprs(
        {key: value if key == "count" else value * 1e6
         for key, value in delay.items()})

    # Exercised what it claims to: lossy reads time out, the fabric
    # configs run their fabric stage.
    assert len(rows) > 40
    if name == "lossy":
        assert timeouts > 0
    assert (solver.fabric_profile is not None) \
        == (name in ("incast", "dumbbell"))


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_unit_scale_synthesis_is_the_unscaled_pairs(name):
    # The isolation driver synthesizes at scale 1.0 and summarizes in
    # seconds; ``x * 1.0`` is exact, so its output does not move.
    solver = FluidSolver(_CONFIGS[name]())
    solver.run_until(solver.config.sim.end_time)
    rows = solver.run.step_trace
    for ppr in (1.0, solver.packets_per_read):
        assert repr(solver.synthesize_message_pairs(rows, ppr, 1.0)) \
            == repr(_unscaled_message_pairs(
                solver, [row[:5] for row in rows], ppr))

