"""Isolation study: small-RPC victims sharing a congested host.

Paper §1: "host congestion ... can lead to hundreds of microseconds of
tail latency, significant throughput drop, and violation of isolation
properties due to packet drops" — all applications share one NIC
buffer, so an application that did nothing wrong pays for its
neighbours' congestion.

This study runs the standard incast with one *victim* connection per
receiver thread issuing single-MTU (4 KB) RPCs, while every other
connection issues the usual 16 KB elephant reads.  Comparing victim
tail latency between an uncongested and a congested host quantifies the
isolation violation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import ExperimentConfig
from repro.core.metrics import Summary, summarize
from repro.sim.engine import Simulator
from repro.workload.remote_read import require_single_star_host

__all__ = ["IsolationResult", "run_isolation_study"]

#: The victim is the connection to sender 0 on each thread.
_VICTIM_SENDER = 0


@dataclass(frozen=True)
class IsolationResult:
    """Latency summaries (µs) for victims and elephants."""

    victim: Summary
    elephant: Summary
    drop_rate: float
    app_throughput_gbps: float

    def victim_penalty_p99(self, baseline: "IsolationResult") -> float:
        """p99 blow-up factor of victims vs an uncongested baseline."""
        if baseline.victim.p99 <= 0:
            raise ValueError("baseline has no victim latency samples")
        return self.victim.p99 / baseline.victim.p99


def _add_victims(topology) -> Tuple[List[int], List[int]]:
    """Make the connection to sender 0 on each thread of a single-host
    ``topology`` a victim issuing single-MTU reads; returns the
    (victim, elephant) flow ids."""
    victims: List[int] = []
    elephants: List[int] = []
    for conn in topology.connections:
        (victims if conn.sender_id == _VICTIM_SENDER
         else elephants).append(conn.flow_id)
    for flow_id in victims:
        topology.receiver.per_flow_packets[flow_id] = 1
    return victims, elephants


def _weighted_summary_us(pairs) -> Summary:
    """A :class:`Summary` (µs) from weighted latency pairs (seconds)."""
    from repro.sim.fluid import weighted_summary

    s = weighted_summary(pairs)
    return Summary(count=s["count"], mean=s["mean"] * 1e6,
                   p50=s["p50"] * 1e6, p90=s["p90"] * 1e6,
                   p99=s["p99"] * 1e6, maximum=s["max"] * 1e6)


def _run_isolation_fluid(config: ExperimentConfig) -> IsolationResult:
    """Fluid twin of the isolation study: one solver run; victim
    (single-MTU) and elephant (full-read) latency distributions are
    synthesized from the same step trace with their respective
    read sizes, so both classes see the identical congestion signal —
    exactly the shared-NIC-buffer coupling the study measures."""
    from repro.sim.fluid import FluidSolver

    solver = FluidSolver(config)
    solver.run_until(config.sim.warmup)
    solver.reset_stats()
    solver.run_until(config.sim.end_time)
    trace = solver.run.step_trace
    victim_pairs, _ = solver.synthesize_message_pairs(trace, 1.0, 1.0)
    elephant_pairs, _ = solver.synthesize_message_pairs(
        trace, solver.packets_per_read, 1.0)
    snap = solver.snapshot()
    return IsolationResult(
        victim=_weighted_summary_us(victim_pairs),
        elephant=_weighted_summary_us(elephant_pairs),
        drop_rate=snap["drop_rate"],
        app_throughput_gbps=snap["app_throughput_gbps"],
    )


def run_isolation_study(config: ExperimentConfig) -> IsolationResult:
    """Run one isolation experiment and split latencies by class."""
    if config.workload.senders < 2:
        raise ValueError("isolation study needs at least 2 senders")
    if config.fidelity == "fluid":
        return _run_isolation_fluid(config)
    require_single_star_host(config, "run_isolation_study")
    from repro.core.topology import Topology

    sim = Simulator()
    topology = Topology.build(sim, config)
    victims, elephants = _add_victims(topology)
    sim.run(until=config.sim.warmup)
    topology.reset_stats()  # component recursion covers host + transport
    sim.run(until=config.sim.end_time)
    receiver = topology.receiver
    to_us = lambda values: [v * 1e6 for v in values]  # noqa: E731
    return IsolationResult(
        victim=summarize(to_us(receiver.message_latencies_for(victims))),
        elephant=summarize(to_us(
            receiver.message_latencies_for(elephants))),
        drop_rate=topology.host.drop_rate(),
        app_throughput_gbps=topology.host.app_throughput_bps() / 1e9,
    )


def congested_vs_uncongested(
    base: ExperimentConfig,
) -> Dict[str, IsolationResult]:
    """Convenience: run the study at a genuinely uncongested operating
    point (light open-loop load, no antagonists — every queue near
    empty) and at the congested one (``base`` as given)."""
    uncongested = dataclasses.replace(
        base,
        host=dataclasses.replace(base.host, antagonist_cores=0),
        workload=dataclasses.replace(base.workload, offered_load=0.25),
    )
    return {
        "uncongested": run_isolation_study(uncongested),
        "congested": run_isolation_study(base),
    }
