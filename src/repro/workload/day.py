"""A host's day: time-varying load, binned measurements (Fig. 1's
footnote: "Data collected over a 24-hour period, and binned at a
10-minute granularity").

One receiver host is simulated through a schedule of bins; in each bin
the open-loop offered load and the memory-antagonist intensity change
(diurnal pattern plus noise), and the host's (link utilization, drop
rate) is measured per bin — yielding Fig. 1-style scatter points from
a *single* host over time, complementary to the cross-sectional fleet
sampler.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import ExperimentConfig
from repro.sim.engine import Simulator
from repro.workload.remote_read import require_single_star_host

__all__ = ["DayBin", "diurnal_schedule", "simulate_day"]


@dataclass(frozen=True)
class DayBin:
    """One measurement bin: inputs and measured outputs."""

    index: int
    offered_load: float
    antagonist_cores: int
    link_utilization: float
    drop_rate: float
    app_throughput_gbps: float


def diurnal_schedule(
    n_bins: int,
    seed: int = 0,
    base_load: float = 0.6,
    swing: float = 0.55,
    antagonist_peak: int = 15,
) -> List[tuple]:
    """(offered_load, antagonist_cores) per bin: a sinusoidal daily
    cycle with noise, plus bursts of memory-antagonist activity."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if not 0 < base_load <= 1:
        raise ValueError("base_load must be in (0, 1]")
    rng = random.Random(seed)
    schedule = []
    for i in range(n_bins):
        phase = 2 * math.pi * i / n_bins
        load = base_load + swing / 2 * math.sin(phase)
        load += rng.gauss(0, 0.07)
        load = min(max(load, 0.05), 1.0)
        # Batch jobs land in bursts, mostly off-peak.
        if rng.random() < 0.25:
            antagonists = rng.choice(
                (antagonist_peak, antagonist_peak, 8, 12))
        else:
            antagonists = rng.choice((0, 0, 0, 4))
        schedule.append((load, antagonists))
    return schedule


def _simulate_day_fluid(
    config: ExperimentConfig,
    schedule: Sequence[tuple],
    bin_duration: float,
    warmup_per_bin: float,
) -> List[DayBin]:
    """Fluid twin of the packet day loop: one solver carried across
    bins (CC and queue state persist, as in the packet run), per-bin
    load/antagonist changes applied through the solver's setters."""
    from repro.sim.fluid import FluidSolver

    solver = FluidSolver(config)
    bins: List[DayBin] = []
    for index, (load, antagonists) in enumerate(schedule):
        solver.set_offered_load(load)
        solver.set_antagonist_cores(antagonists)
        solver.run_until(solver.now + warmup_per_bin)
        solver.reset_stats()
        solver.run_until(solver.now + bin_duration)
        snap = solver.snapshot()
        bins.append(DayBin(
            index=index,
            offered_load=load,
            antagonist_cores=antagonists,
            link_utilization=snap["wire_arrival_gbps"] * 1e9
            / config.link.rate_bps,
            drop_rate=snap["drop_rate"],
            app_throughput_gbps=snap["app_throughput_gbps"],
        ))
    return bins


def simulate_day(
    config: ExperimentConfig,
    schedule: Sequence[tuple],
    bin_duration: float = 5e-3,
    warmup_per_bin: float = 1e-3,
) -> List[DayBin]:
    """Run one host through ``schedule``; one :class:`DayBin` each.

    ``config.workload.offered_load`` must be set (open loop); the
    schedule overrides it per bin.  At packet fidelity the config must
    describe one receiver host on the star fabric.
    """
    if config.workload.offered_load is None:
        raise ValueError("simulate_day requires an open-loop workload "
                         "(set workload.offered_load)")
    if config.fidelity == "fluid":
        return _simulate_day_fluid(config, schedule, bin_duration,
                                   warmup_per_bin)
    require_single_star_host(config, "simulate_day")
    from repro.core.topology import Topology

    sim = Simulator()
    topology = Topology.build(sim, config)
    host = topology.host
    bins: List[DayBin] = []
    for index, (load, antagonists) in enumerate(schedule):
        topology.set_offered_load(load)
        host.antagonist.set_cores(antagonists)
        sim.run(until=sim.now + warmup_per_bin)
        host.reset_stats()
        sim.run(until=sim.now + bin_duration)
        bins.append(DayBin(
            index=index,
            offered_load=load,
            antagonist_cores=antagonists,
            link_utilization=host.wire_arrival_bps()
            / config.link.rate_bps,
            drop_rate=host.drop_rate(),
            app_throughput_gbps=host.app_throughput_bps() / 1e9,
        ))
    return bins
