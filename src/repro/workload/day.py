"""A host's day: time-varying load, binned measurements (Fig. 1's
footnote: "Data collected over a 24-hour period, and binned at a
10-minute granularity").

One receiver host is simulated through a schedule of bins; in each bin
the open-loop offered load and the memory-antagonist intensity change
(diurnal pattern plus noise), and the host's (link utilization, drop
rate) is measured per bin — yielding Fig. 1-style scatter points from
a *single* host over time, complementary to the cross-sectional fleet
sampler.  The loop is written once over a run handle, so it runs the
same at either fidelity: one handle is carried across bins (CC and
queue state persist), and each bin sets its load and antagonist, warms
up, restarts the window counters and measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import ExperimentConfig
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
    n_bins: int = 24,
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


def simulate_day(
    config: ExperimentConfig,
    schedule: Sequence[tuple],
    bin_duration: float = 5e-3,
    warmup_per_bin: float = 1e-3,
) -> List[DayBin]:
    """Run one host through ``schedule``; one :class:`DayBin` each.

    ``config.workload.offered_load`` must be set (open loop); the
    schedule overrides it per bin.  At either fidelity the config must
    describe one receiver host on the star fabric.
    """
    require_single_star_host(config, "simulate_day")
    # Local import: the workload layer sits below core.
    from repro.core.experiment import build_handle

    handle = build_handle(config)
    bins: List[DayBin] = []
    for index, (load, antagonists) in enumerate(schedule):
        handle.set_offered_load(load)
        handle.set_antagonist_cores(antagonists)
        handle.run_until(handle.now + warmup_per_bin)
        handle.reset_window()
        handle.run_until(handle.now + bin_duration)
        window = handle.window()
        bins.append(DayBin(
            index=index,
            offered_load=load,
            antagonist_cores=antagonists,
            link_utilization=window["link_utilization"],
            drop_rate=window["drop_rate"],
            app_throughput_gbps=window["app_throughput_gbps"],
        ))
    return bins
