"""Workload generators: the paper's remote-read incast, the Fig. 1
fleet sampler, the one-host-day time series, and the isolation study."""

from repro.workload.day import DayBin, diurnal_schedule, simulate_day
from repro.workload.fleet import FleetSample, FleetSampler
from repro.workload.isolation import IsolationResult, run_isolation_study

__all__ = [
    "DayBin",
    "FleetSample",
    "FleetSampler",
    "IsolationResult",
    "diurnal_schedule",
    "run_isolation_study",
    "simulate_day",
]
