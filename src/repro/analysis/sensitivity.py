"""Sensitivity analysis of the analytical throughput model.

Which host parameter buys the most throughput back?  For each knob the
paper's §4 discusses (PCIe credits, DMA latency, walk latency, PCIe
goodput, IOTLB capacity via the miss rate), compute the local
elasticity of the Little's-law bound: the % change in throughput per
% change in the parameter, at a chosen operating point.

Pure model arithmetic — instant, no simulation — so it is usable for
capacity-planning sweeps (see ``examples/future_hosts.py``) and is
cross-checked against the simulator by the validation bench.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import ExperimentConfig
from repro.core.model import ThroughputModel
from repro.core.scenario import apply_overrides

__all__ = ["Elasticity", "sensitivity_analysis"]


@dataclass(frozen=True)
class Elasticity:
    """Local elasticity of app throughput w.r.t. one parameter."""

    parameter: str
    baseline_value: float
    baseline_gbps: float
    perturbed_gbps: float
    #: d(log throughput) / d(log parameter), two-sided estimate.
    elasticity: float

    def __str__(self) -> str:
        return (f"{self.parameter}: elasticity {self.elasticity:+.2f} "
                f"({self.baseline_gbps:.1f} → {self.perturbed_gbps:.1f} "
                f"Gbps at +10%)")


#: Where each parameter lives in the config tree, as a dotted path.
_PARAMETERS: Dict[str, str] = {
    "pcie_credits": "host.pcie.max_inflight_bytes",
    "dma_fixed_latency": "host.pcie.dma_fixed_latency",
    "pcie_goodput": "host.pcie.goodput_bps",
    "walk_latency": "host.memory.walk_base_latency",
    "core_rate": "host.cpu.core_rate_bps",
}


def _baseline_value(config: ExperimentConfig, parameter: str):
    try:
        path = _PARAMETERS[parameter]
    except KeyError:
        raise ValueError(f"unknown parameter {parameter!r}") from None
    return functools.reduce(getattr, path.split("."), config)


def _perturb_config(config: ExperimentConfig, parameter: str,
                    factor: float) -> ExperimentConfig:
    base = _baseline_value(config, parameter)
    value = type(base)(base * factor)
    overrides = {_PARAMETERS[parameter]: value}
    if parameter == "pcie_goodput":  # goodput may not exceed raw capacity
        overrides["host.pcie.raw_bps"] = max(config.host.pcie.raw_bps, value)
    return apply_overrides(config, overrides)


def sensitivity_analysis(
    config: ExperimentConfig,
    misses_per_packet: float,
    memory_utilization: float = 0.15,
    parameters: List[str] | None = None,
    step: float = 0.10,
) -> List[Elasticity]:
    """Two-sided elasticities at the given operating point.

    ``misses_per_packet`` pins the operating point (e.g. the measured
    value at 16 cores); a positive elasticity means "more of this
    parameter, more throughput".
    """
    if step <= 0 or step >= 1:
        raise ValueError(f"step must be in (0, 1), got {step}")
    names = parameters or list(_PARAMETERS)
    base = ThroughputModel(config).predict(
        misses_per_packet, memory_utilization)
    out: List[Elasticity] = []
    for name in names:
        up = ThroughputModel(
            _perturb_config(config, name, 1 + step)).predict(
            misses_per_packet, memory_utilization)
        down = ThroughputModel(
            _perturb_config(config, name, 1 - step)).predict(
            misses_per_packet, memory_utilization)
        # Two-sided log-derivative estimate.
        elasticity = (math.log(up) - math.log(down)) / (
            math.log(1 + step) - math.log(1 - step))
        out.append(Elasticity(
            parameter=name,
            baseline_value=float(_baseline_value(config, name)),
            baseline_gbps=base / 1e9,
            perturbed_gbps=up / 1e9,
            elasticity=elasticity,
        ))
    return sorted(out, key=lambda e: abs(e.elasticity), reverse=True)
