"""hostcongestion — packet-level simulation and analysis of host
interconnect congestion.

A faithful software reproduction of *"Understanding Host Interconnect
Congestion"* (Agarwal et al., HotNets '22): the full NIC→PCIe→IOMMU→
memory→CPU receive datapath, a Swift-style delay-based congestion
control (plus DCTCP/CUBIC baselines and the paper-§4 host-signal
extension), the paper's workloads, and one regeneration function per
evaluation figure.

Quick start::

    from repro import baseline_config, run_experiment

    result = run_experiment(baseline_config())
    print(result.metrics["app_throughput_gbps"])

Figure regeneration::

    from repro.analysis import figure3
    fig = figure3(quality="quick")
    print(fig.render())
"""

from repro.core.cache import ResultCache
from repro.core.config import (
    CpuConfig,
    DdioConfig,
    ExperimentConfig,
    HostConfig,
    IommuConfig,
    LinkConfig,
    MemoryConfig,
    NicConfig,
    PcieConfig,
    SimConfig,
    SwiftConfig,
    WorkloadConfig,
    baseline_config,
)
from repro.core.experiment import ExperimentHandle, run_experiment
from repro.core.model import ThroughputModel, modeled_app_throughput_bps
from repro.core.parallel import SweepRunError
from repro.core.results import ExperimentResult, FailedRun, ResultTable
from repro.core.scenario import (
    ScenarioError,
    ScenarioSpec,
    SweepAxis,
    bundled_scenarios,
    find_scenario,
    run_configs,
)
from repro.core.topology import Topology
from repro.obs import MetricsRegistry, SimProfiler, write_trace

__version__ = "1.0.0"

__all__ = [
    "CpuConfig",
    "DdioConfig",
    "ExperimentConfig",
    "ExperimentHandle",
    "ExperimentResult",
    "FailedRun",
    "HostConfig",
    "IommuConfig",
    "LinkConfig",
    "MemoryConfig",
    "MetricsRegistry",
    "NicConfig",
    "PcieConfig",
    "ResultCache",
    "ResultTable",
    "ScenarioError",
    "ScenarioSpec",
    "SimConfig",
    "SimProfiler",
    "SweepAxis",
    "SweepRunError",
    "SwiftConfig",
    "ThroughputModel",
    "Topology",
    "WorkloadConfig",
    "baseline_config",
    "bundled_scenarios",
    "find_scenario",
    "modeled_app_throughput_bps",
    "run_configs",
    "run_experiment",
    "write_trace",
]
