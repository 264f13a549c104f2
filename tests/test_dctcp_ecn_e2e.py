"""End-to-end ECN behaviour: DCTCP vs fabric vs host congestion."""


import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    LinkConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.experiment import ExperimentHandle, run_experiment


def test_dctcp_controls_fabric_congestion_with_ecn():
    """With a slow fabric link, the switch queue is the bottleneck:
    DCTCP's ECN loop must keep it near the marking threshold instead
    of filling the 32 MB buffer."""
    config = ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=8)),
        link=LinkConfig(rate_bps=25e9, ecn_threshold_bytes=100_000),
        workload=WorkloadConfig(senders=8),
        transport="dctcp",
        sim=SimConfig(warmup=4e-3, duration=6e-3, seed=1))
    handle = ExperimentHandle(config)
    handle.run_warmup()
    handle.run_measurement()
    result = handle.collect()
    # Near-full fabric utilization...
    assert result.metrics["app_throughput_gbps"] > 18
    # ...without a runaway switch queue (stays within a few x of K).
    assert handle.topology.fabric.switch_queue_bytes() < 800_000
    assert result.metrics["fabric_drops"] == 0


def test_dctcp_blind_to_host_congestion():
    """The paper's point applied to DCTCP: host congestion produces no
    ECN marks, so DCTCP drops at the NIC just like (or worse than) a
    delay-based protocol."""
    def run(transport):
        config = ExperimentConfig(
            host=HostConfig(cpu=CpuConfig(cores=12)),
            transport=transport,
            sim=SimConfig(warmup=3e-3, duration=5e-3, seed=1))
        return run_experiment(config)

    dctcp = run("dctcp")
    assert dctcp.metrics["drop_rate"] > 0.01
    # And the drops are at the host, not the fabric.
    assert dctcp.metrics["fabric_drops"] == 0


def test_ecn_threshold_validated():
    with pytest.raises(ValueError):
        LinkConfig(ecn_threshold_bytes=0)
