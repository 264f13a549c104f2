"""Tests for the isolation study (victim RPCs on a congested host)."""

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.topology import Topology
from repro.sim import Simulator
from repro.workload.isolation import (
    IsolationResult,
    _add_victims,
    congested_vs_uncongested,
    run_isolation_study,
)


def config(cores=12, senders=8, seed=1):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=cores)),
        workload=WorkloadConfig(senders=senders),
        sim=SimConfig(warmup=2e-3, duration=4e-3, seed=seed),
    )


def test_victims_are_one_per_thread():
    topology = Topology.build(Simulator(), config(cores=3, senders=5))
    victims, elephants = _add_victims(topology)
    assert len(victims) == 3
    assert len(elephants) == 12
    for flow_id in victims:
        assert topology.receiver.per_flow_packets[flow_id] == 1


def test_requires_two_senders():
    with pytest.raises(ValueError):
        run_isolation_study(config(senders=1))


def test_study_produces_both_latency_classes():
    result = run_isolation_study(config())
    assert result.victim.count > 10
    assert result.elephant.count > 10
    # Single-MTU victim reads complete faster than 4-packet elephants
    # at the median.
    assert result.victim.p50 <= result.elephant.p50


def test_congestion_inflates_victim_tail():
    results = congested_vs_uncongested(config())
    congested = results["congested"]
    baseline = results["uncongested"]
    # The congested host drops packets; the baseline does not.
    assert congested.drop_rate > baseline.drop_rate
    # Victims pay for their neighbours: p99 blow-up at least 2x.
    assert congested.victim_penalty_p99(baseline) > 2.0


def test_penalty_requires_baseline_samples():
    result = run_isolation_study(config())
    empty = IsolationResult(
        victim=result.elephant.__class__(0, 0, 0, 0, 0, 0),
        elephant=result.elephant,
        drop_rate=0.0,
        app_throughput_gbps=0.0,
    )
    with pytest.raises(ValueError):
        result.victim_penalty_p99(empty)
