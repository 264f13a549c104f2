"""Tests for the isolation study (victim RPCs on a congested host)."""

import dataclasses

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.experiment import ExperimentHandle
from repro.workload.isolation import (
    _VICTIM_SENDER,
    IsolationResult,
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
    handle = ExperimentHandle(config(cores=3, senders=5))
    handle.set_read_packets(_VICTIM_SENDER, 1)
    topology = handle.topology
    read_packets = topology.receiver.per_flow_packets
    victims = [c.flow_id for c in topology.connections
               if c.flow_id in read_packets]
    elephants = [c.flow_id for c in topology.connections
                 if c.flow_id not in read_packets]
    assert len(victims) == 3
    assert len(elephants) == 12
    for flow_id in victims:
        assert read_packets[flow_id] == 1


def test_requires_two_senders():
    with pytest.raises(ValueError):
        run_isolation_study(config(senders=1))


@pytest.mark.parametrize("fidelity", ["packet", "fluid"])
def test_requires_elephants_larger_than_victims(fidelity):
    # Victims issue one-packet reads; one-packet elephants would make
    # the two latency classes one.
    one_packet = dataclasses.replace(
        config(), fidelity=fidelity,
        workload=WorkloadConfig(senders=8, read_size_bytes=4096))
    with pytest.raises(ValueError, match="multi-packet reads"):
        run_isolation_study(one_packet)


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
