"""Topology and fabric validation, and multi-receiver topology end-to-end."""

import dataclasses

import pytest

from repro.core.config import (
    ExperimentConfig,
    WorkloadConfig,
    baseline_config,
)
from repro.core.experiment import run_experiment
from repro.core.scenario import run_configs
from repro.core.topology import Topology
from repro.net.fabric import Fabric
from repro.net.plan import star_plan
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator


def quick_config(receivers=1, **sim_overrides):
    base = baseline_config(warmup=1e-3, duration=2e-3, **sim_overrides)
    return dataclasses.replace(
        base,
        workload=dataclasses.replace(base.workload, receivers=receivers))


# -- config / fabric validation ----------------------------------------------


def test_config_rejects_zero_receivers():
    with pytest.raises(ValueError, match="at least one receiver"):
        ExperimentConfig(workload=WorkloadConfig(receivers=0))


def test_fabric_rejects_empty_receiver_list():
    with pytest.raises(ValueError, match="at least one receiver"):
        star_plan(1, 0)


def test_fabric_rejects_receivers_the_plan_does_not_have():
    with pytest.raises(ValueError, match="2 receiver callbacks"):
        Fabric(Simulator(), ExperimentConfig(), star_plan(1, 1),
               [lambda pkt: None, lambda pkt: None])


def test_fabric_rejects_flow_routed_to_unknown_host():
    fabric = Fabric(Simulator(), ExperimentConfig(), star_plan(2, 2),
                    [lambda pkt: None, lambda pkt: None])
    fabric.register_flow(0, lambda ack: None, host=1)
    with pytest.raises(ValueError, match="routed to unknown host"):
        fabric.register_flow(1, lambda ack: None, host=2)


def test_fabric_rejects_duplicate_flow():
    fabric = Fabric(Simulator(), ExperimentConfig(), star_plan(1, 1),
                    [lambda pkt: None])
    fabric.register_flow(7, lambda ack: None)
    with pytest.raises(ValueError, match="already registered"):
        fabric.register_flow(7, lambda ack: None)


# -- multi-receiver end to end -----------------------------------------------


def test_two_receiver_run_namespaces_and_completes():
    config = quick_config(receivers=2)
    handles = []
    result = run_experiment(config, handle_out=handles)
    handle = handles[0]
    snapshot = handle.metrics.snapshot()
    for name in ("host0/nic.rx_packets", "host1/nic.rx_packets"):
        assert name in snapshot["counters"], name
        assert snapshot["counters"][name] > 0, name
    for name in ("host0.app_throughput_gbps", "host1.app_throughput_gbps"):
        assert name in snapshot["gauges"], name
    assert result.metrics["messages_completed"] > 0
    assert result.params["receivers"] == 2
    assert handle.topology.n_receivers == 2


def test_prefix_snapshot_selects_one_host_subtree():
    handles = []
    run_experiment(quick_config(receivers=2), handle_out=handles)
    subtree = handles[0].metrics.snapshot(prefix="host1/")
    assert subtree["counters"], "host1/ subtree is empty"
    assert all(name.startswith("host1/")
               for kind in ("counters", "gauges", "histograms")
               for name in subtree[kind])


def test_hosts_are_independent():
    """Congestion is a per-host phenomenon: each of M hosts sees its
    own senders-way incast, so per-host throughput stays close to the
    single-host value."""
    single = run_experiment(quick_config(receivers=1))
    handles = []
    double = run_experiment(quick_config(receivers=2), handle_out=handles)
    per_host = [host.snapshot()["app_throughput_gbps"]
                for host in handles[0].topology.hosts]
    baseline = single.metrics["app_throughput_gbps"]
    assert double.metrics["app_throughput_gbps"] > baseline * 1.5
    for tput in per_host:
        assert tput == pytest.approx(baseline, rel=0.15)


def test_topology_compat_surface():
    topology = Topology.build(Simulator(), quick_config(receivers=2))
    assert topology.host is topology.hosts[0]
    assert topology.receiver is topology.workloads[0].receiver
    per_host = topology.config.workload.senders * 12  # 12 cores
    assert len(topology.connections) == 2 * per_host


# -- sweep -------------------------------------------------------------------


def test_sweep_receivers_parallel_equals_serial():
    configs = [quick_config(receivers=m) for m in (1, 2)]
    serial = run_configs(configs)
    parallel = run_configs(configs, workers=2)
    assert serial == parallel
    assert [row.params["receivers"] for row in serial] == [1, 2]


def test_single_host_keeps_flat_metric_names():
    topology = Topology.build(Simulator(), quick_config(receivers=1))
    registry = MetricsRegistry()
    topology.bind_metrics(registry)
    assert "nic.rx_packets" in registry
    assert "host.app_throughput_gbps" in registry
    assert not any(name.startswith("host0") for name in registry.names())
