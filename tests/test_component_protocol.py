"""Unit tests for the SimComponent protocol and Component recursion."""

import dataclasses

from repro.core.config import baseline_config
from repro.core.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.sim import Component, SimComponent, Simulator, join_name


# -- join_name ---------------------------------------------------------------


def test_join_name_composes_paths():
    assert join_name("host0", "nic") == "host0/nic"
    assert join_name("host0/nic", "buffer") == "host0/nic/buffer"


def test_join_name_empty_is_identity():
    assert join_name("", "nic") == "nic"
    assert join_name("host0", "") == "host0"
    assert join_name("", "") == ""


# -- recursion over a fake tree ----------------------------------------------


class Leaf(Component):
    def __init__(self, label):
        self.label = label
        self.resets = 0
        self.bound_names = []

    def bind_own_metrics(self, registry, name):
        self.bound_names.append(name)
        registry.counter("events", component=name)

    def reset_own_stats(self):
        self.resets += 1

    def own_snapshot(self):
        return {"resets": self.resets}


class Pair(Component):
    def __init__(self, label, left, right):
        self.label = label
        self.left = left
        self.right = right

    def children(self):
        return (("left", self.left), ("right", self.right))


def make_tree():
    a, b, c = Leaf("a"), Leaf("b"), Leaf("c")
    root = Pair("root", Pair("inner", a, b), c)
    return root, (a, b, c)


def test_reset_stats_hits_every_leaf_exactly_once():
    root, leaves = make_tree()
    root.reset_stats()
    assert [leaf.resets for leaf in leaves] == [1, 1, 1]
    root.reset_stats()
    assert [leaf.resets for leaf in leaves] == [2, 2, 2]


def test_bind_metrics_namespaces_by_path():
    root, leaves = make_tree()
    registry = MetricsRegistry()
    root.bind_metrics(registry, "root")
    assert [leaf.bound_names for leaf in leaves] == [
        ["root/left/left"], ["root/left/right"], ["root/right"]]
    assert "root/right.events" in registry


def test_bind_metrics_empty_name_uses_label():
    leaf = Leaf("nic")
    registry = MetricsRegistry()
    leaf.bind_metrics(registry)
    assert leaf.bound_names == ["nic"]
    assert "nic.events" in registry


def test_snapshot_merges_children_by_relative_path():
    root, _ = make_tree()
    snap = root.snapshot()
    assert snap == {"left/left/resets": 0, "left/right/resets": 0,
                    "right/resets": 0}


def test_describe_reports_tree_shape():
    root, _ = make_tree()
    doc = root.describe()
    assert doc["type"] == "Pair"
    assert set(doc["children"]) == {"left", "right"}
    assert doc["children"]["left"]["children"]["right"]["label"] == "b"


# -- the real graph ----------------------------------------------------------


def _quick_config(receivers=1):
    base = baseline_config(warmup=1e-3, duration=2e-3)
    return dataclasses.replace(
        base,
        workload=dataclasses.replace(base.workload, receivers=receivers))


def _walk(component, out=None):
    out = out if out is not None else []
    out.append(component)
    for _, child in component.children():
        _walk(child, out)
    return out


def test_topology_nodes_implement_protocol():
    topology = Topology.build(Simulator(), _quick_config())
    for node in _walk(topology):
        assert isinstance(node, SimComponent), type(node).__name__
        assert isinstance(node, Component), type(node).__name__


def test_topology_walk_reaches_every_leaf_exactly_once():
    topology = Topology.build(Simulator(), _quick_config())
    nodes = _walk(topology)
    ids = [id(node) for node in nodes]
    assert len(ids) == len(set(ids)), "a component appears twice"
    host = topology.host
    for leaf in (host.nic, host.pcie, host.iommu, host.iotlb,
                 host.memory, host.copy_model, topology.receiver,
                 topology.fabric.ports[0], *host.threads):
        assert sum(1 for node in nodes if node is leaf) == 1, leaf


def test_topology_rebinds_cleanly_on_fresh_registry():
    topology = Topology.build(Simulator(), _quick_config())
    topology.bind_metrics(MetricsRegistry())
    # A second registry is a fresh namespace: no duplicate errors.
    registry = MetricsRegistry()
    topology.bind_metrics(registry)
    assert "nic.rx_packets" in registry
    assert "transport.mean_cwnd" in registry
    assert "receiver.messages_completed" in registry
    assert "fabric.fabric_drops" in registry


def test_multi_host_binding_prefixes_each_host():
    topology = Topology.build(Simulator(), _quick_config(receivers=2))
    registry = MetricsRegistry()
    topology.bind_metrics(registry)
    for name in ("host0/nic.rx_packets", "host1/nic.rx_packets",
                 "host0.app_throughput_gbps", "host1.app_throughput_gbps",
                 "host0/transport.mean_cwnd", "fabric.fabric_drops"):
        assert name in registry, name
