"""Multi-tier fabrics: plan construction, per-hop drop accounting,
snapshot-tree exposure, and bit-identical parallel execution.

The determinism contracts are the load-bearing ones: a fat-tree run
must produce the *same* result table whether it executes serially, in
worker processes, or split across separate invocations, because every
path choice flows through the seeded ``stable_hash`` — never the
interpreter's ``hash()`` or iteration order of an unordered container.
"""

import dataclasses

import pytest

from repro.core.config import ExperimentConfig, FabricConfig
from repro.core.experiment import ExperimentHandle
from repro.core.scenario import run_configs
from repro.net.packet import Packet
from repro.net.plan import (
    build_fabric_plan,
    dumbbell_plan,
    fattree_plan,
    star_plan,
)
from repro.net.switch import Switch, SwitchPort
from repro.sim import Simulator


def pkt(seq=0, wire=4452, flow=0):
    return Packet(flow_id=flow, seq=seq, payload_bytes=4096,
                  wire_bytes=wire, sent_time=0.0, thread_id=0)


def multitier_config(topology="fattree", routing="ecmp", *, seed=1,
                     senders=4, cores=2, **fabric_kwargs):
    cfg = ExperimentConfig(
        fabric=FabricConfig(topology=topology, routing=routing,
                            **fabric_kwargs))
    cfg = dataclasses.replace(
        cfg,
        host=dataclasses.replace(
            cfg.host, cpu=dataclasses.replace(cfg.host.cpu,
                                              cores=cores)),
        workload=dataclasses.replace(cfg.workload, senders=senders),
        sim=dataclasses.replace(cfg.sim, warmup=0.5e-3,
                                duration=1e-3, seed=seed))
    return cfg


class TestFattreePlan:
    def test_k4_shape(self):
        plan = fattree_plan(4, n_senders=40, n_hosts=1)
        tiers = [tier for _, tier in plan.switches]
        assert tiers.count("edge") == 8
        assert tiers.count("agg") == 8
        assert tiers.count("core") == 4
        # every edge<->agg pair in-pod plus agg<->core, both directions
        assert len(plan.links) == 64
        assert plan.max_hops == 5

    def test_equal_cost_group_sizes(self):
        """Same-edge 1 path, same-pod k/2, cross-pod (k/2)^2."""
        plan = fattree_plan(4, n_senders=40, n_hosts=1)
        sizes = {src: len(group)
                 for (src, _h), group in plan.paths.items()}
        assert sizes[0] == 1          # host 0 also lives on edge 0
        assert sizes[1] == 2          # edge 1 is in pod 0 with edge 0
        assert all(sizes[e] == 4 for e in range(2, 8))

    def test_round_robin_endpoint_placement(self):
        plan = fattree_plan(4, n_senders=10, n_hosts=3)
        assert plan.sender_edge == (0, 1, 2, 3, 4, 5, 6, 7, 0, 1)
        assert plan.host_edge == (0, 1, 2)

    def test_odd_arity_rejected(self):
        with pytest.raises(ValueError, match="even"):
            fattree_plan(3, n_senders=4, n_hosts=1)

    def test_paths_end_at_the_host_port(self):
        plan = fattree_plan(4, n_senders=8, n_hosts=2)
        for (_src, host), group in plan.paths.items():
            for path in group:
                assert path[-1] == ("host", host)


class TestDumbbellPlan:
    def test_shape(self):
        plan = dumbbell_plan(3, n_senders=8, n_hosts=2)
        assert [t for _, t in plan.switches] == ["edge", "edge"]
        assert len(plan.links) == 3
        assert plan.host_ports == ((1, 0), (1, 1))
        assert all(len(group) == 3 for group in plan.paths.values())
        assert plan.max_hops == 2

    def test_needs_a_trunk(self):
        with pytest.raises(ValueError):
            dumbbell_plan(0, n_senders=2, n_hosts=1)


class TestBuildFabricPlan:
    def test_dispatch(self):
        fattree = build_fabric_plan(
            multitier_config("fattree", fattree_k=4))
        assert len(fattree.switches) == 20
        dumbbell = build_fabric_plan(
            multitier_config("dumbbell", trunk_links=2))
        assert len(dumbbell.switches) == 2

    def test_endpoint_counts_come_from_the_workload(self):
        """``senders`` machines per receiver host, disjoint per host."""
        config = multitier_config("fattree", senders=5, fattree_k=4)
        config = dataclasses.replace(
            config, workload=dataclasses.replace(config.workload,
                                                 receivers=3))
        plan = build_fabric_plan(config)
        assert len(plan.sender_edge) == 15
        assert len(plan.host_edge) == 3

    def test_star_is_a_one_switch_plan(self):
        """One unnamed switch, one egress port per host, every sender
        on it, and each host's group the single direct path."""
        config = ExperimentConfig()
        config = dataclasses.replace(
            config, workload=dataclasses.replace(config.workload,
                                                 receivers=2))
        plan = build_fabric_plan(config)
        n_senders = 2 * config.workload.senders
        assert plan is star_plan(n_senders, 2)
        assert plan.switches == (("", "edge"),)
        assert plan.links == ()
        assert plan.host_ports == ((0, 0), (0, 1))
        assert plan.sender_edge == (0,) * n_senders
        assert plan.host_edge == (0, 0)
        assert plan.paths == {(0, 0): ((("host", 0),),),
                              (0, 1): ((("host", 1),),)}
        assert plan.max_hops == 1


class TestPerPortDropAccounting:
    def make_port(self, buffer_bytes=10000):
        sim = Simulator()
        got = []
        port = SwitchPort(sim, rate_bps=100e9,
                          buffer_bytes=buffer_bytes, prop_delay=1e-6,
                          deliver=got.append, name="left->right")
        return sim, port, got

    def test_drops_charged_to_the_port(self):
        sim, port, got = self.make_port()
        for i in range(5):
            port.enqueue(pkt(i))
        sim.run()
        assert port.dropped_packets >= 1
        assert port.dropped_bytes == port.dropped_packets * 4452
        assert port.dropped == port.dropped_packets
        assert port.forwarded == len(got)

    def test_own_snapshot_carries_drop_and_occupancy(self):
        sim, port, _ = self.make_port()
        for i in range(5):
            port.enqueue(pkt(i))
        sim.run()
        snap = port.own_snapshot()
        assert snap["dropped"] == float(port.dropped_packets)
        assert snap["dropped_bytes"] == float(port.dropped_bytes)
        assert snap["forwarded"] == float(port.forwarded)
        assert snap["peak_queue_bytes"] > 0
        assert snap["queue_depth_bytes"] == 0.0

    def test_reset_keeps_whole_run_counts(self):
        sim, port, _ = self.make_port()
        for i in range(5):
            port.enqueue(pkt(i))
        sim.run()
        before = port.dropped_packets
        port.reset_stats()
        assert port.dropped_packets == before

    def test_switch_rolls_up_its_ports(self):
        sim = Simulator()
        sink = []
        switch = Switch("agg1", "agg")
        for i in range(2):
            switch.add_port(f"port{i}", SwitchPort(
                sim, rate_bps=100e9, buffer_bytes=10000,
                prop_delay=1e-6, deliver=sink.append))
        for i in range(5):
            switch.ports[0].enqueue(pkt(i))
        sim.run()
        assert switch.dropped() == switch.ports[0].dropped_packets
        assert switch.tier == "agg"
        assert [name for name, _ in switch.children()] \
            == ["port0", "port1"]


class TestSnapshotTree:
    def test_per_hop_metrics_in_the_snapshot(self):
        """The acceptance surface: a dumbbell run exposes
        ``fabric/<switch>/<port>.dropped`` (and friends) in the
        metrics snapshot, and the fabric root counter equals the
        per-port sum."""
        config = multitier_config(
            "dumbbell", "static", trunk_links=2, uplink_scale=0.05,
            buffer_bytes=60000, senders=8, cores=2)
        handle = ExperimentHandle(config)
        handle.run_measurement()
        snap = handle.metrics_snapshot()
        counters = snap["counters"]
        assert "fabric/left/port0.dropped" in counters
        assert "fabric/left/port1.forwarded" in counters
        assert "fabric/right/port0.forwarded" in counters
        assert "fabric/left/port0.peak_queue_bytes" in snap["gauges"]
        per_port = sum(v for k, v in counters.items()
                       if k.startswith("fabric/") and
                       k.endswith(".dropped"))
        assert counters["fabric.fabric_drops"] == per_port
        assert per_port > 0  # the squeezed trunk actually dropped

    def test_fattree_namespaces_every_tier(self):
        config = multitier_config("fattree", "ecmp", fattree_k=4)
        handle = ExperimentHandle(config)
        handle.run_measurement()
        counters = handle.metrics_snapshot()["counters"]
        for prefix in ("fabric/edge0/", "fabric/agg0/",
                       "fabric/core0/"):
            assert any(k.startswith(prefix) for k in counters), prefix


class TestParallelDeterminism:
    def configs(self, routing):
        return [multitier_config("fattree", routing, seed=seed)
                for seed in (1, 2)]

    @pytest.mark.parametrize("routing", ["ecmp", "flowlet"])
    def test_bit_identical_across_worker_counts(self, routing):
        serial = run_configs(self.configs(routing), workers=1)
        parallel = run_configs(self.configs(routing), workers=4)
        assert [r.metrics for r in serial] \
            == [r.metrics for r in parallel]
        assert [r.params for r in serial] \
            == [r.params for r in parallel]

    def test_bit_identical_across_shards(self):
        """Splitting a sweep into separate invocations (shards) must
        not change any row: path hashing is seeded per run, never
        shared across a process's lifetime."""
        configs = self.configs("ecmp")
        whole = run_configs(configs, workers=1)
        sharded = [row
                   for shard in (configs[:1], configs[1:])
                   for row in run_configs(shard, workers=1)]
        assert [r.metrics for r in whole] \
            == [r.metrics for r in sharded]

    def test_repeat_run_is_identical_in_process(self):
        config = multitier_config("fattree", "flowlet")
        first = ExperimentHandle(config)
        first.run_measurement()
        second = ExperimentHandle(config)
        second.run_measurement()
        assert first.collect().metrics == second.collect().metrics
