"""Fluid fabric profile: the calibrated aggregate stage must route
over the packet engine's multi-tier plan, not approximate it.

For static and ECMP routing the per-path flow counts come from the
*same* plan and ``repro.net.routing`` policy the packet fabric uses,
so the profile's capacity shares are exact.  These tests check the
profile against the paths a built packet fabric actually picks, which
is the contract that keeps ``analysis/xval`` honest.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.config import ExperimentConfig, FabricConfig
from repro.core.topology import Topology
from repro.net.plan import build_fabric_plan
from repro.net.routing import create_policy
from repro.sim import Simulator
from repro.sim.fluid import FabricProfile, FluidRun, fluid_fabric_profile


def make_config(topology, routing, *, seed=1, senders=4, cores=2,
                **fabric_kwargs):
    cfg = ExperimentConfig(
        fabric=FabricConfig(topology=topology, routing=routing,
                            **fabric_kwargs))
    return dataclasses.replace(
        cfg,
        host=dataclasses.replace(
            cfg.host, cpu=dataclasses.replace(cfg.host.cpu,
                                              cores=cores)),
        workload=dataclasses.replace(cfg.workload, senders=senders),
        sim=dataclasses.replace(cfg.sim, seed=seed))


class TestStar:
    def test_star_has_no_fabric_stage(self):
        assert fluid_fabric_profile(ExperimentConfig()) is None


class TestDumbbellProfile:
    def test_static_funnels_everything_onto_trunk_zero(self):
        config = make_config("dumbbell", "static", trunk_links=2)
        profile = fluid_fabric_profile(config)
        assert isinstance(profile, FabricProfile)
        assert profile.free_fraction == 0.0
        assert len(profile.terms) == 1
        frac, cap, buf = profile.terms[0]
        assert frac == 1.0  # every flow rides the one selected trunk
        assert cap == pytest.approx(
            config.fabric.uplink_scale * config.link.rate_bps)
        assert buf == float(config.link.switch_buffer_bytes)

    def test_ecmp_counts_match_the_shared_routing_hash(self):
        """The exactness claim: per-trunk flow fractions equal what an
        independent policy instance (same seed) assigns."""
        config = make_config("dumbbell", "ecmp", seed=1, senders=8,
                             cores=2, trunk_links=2)
        profile = fluid_fabric_profile(config)
        n_h = 16
        policy = create_policy("ecmp", seed=config.sim.seed)
        counts = Counter(policy.select(f, 2, 0.0) for f in range(n_h))
        expected = sorted(counts[t] / n_h for t in range(2))
        assert sorted(t[0] for t in profile.terms) \
            == pytest.approx(expected)
        # seed 1 splits 16 flows unevenly — the imbalance the dumbbell
        # scenario's ECMP-vs-flowlet discrimination rests on
        assert profile.terms[0][0] != profile.terms[1][0]

    def test_flowlet_is_the_ideal_uniform_balance(self):
        config = make_config("dumbbell", "flowlet", trunk_links=4)
        profile = fluid_fabric_profile(config)
        assert len(profile.terms) == 4
        cap_link = config.fabric.uplink_scale * config.link.rate_bps
        for frac, cap, _ in profile.terms:
            assert frac == pytest.approx(1.0 / 4)
            # sole receiver owns every flow on each trunk, so each
            # term sees the trunk's full capacity
            assert cap == pytest.approx(cap_link)

    def test_capacity_share_follows_flow_share(self):
        """A trunk's capacity term scales by this host's share of the
        flows on it — with one receiver that share is 1."""
        config = make_config("dumbbell", "ecmp", seed=1, trunk_links=2)
        profile = fluid_fabric_profile(config)
        cap_link = config.fabric.uplink_scale * config.link.rate_bps
        for _frac, cap, _buf in profile.terms:
            assert cap == pytest.approx(cap_link)


class TestFattreeProfile:
    def test_free_fraction_counts_same_edge_flows(self):
        """Flows whose sender lands on the receiver's edge switch never
        cross a constrained link.  With k=4 (8 edges), receiver 0 on
        edge 0, senders 0..7 round-robin over edges: exactly sender 0
        is co-located, for every core's copy of the flow set."""
        config = make_config("fattree", "ecmp", senders=8, cores=2,
                             fattree_k=4)
        profile = fluid_fabric_profile(config)
        assert profile.free_fraction == pytest.approx(1.0 / 8)

    def test_terms_conserve_the_loaded_fraction(self):
        config = make_config("fattree", "ecmp", senders=8, cores=2,
                             fattree_k=4)
        profile = fluid_fabric_profile(config)
        assert sum(t[0] for t in profile.terms) + profile.free_fraction \
            == pytest.approx(1.0)

    def test_flowlet_spreads_over_both_downlinks(self):
        config = make_config("fattree", "flowlet", senders=8, cores=2,
                             fattree_k=4)
        profile = fluid_fabric_profile(config)
        loaded = 1.0 - profile.free_fraction
        assert len(profile.terms) == 2  # one per agg in the dest pod
        for frac, _cap, _buf in profile.terms:
            assert frac == pytest.approx(loaded / 2)


def packet_picked_terms(config):
    """The profile's terms, read off a built packet fabric.

    Every sender link's ingress is wrapped to record the path the
    fabric's own path group and routing policy pick for each flow's
    first packet; each flow is then charged to the last inter-switch
    port of that path (none: a same-edge flow, counted as free)."""
    sim = Simulator()
    topology = Topology.build(sim, config)
    fabric = topology.fabric
    picked = {}
    for link in fabric.sender_links:
        def record(pkt, ingress=link.deliver):
            ingress(pkt)
            picked.setdefault(pkt.flow_id, fabric.paths[pkt.path][:-1])
        link.deliver = record
    sim.run(until=20e-6)
    receivers = topology.n_receivers
    per_host = [Counter() for _ in range(receivers)]
    free = 0
    for h, workload in enumerate(topology.workloads):
        for conn in workload.connections:
            links = picked[conn.flow_id]
            if links:
                per_host[h][links[-1]] += 1
            else:
                free += 1
    n_h = len(topology.workloads[0].connections)
    totals = sum(per_host, Counter())
    terms = sorted(
        (count / n_h / receivers,
         port.rate_bps * (count / totals[port]) / receivers,
         port.queue.capacity_bytes / receivers)
        for counts in per_host for port, count in counts.items())
    return terms, free / (n_h * receivers)


class TestProfileMatchesThePacketFabric:
    @pytest.mark.parametrize("topology,fabric_kwargs", [
        ("fattree", {"fattree_k": 4}),
        ("dumbbell", {"trunk_links": 2}),
    ], ids=["fattree", "dumbbell"])
    def test_ecmp_link_fractions_match_the_packet_picks(
            self, topology, fabric_kwargs):
        """Per receiver-side link flow fractions, capacity shares and
        buffer shares equal what the packet engine's own routing puts
        on each port, with two receivers sharing the fabric.  Six
        senders per host over a k=4 tree's eight edges put the two
        hosts' senders on different edges."""
        config = make_config(topology, "ecmp", seed=3, senders=6,
                             cores=2, **fabric_kwargs)
        config = dataclasses.replace(
            config, workload=dataclasses.replace(config.workload,
                                                 receivers=2))
        profile = fluid_fabric_profile(config)
        terms, free = packet_picked_terms(config)
        assert len(profile.terms) == len(terms)
        assert list(profile.terms) == [pytest.approx(t) for t in terms]
        assert profile.free_fraction == pytest.approx(free)


def flow_by_flow_profile(config):
    """The profile by its definition: every flow in packet-id order
    adds ``1/d`` to each of the ``d`` receiver-side links it may take
    (flowlet's even split) or 1.0 to the one its routing hash picks,
    in that order, so float sums round as the definition's do."""
    plan = build_fabric_plan(config)
    senders, receivers = config.workload.senders, config.workload.receivers
    n_h = config.host.cpu.cores * senders
    policy = create_policy(config.fabric.routing, seed=config.sim.seed)
    loads = [{} for _ in range(receivers)]
    totals, free = {}, [0.0] * receivers
    for h in range(receivers):
        for f in range(n_h):
            key = (plan.sender_edge[h * senders + f % senders], h)
            links = [next((i for kind, i in reversed(path)
                           if kind == "link"), None)
                     for path in plan.paths[key]]
            if config.fabric.routing == "flowlet":
                picked = list(dict.fromkeys(links))
            else:
                picked = [links[policy.select(h * n_h + f, len(links), 0.0)
                                if len(links) > 1 else 0]]
            for link in picked:
                if link is None:
                    free[h] += 1.0 / len(picked)
                else:
                    loads[h][link] = loads[h].get(link, 0.0) \
                        + 1.0 / len(picked)
                    totals[link] = totals.get(link, 0.0) \
                        + 1.0 / len(picked)
    buf = float(config.fabric.buffer_bytes or
                config.link.switch_buffer_bytes)
    terms = sorted(
        (n / n_h / receivers,
         plan.links[link][2] * config.link.rate_bps * (n / totals[link])
         / receivers,
         buf / receivers)
        for h in range(receivers) for link, n in loads[h].items())
    return FabricProfile(tuple(terms), sum(free) / (n_h * receivers))


class TestFlowByFlowOracle:
    @pytest.mark.parametrize("routing", ["static", "ecmp", "flowlet"])
    @pytest.mark.parametrize("topology,fabric_kwargs", [
        ("fattree", {"fattree_k": 4}),
        ("fattree", {"fattree_k": 6}),
        ("dumbbell", {"trunk_links": 3}),
    ], ids=["k4", "k6", "dumbbell3"])
    def test_profile_equals_the_flow_by_flow_walk(
            self, topology, fabric_kwargs, routing):
        """Exact ``==``: the profile counts and repeats where the
        definition walks flow by flow.  A k=6 tree's flowlet weights
        are thirds, whose float sums depend on the order of adding."""
        for seed, senders, cores, receivers in (
                (1, 40, 2, 1), (2, 40, 5, 3), (17, 7, 3, 2)):
            config = make_config(topology, routing, seed=seed,
                                 senders=senders, cores=cores,
                                 **fabric_kwargs)
            config = dataclasses.replace(
                config, workload=dataclasses.replace(
                    config.workload, receivers=receivers))
            assert fluid_fabric_profile(config) == \
                flow_by_flow_profile(config)


class TestFluidRunFabricFields:
    def test_defaults_are_zero(self):
        run = FluidRun()
        assert run.fabric_offered_packets == 0.0
        assert run.fabric_dropped_packets == 0.0
