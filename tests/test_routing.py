"""Routing policies: deterministic hashing, the registry, and the
flowlet gap-threshold state machine.

The load-bearing property is *bit-identical path selection* across
processes, worker counts, and ``PYTHONHASHSEED`` values: every policy
hashes with the explicit splitmix64 fold in ``stable_hash``, never the
interpreter's ``hash()``, and takes simulation time as an argument
instead of reading a clock.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.net.routing import (
    EcmpRouting,
    FlowletRouting,
    StaticRouting,
    available,
    create_policy,
    register_policy,
    stable_hash,
)

GAP = 100e-6


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash(1, 2, 3) == stable_hash(1, 2, 3)

    def test_sensitive_to_every_part(self):
        base = stable_hash(1, 2, 3)
        assert stable_hash(9, 2, 3) != base
        assert stable_hash(1, 9, 3) != base
        assert stable_hash(1, 2, 9) != base

    def test_64_bit_range(self):
        for parts in [(0,), (1, 2), (2**63, 17)]:
            assert 0 <= stable_hash(*parts) < 2**64

    def test_independent_of_pythonhashseed(self):
        """The property built-in hash() cannot give: the same value in
        a subprocess with a different PYTHONHASHSEED."""
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.net.routing import stable_hash; "
             "print(stable_hash(7, 42, 3))"],
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
            capture_output=True, text=True, check=True)
        assert int(out.stdout) == stable_hash(7, 42, 3)

    def test_spreads_consecutive_flow_ids(self):
        """Consecutive ids must not alias onto one path (the pattern
        real incasts generate: flow ids 0..N-1)."""
        for n_paths in (2, 3, 4, 8):
            buckets = {stable_hash(1, flow) % n_paths
                       for flow in range(64)}
            assert buckets == set(range(n_paths))


class TestRegistry:
    def test_bundled_policies(self):
        assert set(available()) >= {"static", "ecmp", "flowlet"}

    def test_available_is_sorted(self):
        assert list(available()) == sorted(available())

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            create_policy("valiant", seed=1)

    def test_create_instantiates_types(self):
        assert isinstance(create_policy("static", seed=1), StaticRouting)
        assert isinstance(create_policy("ecmp", seed=1), EcmpRouting)
        flowlet = create_policy("flowlet", seed=1, flowlet_gap=5e-6)
        assert isinstance(flowlet, FlowletRouting)
        assert flowlet.gap_threshold == 5e-6

    def test_register_custom_policy(self):
        class Last(StaticRouting):
            def select(self, flow_id, n_paths, now):
                return n_paths - 1

        register_policy("last", lambda seed, flowlet_gap: Last(seed))
        try:
            assert "last" in available()
            assert create_policy("last", seed=0).select(5, 4, 0.0) == 3
        finally:
            from repro.net import routing
            del routing._REGISTRY["last"]


class TestStaticRouting:
    def test_always_first_path(self):
        policy = StaticRouting(seed=9)
        assert [policy.select(f, 4, 0.0) for f in range(16)] == [0] * 16


class TestEcmpRouting:
    def test_flow_pinned_for_run(self):
        policy = EcmpRouting(seed=2)
        first = [policy.select(f, 4, 0.0) for f in range(32)]
        later = [policy.select(f, 4, 123.0) for f in range(32)]
        assert first == later

    def test_two_instances_agree(self):
        """What makes the fluid profile's flow counts exact: a fresh
        policy object reproduces the packet fabric's assignments."""
        a, b = EcmpRouting(seed=3), EcmpRouting(seed=3)
        assert [a.select(f, 8, 0.0) for f in range(64)] \
            == [b.select(f, 8, 0.0) for f in range(64)]

    def test_pick_is_the_seed_and_flow_hash(self):
        """``select`` starts from the seed's hash state and folds in
        only the flow id: the same pick as hashing both parts."""
        for seed in (0, 1, 2**63 + 5):
            policy = EcmpRouting(seed=seed)
            assert [policy.select(f, 5, 0.0) for f in range(64)] \
                == [stable_hash(seed, f) % 5 for f in range(64)]

    def test_seed_changes_assignment(self):
        a = [EcmpRouting(seed=1).select(f, 4, 0.0) for f in range(64)]
        b = [EcmpRouting(seed=2).select(f, 4, 0.0) for f in range(64)]
        assert a != b

    def test_in_range_and_single_path_short_circuit(self):
        policy = EcmpRouting(seed=5)
        assert all(0 <= policy.select(f, 3, 0.0) < 3 for f in range(64))
        assert policy.select(11, 1, 0.0) == 0


class TestFlowletRouting:
    def test_gap_at_threshold_keeps_path(self):
        """A gap of exactly the threshold does NOT end the flowlet:
        rehashing requires ``now - last > gap``, so the boundary packet
        stays in-order on the same path."""
        policy = FlowletRouting(seed=1, gap_threshold=GAP)
        first = policy.select(7, 4, 0.0)
        assert policy.select(7, 4, GAP) == first
        # the timer restarts from the last packet, not the flowlet start
        assert policy.select(7, 4, 2 * GAP) == first

    def test_gap_over_threshold_rehashes(self):
        policy = FlowletRouting(seed=1, gap_threshold=GAP)
        policy.select(7, 4, 0.0)
        state_before = policy._state[7]
        policy.select(7, 4, GAP * 1.001)
        last, flowlet, _ = policy._state[7]
        assert flowlet == state_before[1] + 1
        assert last == pytest.approx(GAP * 1.001)

    def test_rehash_path_matches_stable_hash(self):
        policy = FlowletRouting(seed=6, gap_threshold=GAP)
        assert policy.select(3, 4, 0.0) == stable_hash(6, 3, 0) % 4
        assert policy.select(3, 4, GAP * 2) == stable_hash(6, 3, 1) % 4

    def test_flowlets_spread_over_paths(self):
        """Across many flowlets of one flow, multiple paths get used —
        the whole point of gap switching."""
        policy = FlowletRouting(seed=2, gap_threshold=GAP)
        paths = {policy.select(1, 4, i * 10 * GAP) for i in range(32)}
        assert len(paths) > 1

    def test_single_path_short_circuit_keeps_no_state(self):
        policy = FlowletRouting(seed=1, gap_threshold=GAP)
        assert policy.select(9, 1, 0.0) == 0
        assert 9 not in policy._state

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            FlowletRouting(seed=1, gap_threshold=0.0)
