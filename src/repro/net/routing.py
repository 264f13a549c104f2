"""Pluggable routing policies for multi-tier fabrics.

A routing policy picks one path out of an equal-cost set for every
packet at fabric ingress.  Three are bundled:

* ``static``   — single path (index 0): no load balancing at all.
* ``ecmp``     — per-flow hash over the equal-cost set; a flow is
  pinned to its path for the whole run.
* ``flowlet``  — CONGA/LetFlow-style gap-threshold switching: when the
  inter-packet gap within a flow exceeds the configured threshold the
  flowlet ends and the flow rehashes onto a (possibly) different path.

All hashing is explicit and seeded (splitmix64 finalizer over the
seed/flow/flowlet tuple) — never the interpreter's ``hash()`` — so a
run is bit-identical across processes, worker counts, and
``PYTHONHASHSEED`` values.  Policies are pure state machines: they take
the current simulation time as an argument instead of reading a clock,
which is what lets the fluid solver reuse the exact same path
assignments analytically.

This module is a layer-0 kernel module (see ``scripts/check_layering.py``):
it must not import the simulator or anything above it.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

__all__ = [
    "RoutingPolicy",
    "StaticRouting",
    "EcmpRouting",
    "FlowletRouting",
    "available",
    "create_policy",
    "register_policy",
    "stable_hash",
]

_MASK64 = (1 << 64) - 1


def _fold(acc: int, part: int) -> int:
    """Fold one integer into a :func:`stable_hash` state."""
    acc = (acc ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
    acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & _MASK64
    return acc ^ (acc >> 31)


def stable_hash(*parts: int) -> int:
    """Deterministic 64-bit hash of a tuple of integers.

    splitmix64's finalizer applied fold-wise: strong enough mixing that
    consecutive flow ids spread uniformly over small path counts, with
    no dependence on the process or platform.
    """
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = _fold(acc, part)
    return acc


class RoutingPolicy:
    """Base policy: selects a path index for each packet at ingress."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def select(self, flow_id: int, n_paths: int, now: float) -> int:
        """Path index in ``[0, n_paths)`` for this packet."""
        raise NotImplementedError


class StaticRouting(RoutingPolicy):
    """Single fixed path per source/destination pair — no balancing."""

    def select(self, flow_id: int, n_paths: int, now: float) -> int:
        return 0


class EcmpRouting(RoutingPolicy):
    """Hash-based ECMP: each flow is pinned to one equal-cost path."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: ``stable_hash(seed)``: ``select`` folds in only the flow id.
        self._seeded = stable_hash(seed)

    def select(self, flow_id: int, n_paths: int, now: float) -> int:
        if n_paths <= 1:
            return 0
        return _fold(self._seeded, flow_id) % n_paths


class FlowletRouting(RoutingPolicy):
    """Flowlet switching with a configurable gap threshold.

    A burst of packets whose inter-packet gaps stay at or below
    ``gap_threshold`` forms one flowlet and stays on one path; a larger
    gap ends the flowlet, so the next packet rehashes with a fresh
    flowlet id.  Rehashing only at burst boundaries keeps packets
    in-order within a flowlet while still spreading load over time.
    """

    def __init__(self, seed: int, gap_threshold: float) -> None:
        super().__init__(seed)
        if gap_threshold <= 0:
            raise ValueError("gap_threshold must be positive")
        self.gap_threshold = gap_threshold
        #: flow_id -> (last packet time, flowlet id, path index)
        self._state: Dict[int, Tuple[float, int, int]] = {}

    def select(self, flow_id: int, n_paths: int, now: float) -> int:
        if n_paths <= 1:
            return 0
        state = self._state.get(flow_id)
        if state is None:
            flowlet = 0
            path = stable_hash(self.seed, flow_id, flowlet) % n_paths
        else:
            last, flowlet, path = state
            if now - last > self.gap_threshold:
                flowlet += 1
                path = stable_hash(self.seed, flow_id, flowlet) % n_paths
        self._state[flow_id] = (now, flowlet, path)
        return path


_REGISTRY: Dict[str, Callable[..., RoutingPolicy]] = {}


def register_policy(name: str,
                    factory: Callable[..., RoutingPolicy]) -> None:
    """Register a routing policy factory under ``name``.

    The factory is called as ``factory(seed=..., flowlet_gap=...)``;
    implementations ignore keywords they don't need.
    """
    _REGISTRY[name] = factory


def available() -> Tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_policy(name: str, *, seed: int,
                  flowlet_gap: float = 100e-6) -> RoutingPolicy:
    """Instantiate the named policy with deterministic seeding."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; "
            f"expected one of {available()}") from None
    return factory(seed=seed, flowlet_gap=flowlet_gap)


register_policy("static", lambda seed, flowlet_gap: StaticRouting(seed))
register_policy("ecmp", lambda seed, flowlet_gap: EcmpRouting(seed))
register_policy(
    "flowlet",
    lambda seed, flowlet_gap: FlowletRouting(seed, flowlet_gap))
