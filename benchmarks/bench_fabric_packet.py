"""Multi-tier packet path: the incast and dumbbell ``quick`` grids.

The figure-3 gate runs the packet kernel over the one-hop star only, so
fat-tree hops, ``RoutingPolicy.select`` and flowlet state sit outside
it.  This bench runs the bundled ``incast`` (k=4 fat tree, three
routing policies) and ``dumbbell`` (two trunks, open loop) grids at
packet fidelity, with the short simulated time the repository benchmark
(``perfbench``) uses for its ``fabric-packet`` workload: 1 ms of
warm-up and 2 ms measured per config, a quarter of the ``quick``
preset, so the gate stays well under a minute.  Its median lands in
``benchmarks/baseline.json`` like every other gated bench.
"""

from __future__ import annotations

from repro.core.results import FailedRun
from repro.core.scenario import apply_overrides, load_bundled, run_configs

#: Simulated time per config (perfbench's ``PACKET_TIME``).
SHORT_TIME = {"sim.warmup": 1e-3, "sim.duration": 2e-3}


def _grid():
    return [apply_overrides(config, SHORT_TIME)
            for name in ("incast", "dumbbell")
            for config in load_bundled(name).expand(
                quality="quick", fidelity="packet")]


def test_fabric_packet_quick(benchmark):
    configs = _grid()
    assert all(c.fabric.topology != "star" for c in configs)

    table = benchmark.pedantic(run_configs, args=(configs,), rounds=3,
                               iterations=1)
    assert len(table) == len(configs)
    assert not any(isinstance(row, FailedRun) for row in table)
    assert {row.params["routing"] for row in table} == {
        "static", "ecmp", "flowlet"}
