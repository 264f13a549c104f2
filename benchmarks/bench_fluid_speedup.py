"""Fluid-vs-packet CPU-time speedup on the figure-3 grid.

The fluid engine exists to buy orders of magnitude: the packet kernel
dispatches one event per packet (~10^6 events per figure-3 point at
quick quality) while the fluid solver takes ~400 RTT-scale steps.
This bench runs the *same* expanded config grid through both engines
back to back and asserts the paired CPU-time speedup stays at or above
the 25x floor promised in DESIGN.md — the contract that makes fluid
worth cross-validating at all.

The fluid grid's median also lands in ``benchmarks/baseline.json`` via
``scripts/check_bench_regression.py``, so a fluid-solver slowdown trips
the same gate as a packet-kernel one.  A second gated bench runs the
``incast`` (k=4 fat tree) and ``dumbbell`` quick grids at fluid
fidelity: the scalar solver with its fabric stage switched on, which
the star-only figure-3 grid never enters.
"""

from __future__ import annotations

import time

from repro.core.scenario import load_bundled, run_configs

#: Floor on paired CPU-time speedup (packet CPU / fluid CPU) over the
#: figure-3 quick grid.  Measured ~100-300x; 25x leaves room for
#: shared-runner noise without ever letting fluid degrade into a
#: second packet engine.
MIN_SPEEDUP = 25.0


def _grid(fidelity: str):
    return load_bundled("figure3").expand(quality="quick",
                                          fidelity=fidelity)


def _cpu_time(configs) -> float:
    start = time.process_time()
    run_configs(configs)
    return time.process_time() - start


def test_fluid_speedup_figure3(benchmark):
    packet_cpu = _cpu_time(_grid("packet"))
    fluid_configs = _grid("fluid")

    table = benchmark(run_configs, fluid_configs)
    assert len(table) == len(fluid_configs)

    fluid_cpu = max(_cpu_time(fluid_configs), 1e-9)
    speedup = packet_cpu / fluid_cpu
    benchmark.extra_info["packet_cpu_s"] = round(packet_cpu, 3)
    benchmark.extra_info["fluid_cpu_s"] = round(fluid_cpu, 4)
    benchmark.extra_info["speedup_x"] = round(speedup, 1)
    print(f"\nfluid speedup on figure3 grid "
          f"({len(fluid_configs)} points): packet {packet_cpu:.2f}s "
          f"CPU vs fluid {fluid_cpu * 1e3:.1f}ms CPU = {speedup:.0f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"fluid engine is only {speedup:.1f}x faster than packet on "
        f"the figure3 grid (floor {MIN_SPEEDUP}x)")


def test_fluid_fabric_grid(benchmark):
    configs = [config for name in ("incast", "dumbbell")
               for config in load_bundled(name).expand(
                   quality="quick", fidelity="fluid")]
    assert all(c.fabric.topology != "star" for c in configs)

    table = benchmark(run_configs, configs)
    assert len(table) == len(configs)
