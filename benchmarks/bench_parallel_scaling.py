"""Worker-count scaling of the parallel sweep runner.

One bench per worker count over the same Figure-3-shaped receiver-core
sweep, recording wall time plus ``extra_info`` (worker count, runs,
speedup vs the serial baseline measured in the same session) — the
trajectory the CI benchmark-smoke job uploads on every PR.

The speedup assertion is deliberately loose (sweeps carry fork +
pickle overhead and CI runners are noisy) and only armed on machines
with enough cores to show parallelism at all.
"""

import os
import time

import pytest

from repro.core.config import baseline_config
from repro.core.scenario import ScenarioSpec, SweepAxis, run_configs

CORES = (2, 4, 6, 8)

_serial_wall: dict = {}


def _sweep(workers):
    spec = ScenarioSpec(name="cores",
                        axes=(SweepAxis("host.cpu.cores", CORES),))
    configs = spec.expand(base=baseline_config(warmup=1e-3, duration=2e-3))
    return run_configs(configs, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sweep_worker_scaling(benchmark, workers):
    if workers > (os.cpu_count() or 1):
        pytest.skip(f"machine has fewer than {workers} cores")
    start = time.perf_counter()
    table = benchmark.pedantic(_sweep, args=(workers,), rounds=1,
                               iterations=1)
    wall = time.perf_counter() - start
    if workers == 1:
        _serial_wall["wall"] = wall
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["runs"] = len(table)
    if "wall" in _serial_wall:
        benchmark.extra_info["speedup_vs_serial"] = round(
            _serial_wall["wall"] / wall, 3)
    assert len(table) == len(CORES)
    assert not table.failures()


def test_parallel_speedup_vs_serial(benchmark):
    """Loose wall-clock gate: 4 workers must beat serial by >= 1.6x.

    (The determinism CI job checks *exact* table equality; this bench
    checks the time side of the acceptance bar on >= 4-core runners.)
    """
    if (os.cpu_count() or 1) < 4:
        pytest.skip("speedup gate needs >= 4 cores")

    start = time.perf_counter()
    serial = _sweep(workers=1)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = benchmark.pedantic(_sweep, args=(4,), rounds=1,
                                  iterations=1)
    parallel_wall = time.perf_counter() - start

    benchmark.extra_info["serial_wall_s"] = round(serial_wall, 3)
    benchmark.extra_info["parallel_wall_s"] = round(parallel_wall, 3)
    benchmark.extra_info["speedup"] = round(serial_wall / parallel_wall,
                                            3)
    assert serial == parallel  # bit-identical tables
    assert parallel_wall < 0.625 * serial_wall, (
        f"4-worker sweep took {parallel_wall:.2f}s vs "
        f"{serial_wall:.2f}s serial — expected >= 1.6x speedup")
