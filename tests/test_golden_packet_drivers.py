"""Golden snapshot: the packet day and isolation drivers are bit-identical.

``simulate_day`` and ``run_isolation_study`` build their packet graph
outside ``run_experiment``, so the single-host golden does not cover
them.  Their results on a tiny config are pinned by ``repr`` to
``tests/data/golden_packet_drivers.json``.

Regenerate (only after an *intentional* behaviour change)::

    PYTHONPATH=src python tests/test_golden_packet_drivers.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.workload.day import diurnal_schedule, simulate_day
from repro.workload.isolation import run_isolation_study

GOLDEN = Path(__file__).parent / "data" / "golden_packet_drivers.json"


def day_config() -> ExperimentConfig:
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=2)),
        workload=WorkloadConfig(senders=3, offered_load=0.5),
        sim=SimConfig(seed=3),
    )


def isolation_config() -> ExperimentConfig:
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=3)),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=5e-4, duration=1e-3, seed=1),
    )


def run_day():
    return simulate_day(day_config(), diurnal_schedule(3, seed=2),
                        bin_duration=4e-4, warmup_per_bin=2e-4)


def golden_runs():
    return {
        "day": [repr(b) for b in run_day()],
        "isolation": repr(run_isolation_study(isolation_config())),
    }


def test_packet_drivers_match_golden():
    assert golden_runs() == json.loads(GOLDEN.read_text())


def _with(config, **sections):
    return dataclasses.replace(config, **{
        name: dataclasses.replace(getattr(config, name), **fields)
        for name, fields in sections.items()})


@pytest.mark.parametrize("sections, key", [
    ({"workload": {"receivers": 2}}, "workload.receivers"),
    ({"fabric": {"topology": "dumbbell"}}, "fabric.topology"),
])
def test_packet_day_rejects_multi_host_shapes(sections, key):
    config = _with(day_config(), **sections)
    with pytest.raises(ValueError, match=key):
        simulate_day(config, diurnal_schedule(1), bin_duration=1e-4,
                     warmup_per_bin=1e-4)


@pytest.mark.parametrize("sections, key", [
    ({"workload": {"receivers": 2}}, "workload.receivers"),
    ({"fabric": {"topology": "dumbbell"}}, "fabric.topology"),
])
def test_packet_isolation_rejects_multi_host_shapes(sections, key):
    config = _with(isolation_config(), **sections)
    with pytest.raises(ValueError, match=key):
        run_isolation_study(config)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_runs(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
