"""Golden snapshot: the day and isolation drivers are bit-identical.

``simulate_day`` and ``run_isolation_study`` run their own study loop
outside ``run_experiment``, so the single-host golden does not cover
them.  Their results on a tiny config are pinned by ``repr``, at each
fidelity, to ``tests/data/golden_packet_drivers.json`` and
``tests/data/golden_fluid_drivers.json``.

Regenerate both (only after an *intentional* behaviour change)::

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

FIDELITIES = ("packet", "fluid")
GOLDEN = {fidelity: Path(__file__).parent / "data"
          / f"golden_{fidelity}_drivers.json" for fidelity in FIDELITIES}


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


def at(config, fidelity) -> ExperimentConfig:
    return dataclasses.replace(config, fidelity=fidelity)


def golden_runs(fidelity):
    day = simulate_day(at(day_config(), fidelity),
                       diurnal_schedule(3, seed=2),
                       bin_duration=4e-4, warmup_per_bin=2e-4)
    return {
        "day": [repr(b) for b in day],
        "isolation": repr(run_isolation_study(
            at(isolation_config(), fidelity))),
    }


def test_packet_drivers_match_golden():
    assert golden_runs("packet") == json.loads(
        GOLDEN["packet"].read_text())


def test_fluid_drivers_match_golden():
    assert golden_runs("fluid") == json.loads(GOLDEN["fluid"].read_text())


def _with(config, **sections):
    return dataclasses.replace(config, **{
        name: dataclasses.replace(getattr(config, name), **fields)
        for name, fields in sections.items()})


MULTI_HOST_SHAPES = pytest.mark.parametrize("sections, key", [
    ({"workload": {"receivers": 2}}, "workload.receivers"),
    ({"fabric": {"topology": "dumbbell"}}, "fabric.topology"),
])


@pytest.mark.parametrize("fidelity", FIDELITIES)
@MULTI_HOST_SHAPES
def test_day_rejects_multi_host_shapes(sections, key, fidelity):
    config = at(_with(day_config(), **sections), fidelity)
    with pytest.raises(ValueError, match=key):
        simulate_day(config, diurnal_schedule(1), bin_duration=1e-4,
                     warmup_per_bin=1e-4)


@pytest.mark.parametrize("fidelity", FIDELITIES)
@MULTI_HOST_SHAPES
def test_isolation_rejects_multi_host_shapes(sections, key, fidelity):
    config = at(_with(isolation_config(), **sections), fidelity)
    with pytest.raises(ValueError, match=key):
        run_isolation_study(config)


if __name__ == "__main__":
    for fidelity in FIDELITIES:
        GOLDEN[fidelity].write_text(
            json.dumps(golden_runs(fidelity), indent=1) + "\n")
        print(f"wrote {GOLDEN[fidelity]}")
