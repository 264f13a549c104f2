"""Pinned engine event counts of two short packet runs.

Every engine event is dispatch work, so a change that adds (or saves)
events per packet must show up here and be re-pinned on purpose, with
its reason (DESIGN.md §8 lists the events one packet costs).  Both
runs are deterministic, so the counts are exact.
"""

import dataclasses

import pytest

from repro.core.config import ExperimentConfig, FabricConfig, baseline_config
from repro.core.experiment import ExperimentHandle


def ecmp_incast():
    """Two receivers on a k=4 fat tree with ECMP, 2 cores x 4 senders."""
    cfg = ExperimentConfig(
        fabric=FabricConfig(topology="fattree", routing="ecmp"))
    return dataclasses.replace(
        cfg,
        host=dataclasses.replace(
            cfg.host, cpu=dataclasses.replace(cfg.host.cpu, cores=2)),
        workload=dataclasses.replace(cfg.workload, senders=4,
                                     receivers=2),
        sim=dataclasses.replace(cfg.sim, warmup=0.5e-3, duration=1e-3,
                                seed=1))


@pytest.mark.parametrize("config, events", [
    # The run of tests/test_golden_single_host.py.
    (baseline_config(warmup=1e-3, duration=2e-3, seed=1), 51165),
    (ecmp_incast(), 23355),
], ids=["golden-single-host", "ecmp-incast"])
def test_events_dispatched_is_pinned(config, events):
    handle = ExperimentHandle(config)
    handle.run_warmup()
    handle.run_measurement()
    assert handle.events_dispatched == events
