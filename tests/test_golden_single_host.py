"""Golden snapshots: the star runs are bit-identical.

The componentized graph (PR 3) must not perturb the paper's
single-receiver setup: every metric of a short baseline run is pinned
to ``tests/data/golden_single_host.json``.  The same run with two
receiver hosts behind the star is pinned to
``tests/data/golden_star_two_receivers.json``: it covers the star's
per-flow steering to one egress port per host and its metric names
(``port0.*``, ``port1.*``, ``fabric.fabric_drops``).  Any change to
event ordering, RNG draw order, or metric naming shows up here as a
diff.

Regenerate (only after an *intentional* behaviour change)::

    PYTHONPATH=src python tests/data/make_golden.py
"""

import dataclasses
import json
from pathlib import Path

from repro.core.config import baseline_config
from repro.core.experiment import ExperimentHandle

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_single_host.json"
GOLDEN_TWO_RECEIVERS = DATA / "golden_star_two_receivers.json"


def golden_run(receivers=1):
    config = baseline_config(warmup=1e-3, duration=2e-3, seed=1)
    config = dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, receivers=receivers))
    handle = ExperimentHandle(config)
    handle.run_warmup()
    handle.run_measurement()
    result = handle.collect()
    return {
        "params": result.params,
        "metrics": result.metrics,
        "message_latency_us": result.message_latency_us,
        "registry": handle.metrics.snapshot(),
    }


def _assert_matches(path, actual):
    expected = json.loads(path.read_text())
    actual = json.loads(json.dumps(actual))
    assert sorted(actual) == sorted(expected)
    for section in expected:
        assert actual[section] == expected[section], (
            f"{section} diverged from tests/data/{path.name}; "
            "if the behaviour change is intentional, regenerate with "
            "tests/data/make_golden.py")


def test_single_host_run_matches_golden_snapshot():
    _assert_matches(GOLDEN, golden_run())


def test_two_receiver_star_run_matches_golden_snapshot():
    actual = golden_run(receivers=2)
    for name in ("port0.dropped", "port1.dropped", "fabric.fabric_drops"):
        assert name in actual["registry"]["counters"], name
    _assert_matches(GOLDEN_TWO_RECEIVERS, actual)
