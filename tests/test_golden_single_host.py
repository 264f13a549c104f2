"""Golden snapshot: the single-host baseline is bit-identical.

The componentized graph (PR 3) must not perturb the paper's
single-receiver setup: every metric of a short baseline run is pinned
to ``tests/data/golden_single_host.json``.  Any change to event
ordering, RNG draw order, or metric naming shows up here as a diff.

Regenerate (only after an *intentional* behaviour change)::

    PYTHONPATH=src python tests/data/make_golden.py
"""

import json
from pathlib import Path

from repro.core.config import baseline_config
from repro.core.experiment import ExperimentHandle

GOLDEN = Path(__file__).parent / "data" / "golden_single_host.json"


def golden_run():
    handle = ExperimentHandle(baseline_config(
        warmup=1e-3, duration=2e-3, seed=1))
    handle.run_warmup()
    handle.run_measurement()
    result = handle.collect()
    return {
        "params": result.params,
        "metrics": result.metrics,
        "message_latency_us": result.message_latency_us,
        "registry": handle.metrics.snapshot(),
    }


def test_single_host_run_matches_golden_snapshot():
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(golden_run()))
    for section in expected:
        assert actual[section] == expected[section], (
            f"{section} diverged from tests/data/golden_single_host.json; "
            "if the behaviour change is intentional, regenerate with "
            "tests/data/make_golden.py")
