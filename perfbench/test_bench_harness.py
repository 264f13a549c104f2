"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_bench_harness.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECLARED["workloads"]]


def bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_run_prints_every_declared_metric(name, trace):
    proc = bench("--workload", name, "--seed", "2", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_digests_repeat_across_runs_traced_or_not():
    tiny = worker.workload("fabric-packet", tiny=True)
    plain = worker.measure(tiny, seed=3, seconds=0, trace=False)
    traced = worker.measure(tiny, seed=3, seconds=0, trace=True)
    assert not plain["errors"] and not traced["errors"]
    assert plain["digests"] == traced["digests"]


def test_tampered_row_fails_the_invariants():
    tiny = worker.workload("fig3-packet", tiny=True)
    configs = tiny.prepare(seed=2)
    table = tiny.run(configs)
    assert tiny.check(configs, table).failed == 0
    row = table.results[1]
    table.results[1] = dataclasses.replace(
        row, metrics={**row.metrics, "drop_rate": 1.5})
    check = tiny.check(configs, table)
    assert check.failed == 1
    assert "drop_rate" in check.errors[0]
    assert str(configs[1].describe()) in check.errors[0]


def test_reference_mismatch_names_the_column():
    reference = json.loads((BENCH / "reference.json").read_text())
    digests = dict(reference["digests"]["fig3-packet"])
    assert run.reference_problems("fig3-packet", 1, digests) == []
    digests["drop_rate"] = "0" * 64
    assert run.reference_problems("fig3-packet", 1, digests) == [
        "fig3-packet: seed 1: drop_rate differs from the reference"]
    assert run.reference_problems("fig3-packet", 2, {}) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = bench("--workload", NAMES[0], "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
