"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig3-packet --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in fresh
interpreters (``perfbench/worker.py``): ``SETUP_PROBES`` of them each
time the set-up alone, then one measures whole passes for ``--seconds``.
Every child runs single-threaded (``OMP_NUM_THREADS=1`` and friends),
with ``REPRO_CACHE_DIR``/``REPRO_LEDGER_DIR`` pointed at an empty
directory that is removed afterwards.

With ``--trace 0`` the metrics are the end-to-end metrics
``BENCHMARK.json`` declares; with ``--trace 1`` they are its per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output checked out.  Each run also writes a record
(metrics with sample counts, seed, git SHA, machine fingerprint,
digests) to ``perfbench/runs/``.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Fresh interpreters that time set-up; the median is ``setup_s``.
SETUP_PROBES = 5
#: Wall-clock budget of one invocation, children included.
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    """A child failed, timed out, or printed no result."""


def call_worker(args, env, deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return its last stdout line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"timed out: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"exit {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


def reference_problems(name: str, seed: int, digests: dict) -> list:
    """Columns whose digest differs from the committed reference, when
    ``seed`` is the reference seed (no check on other seeds)."""
    reference = json.loads((BENCH / "reference.json").read_text())
    if seed != reference["seed"]:
        return []
    expected = reference["digests"].get(name)
    if expected is None:
        return [f"{name}: no reference digests for seed {seed}"]
    return [f"{name}: seed {seed}: {column} differs from the reference"
            for column, value in sorted(expected.items())
            if digests.get(column) != value]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: tiny inputs, one set-up "
                             "probe, no run record")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    scratch = tempfile.mkdtemp(prefix=".tmp-", dir=BENCH)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               REPRO_CACHE_DIR=os.path.join(scratch, "cache"),
               REPRO_LEDGER_DIR=os.path.join(scratch, "ledger"))
    try:
        setup_runs = [
            call_worker([*common, "--role", "setup"], env, deadline)
            for _ in range(1 if args.tiny else SETUP_PROBES)]
        run = call_worker([*common, "--role", "measure", "--seconds",
                           str(args.seconds), "--trace", str(args.trace)],
                          env, deadline)
    except WorkerError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    walls = run["walls"]
    setups = [r["setup_s"] for r in setup_runs]
    values = {
        "wall_s": statistics.median(walls),
        "ops_per_s": run["ops_per_pass"] * len(walls) / sum(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        **run.get("per_layer", {}),
    }
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[section]}

    errors = list(run["errors"])
    if not args.tiny:
        errors += reference_problems(args.workload, args.seed,
                                     run["digests"])
    for line in errors:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    correct = not errors

    if not args.tiny:
        stamp = datetime.datetime.now(datetime.timezone.utc)
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "time": stamp.isoformat(timespec="seconds"),
            "git_sha": git_sha(), "machine": machine(),
            "correct": correct, "attempted": run["attempted"],
            "failed": run["failed"], "errors": errors[:50],
            "metrics": {name: {**metric, "samples": (
                len(setups) if name == "setup_s" else len(walls))}
                for name, metric in metrics.items()},
            "pass_walls": walls,
            "raw_pass_walls": run["raw_walls"],
            "pass_speed_scales": run["speed_scales"],
            "traced_walls": run.get("traced_walls", []),
            "setup_samples": setups,
            "raw_setup_samples": [r["raw_setup_s"] for r in setup_runs],
            "setup_speed_scales": [r["speed_scale"] for r in setup_runs],
            "layers": run.get("layers", {}),
            "digests": run["digests"],
        }
        runs = BENCH / "runs"
        runs.mkdir(exist_ok=True)
        name = (f"{stamp:%Y%m%dT%H%M%S}-{args.workload}-s{args.seed}"
                f"-t{args.trace}-{os.getpid()}.json")
        (runs / name).write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload:<14} {name:<34} {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
