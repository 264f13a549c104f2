"""The cross-process half of the telemetry plane: worker lifecycle
events, the durable JSONL run ledger, and the mergeable fold over it.

The acceptance-level claims under test: workers stream queued/started/
finished/failed events whatever the worker count; the ledger file
alone reconstructs a sweep summary that matches the result table; and
``RunAggregate`` is a true mergeable fold —
``fold(a + b) == fold(a).merge(fold(b))`` for any split.
"""

import json

import pytest

from repro.cli import main
from repro.core.cache import code_version
from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.ledger import (
    LedgerWriter,
    list_runs,
    read_run,
    resolve_run,
    summarize_run,
)
from repro.core.parallel import run_many
from repro.obs.telemetry import RunAggregate


def tiny_config(seed=3, cores=2, senders=4):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=cores)),
        workload=WorkloadConfig(senders=senders),
        sim=SimConfig(warmup=0.5e-3, duration=1e-3, seed=seed),
    )


def crashing_config():
    """Passes validation, explodes at graph-build inside the worker
    (pickling skips ``__post_init__``, so the bad transport travels)."""
    config = tiny_config()
    object.__setattr__(config, "transport", "definitely-not-a-cc")
    return config


def events_of(stream, kind):
    return [event for event in stream if event.get("ev") == kind]


class TestLedgerWriter:
    def test_begin_and_end_rows(self, tmp_path):
        with LedgerWriter(tmp_path, label="smoke") as ledger:
            ledger.append({"ev": "plan", "total": 2})
        rows = read_run(ledger.path)
        assert [r["ev"] for r in rows] == ["begin", "plan", "end"]
        begin, _, end = rows
        assert begin["run_id"] == ledger.run_id
        assert begin["label"] == "smoke"
        assert begin["v"] == 1
        assert begin["code_version"] == code_version()
        assert end["ok"] is True
        assert end["rows"] == 2  # rows before the end row itself
        assert all("ts" in r for r in rows)

    def test_exception_marks_run_not_ok(self, tmp_path):
        with pytest.raises(RuntimeError):
            with LedgerWriter(tmp_path, label="boom") as ledger:
                ledger.append({"ev": "plan", "total": 1})
                raise RuntimeError("abort")
        end = read_run(ledger.path)[-1]
        assert end["ev"] == "end"
        assert end["ok"] is False

    def test_meta_lands_in_begin_row(self, tmp_path):
        ledger = LedgerWriter(tmp_path, label="m",
                              meta={"argv": ["sweep", "cores"]})
        ledger.close()
        begin = read_run(ledger.path)[0]
        assert begin["meta"] == {"argv": ["sweep", "cores"]}

    def test_append_after_close_is_noop(self, tmp_path):
        ledger = LedgerWriter(tmp_path, label="x")
        ledger.close()
        ledger.append({"ev": "plan"})
        ledger.close()  # idempotent
        assert [r["ev"] for r in read_run(ledger.path)] \
            == ["begin", "end"]

    def test_colliding_names_get_serial_suffix(self, tmp_path):
        first = LedgerWriter(tmp_path, label="same")
        second = LedgerWriter(tmp_path, label="same")
        first.close()
        second.close()
        assert first.path != second.path
        assert second.run_id.startswith(first.run_id)

    def test_writer_is_an_event_sink(self, tmp_path):
        ledger = LedgerWriter(tmp_path, label="sink")
        ledger({"ev": "queued", "index": 0})  # __call__ == append
        ledger.close()
        assert events_of(read_run(ledger.path), "queued")

    def test_corrupt_row_named_in_error(self, tmp_path):
        ledger = LedgerWriter(tmp_path, label="bad")
        ledger.close()
        with open(ledger.path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValueError, match="corrupt ledger row"):
            read_run(ledger.path)


class TestLifecycleEvents:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_event_stream_shape(self, workers):
        events = []
        configs = [tiny_config(seed=s) for s in (5, 6)]
        run_many(configs, workers=workers, events=events.append)
        (plan,) = events_of(events, "plan")
        assert plan["total"] == 2
        assert plan["pending"] == 2
        assert len(events_of(events, "queued")) == 2
        assert len(events_of(events, "started")) == 2
        finished = events_of(events, "finished")
        assert sorted(f["index"] for f in finished) == [0, 1]
        for event in finished:
            assert event["wall_s"] > 0
            assert event["engine_events"] > 0
            assert event["pid"] > 0
            assert event["metrics"]["app_throughput_gbps"] > 0
            assert "drop_rate" in event["metrics"]
            assert event["params"]["cores"] == 2

    def test_no_events_means_no_work(self):
        # events=None is the default: nothing observable changes.
        outcomes = run_many([tiny_config()])
        assert outcomes[0].result.metrics["packets_sent"] > 0

    def test_failures_keep_emits_failed_event(self):
        events = []
        table_rows = run_many(
            [tiny_config(), crashing_config()],
            events=events.append, failures="keep")
        (failed,) = events_of(events, "failed")
        assert failed["index"] == 1
        assert failed["failure_kind"] == "error"
        assert failed["exception_type"] == "ValueError"
        assert "unknown congestion control" in failed["error"]
        assert "ValueError" in failed["traceback_tail"]
        row = table_rows[1].result
        assert row.kind == "error"
        assert row.exception_type == "ValueError"
        assert row.traceback_tail
        assert len(row.traceback_tail) <= row.TRACEBACK_LIMIT

    def test_failures_keep_in_pool_too(self):
        events = []
        rows = run_many([crashing_config(), tiny_config()],
                        workers=2, events=events.append,
                        failures="keep")
        assert events_of(events, "failed")[0]["index"] == 0
        assert rows[0].result.params["failed"] is True
        assert rows[1].result.metrics["packets_sent"] > 0


class TestSharedSolveRows:
    """Configs that share a solve (fluid seed repeats) keep one row
    each; only the run that solved carries timings."""

    def stream(self, workers=None):
        configs = [ExperimentConfig(
            host=HostConfig(cpu=CpuConfig(cores=cores)),
            workload=WorkloadConfig(senders=4), fidelity="fluid",
            sim=SimConfig(warmup=0.5e-3, duration=1e-3, seed=seed))
            for seed, cores in ((3, 2), (3, 4), (4, 2), (5, 2))]
        events = []
        run_many(configs, workers=workers, events=events.append)
        return events

    @pytest.mark.parametrize("workers", [None, 2])
    def test_one_row_per_config_and_one_start_per_solve(self, workers):
        events = self.stream(workers)
        for kind in ("queued", "finished"):
            assert sorted(e["index"] for e in events_of(events, kind)) \
                == [0, 1, 2, 3]
        assert sorted(e["index"] for e in events_of(events, "started")) \
            == [0, 1]
        rows = {e["index"]: e for e in events_of(events, "finished")}
        for index in (0, 1):
            assert "solved_by" not in rows[index]
            assert rows[index]["wall_s"] > 0
            assert rows[index]["engine_events"] > 0
        for index in (2, 3):
            row = rows[index]
            assert row["solved_by"] == 0
            assert "wall_s" not in row and "engine_events" not in row
            assert row["params"]["seed"] == (4, 5)[index - 2]
            assert row["metrics"] == rows[0]["metrics"]

    def test_aggregate_times_solves_and_counts_configs(self):
        aggregate = RunAggregate().fold_all(self.stream())
        assert aggregate.done == aggregate.finished == 4
        assert aggregate.started == 2
        assert aggregate.sketches["wall_s"].count == 2
        assert aggregate.sketches["events_per_sec"].count == 2
        assert aggregate.sketches["throughput_gbps"].count == 4

    def test_failed_shared_row_names_the_solve(self):
        cpu = CpuConfig(cores=2)
        object.__setattr__(cpu, "cores", 0)   # past validation: raises
        configs = [ExperimentConfig(
            host=HostConfig(cpu=cpu), workload=WorkloadConfig(senders=4),
            fidelity="fluid",
            sim=SimConfig(warmup=0.5e-3, duration=1e-3, seed=seed))
            for seed in (3, 4)]
        events = []
        run_many(configs, events=events.append, failures="keep")
        first, second = events_of(events, "failed")
        assert (first["index"], second["index"]) == (0, 1)
        assert "solved_by" not in first and "wall_s" in first
        assert second["solved_by"] == 0 and "wall_s" not in second
        assert second["exception_type"] == "ZeroDivisionError"


class TestRunAggregate:
    def stream(self):
        events = []
        run_many([tiny_config(seed=s) for s in (5, 6, 7)],
                 events=events.append)
        return events

    def test_fold_counts_match_stream(self):
        events = self.stream()
        aggregate = RunAggregate().fold_all(events)
        assert aggregate.total == 3
        assert aggregate.finished == 3
        assert aggregate.failed == 0
        assert aggregate.done == 3
        assert aggregate.sketches["wall_s"].count == 3
        assert aggregate.sketches["throughput_gbps"].count == 3
        assert aggregate.root_causes.total == 3

    def test_fold_split_equals_merge_of_partials(self):
        events = self.stream()
        whole = RunAggregate().fold_all(events)
        for cut in (1, len(events) // 2, len(events) - 1):
            left = RunAggregate().fold_all(events[:cut])
            right = RunAggregate().fold_all(events[cut:])
            merged = left.merge(right)
            assert merged.to_dict() == whole.to_dict()

    def test_round_trip(self):
        aggregate = RunAggregate().fold_all(self.stream())
        restored = RunAggregate.from_dict(
            json.loads(json.dumps(aggregate.to_dict())))
        assert restored.to_dict() == aggregate.to_dict()

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError):
            RunAggregate(alpha=0.01).merge(RunAggregate(alpha=0.02))

    def test_eta_machinery(self):
        aggregate = RunAggregate()
        aggregate.fold({"ev": "plan", "total": 4, "ts": 100.0})
        assert aggregate.eta_s() is None  # nothing done yet
        aggregate.fold({"ev": "finished", "index": 0, "wall_s": 2.0,
                        "ts": 110.0})
        aggregate.fold({"ev": "finished", "index": 1, "wall_s": 2.0,
                        "ts": 120.0})
        # 2 live runs in 20 s → 0.1 runs/s → 2 remaining ≈ 20 s.
        assert aggregate.eta_s() == pytest.approx(20.0)
        assert aggregate.elapsed_s == pytest.approx(20.0)


class TestLedgerDiscovery:
    def write(self, directory, label):
        ledger = LedgerWriter(directory, label=label)
        ledger.append({"ev": "plan", "total": 1})
        ledger.close()
        return ledger

    def test_list_runs(self, tmp_path):
        a = self.write(tmp_path, "first")
        b = self.write(tmp_path, "second")
        infos = list_runs(tmp_path)
        assert [i.run_id for i in infos] == [a.run_id, b.run_id]
        assert infos[0].label == "first"
        assert infos[0].finished is True
        assert infos[0].rows == 3

    def test_unfinished_run_detected(self, tmp_path):
        ledger = LedgerWriter(tmp_path, label="open")
        ledger.append({"ev": "plan", "total": 5})
        # No close(): simulates a killed sweep.
        (info,) = list_runs(tmp_path)
        assert info.finished is False

    def test_resolve_latest_exact_prefix_and_path(self, tmp_path):
        a = self.write(tmp_path, "alpha")
        b = self.write(tmp_path, "beta")
        assert resolve_run("latest", tmp_path) == b.path
        assert resolve_run(a.run_id, tmp_path) == a.path
        assert resolve_run("alpha-", tmp_path) == a.path
        assert resolve_run(str(b.path), tmp_path) == b.path

    def test_resolve_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_run("latest", tmp_path / "empty")
        self.write(tmp_path, "run")
        self.write(tmp_path, "run")
        with pytest.raises(FileNotFoundError):
            resolve_run("nope", tmp_path)
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_run("run-", tmp_path)

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        from repro.core.ledger import default_ledger_dir

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "led"))
        assert default_ledger_dir() == tmp_path / "led"


class TestLedgerReconstruction:
    def make_ledger(self, directory):
        configs = [tiny_config(seed=s) for s in (5, 6, 7)]
        with LedgerWriter(directory, label="sweep") as ledger:
            outcomes = run_many(configs, events=ledger)
        return ledger, outcomes

    def test_summary_matches_result_table(self, tmp_path):
        ledger, outcomes = self.make_ledger(tmp_path)
        aggregate = summarize_run(ledger.path)
        assert aggregate.run_id == ledger.run_id
        assert aggregate.ended is True
        assert aggregate.total == len(outcomes)
        assert aggregate.finished == len(outcomes)
        # Sketch extremes bracket the table's actual metric values —
        # the ledger alone reproduces the sweep's summary statistics.
        tputs = [o.result.metrics["app_throughput_gbps"]
                 for o in outcomes]
        sketch = aggregate.sketches["throughput_gbps"]
        assert sketch.count == len(tputs)
        assert sketch.minimum == min(tputs)
        assert sketch.maximum == max(tputs)

    def test_cli_runs_list_and_show(self, tmp_path, capsys):
        ledger, outcomes = self.make_ledger(tmp_path)
        assert main(["runs", "list",
                     "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ledger.run_id in out
        assert "[done]" in out
        assert main(["runs", "show", ledger.run_id,
                     "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{len(outcomes)}/{len(outcomes)}" in out
        assert "wall" in out

    def test_cli_runs_show_json_out(self, tmp_path, capsys):
        ledger, outcomes = self.make_ledger(tmp_path)
        json_path = tmp_path / "agg.json"
        assert main(["runs", "show", "latest",
                     "--ledger-dir", str(tmp_path),
                     "--json-out", str(json_path)]) == 0
        capsys.readouterr()
        state = json.loads(json_path.read_text())
        restored = RunAggregate.from_dict(state)
        assert restored.finished == len(outcomes)
        assert restored.to_dict() \
            == summarize_run(ledger.path).to_dict()

    def test_cli_runs_tail(self, tmp_path, capsys):
        ledger, _ = self.make_ledger(tmp_path)
        assert main(["runs", "tail", ledger.run_id, "-n", "2",
                     "--ledger-dir", str(tmp_path)]) == 0
        lines = [line for line in
                 capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 2
        assert json.loads(lines[-1])["ev"] == "end"

    def test_cli_top_once(self, tmp_path, capsys):
        ledger, outcomes = self.make_ledger(tmp_path)
        assert main(["top", "--once",
                     "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{len(outcomes)}/{len(outcomes)}" in out
        assert "wall" in out


class TestSweepCliLedger:
    def test_sweep_ledger_matches_printed_table(self, tmp_path,
                                                capsys):
        code = main(["sweep", "cores", "2", "4",
                     "--warmup-ms", "0.5", "--duration-ms", "1",
                     "--ledger", "--ledger-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ledger:" in out
        (info,) = list_runs(tmp_path)
        assert info.finished
        rows = read_run(info.path)
        # Every row parses (iter_run would have raised otherwise) and
        # the fold accounts for every table row: 2 cores × 2 IOMMU
        # states = 4 runs.
        aggregate = summarize_run(info.path)
        assert aggregate.total == 4
        assert aggregate.done == 4
        assert aggregate.failed == 0
        assert events_of(rows, "finished")
