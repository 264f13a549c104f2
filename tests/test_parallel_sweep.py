"""Parallel sweep execution: serial equivalence, failure surfacing.

The contract under test (repro.core.parallel): a sweep run with
``workers=N`` produces a ResultTable *bit-identical* to the serial run
(same seeds, same table order), worker exceptions abort the sweep with
the offending config attached, and per-run timeouts degrade to
structured FailedRun placeholders instead of sinking the sweep.
"""

import dataclasses
import time

import pytest

from repro.core.cache import ResultCache
from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
    baseline_config,
)
from repro.core.experiment import run_experiment
from repro.core.parallel import (
    RunOutcome,
    SweepRunError,
    map_stream,
    resolve_workers,
    run_many,
    run_stream,
)
from repro.core.results import FailedRun
from repro.core.scenario import ScenarioSpec, SweepAxis, run_configs
from repro.workload.fleet import FleetSampler


def cores_sweep(cores, iommu_states=(True, False)):
    """Figure-3-shaped configs (IOMMU outer, cores inner), tiny runs."""
    spec = ScenarioSpec(name="cores", axes=(
        SweepAxis("host.iommu.enabled", iommu_states),
        SweepAxis("host.cpu.cores", cores)))
    return spec.expand(base=baseline_config(warmup=0.5e-3, duration=1e-3))


def tiny_config(seed=3, cores=2, senders=4):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=cores)),
        workload=WorkloadConfig(senders=senders),
        sim=SimConfig(warmup=0.5e-3, duration=1e-3, seed=seed),
    )


def crashing_config():
    """A config that passes validation but explodes inside the worker.

    Pickling a dataclass restores ``__dict__`` without re-running
    ``__post_init__``, so the bad transport travels to the worker and
    fails at graph-build time — a stand-in for any mid-run crash.
    """
    config = tiny_config()
    object.__setattr__(config, "transport", "definitely-not-a-cc")
    return config


def fluid_repeats():
    """Five fluid star configs in two solves: cores 2 at seeds 3/4/5
    and cores 4 at seeds 3/4, interleaved."""
    return [dataclasses.replace(tiny_config(seed=seed, cores=cores),
                                fidelity="fluid")
            for seed, cores in ((3, 2), (3, 4), (4, 2), (4, 4), (5, 2))]


def failing_fluid_config(seed):
    """A fluid config whose solve raises (zero cores, set past
    validation); every seed shares one solve key."""
    cpu = CpuConfig(cores=2)
    object.__setattr__(cpu, "cores", 0)
    config = tiny_config(seed=seed)
    return dataclasses.replace(
        config, host=dataclasses.replace(config.host, cpu=cpu),
        fidelity="fluid")


def sleep_then_stamp(delay, value):
    """Pool task: finish after ``delay`` seconds, report when."""
    time.sleep(delay)
    return value, time.monotonic()


def touch_or_fail(path, fail):
    """Pool task: raise at once, or leave a marker file a little later."""
    if fail:
        raise RuntimeError("task failed")
    time.sleep(0.1)
    path.touch()


class TestResolveWorkers:
    def test_serial_spellings(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit_count(self):
        assert resolve_workers(6) == 6

    def test_auto_leaves_one_core(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers("auto") == 7
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers("auto") == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestSerialEquivalence:
    def test_parallel_table_is_bit_identical(self):
        serial = run_configs(cores_sweep((2, 4)))
        parallel = run_configs(cores_sweep((2, 4)), workers=2)
        assert serial == parallel
        for a, b in zip(serial, parallel):
            assert a.metrics == b.metrics
            assert a.params == b.params
            assert a.message_latency_us == b.message_latency_us

    def test_table_order_matches_config_order(self):
        table = run_configs(cores_sweep((2, 4), (True,)), workers=2)
        assert table.column("cores") == [2, 4]

    def test_snapshots_identical_and_in_order(self):
        snaps_serial: list = []
        snaps_parallel: list = []
        run_configs(cores_sweep((2, 4), (True,)),
                    snapshots_out=snaps_serial)
        run_configs(cores_sweep((2, 4), (True,)), workers=2,
                    snapshots_out=snaps_parallel)
        assert snaps_serial == snaps_parallel
        assert [s["meta"]["params"]["cores"] for s in snaps_parallel] \
            == [2, 4]

    def test_progress_called_once_per_run(self):
        seen = []
        run_configs([tiny_config(seed=s) for s in (1, 2, 3)], workers=2,
                    progress=lambda i, r: seen.append(i))
        assert sorted(seen) == [0, 1, 2]

    def test_fleet_samples_identical(self):
        sampler = FleetSampler(seed=7, warmup=0.5e-3, duration=1e-3)
        serial = list(sampler.stream(4))
        parallel = list(sampler.stream(4, workers=2))
        assert serial == parallel


class TestFailureSurfacing:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_crash_aborts_with_config_attached(self, workers):
        bad = crashing_config()
        with pytest.raises(SweepRunError) as excinfo:
            run_configs([tiny_config(), bad], workers=workers)
        err = excinfo.value
        assert err.index == 1
        assert err.config.transport == "definitely-not-a-cc"
        assert "unknown congestion control" in str(err)

    def test_worker_traceback_preserved(self):
        with pytest.raises(SweepRunError) as excinfo:
            run_configs([crashing_config()], workers=2)
        assert "ValueError" in excinfo.value.worker_traceback

    @pytest.mark.parametrize("workers", [None, 2])
    def test_timeout_becomes_failed_run(self, workers):
        table = run_configs([tiny_config(), tiny_config(seed=9)],
                            workers=workers, timeout=1e-4)
        failures = table.failures()
        assert len(failures) == 2
        for failed in failures:
            assert isinstance(failed, FailedRun)
            assert failed.kind == "timeout"
            assert failed.params["failed"] is True
            assert failed.metrics == {}
        assert len(table.ok()) == 0

    def test_timeout_does_not_sink_fast_runs(self):
        # Generous budget: the tiny runs finish, nothing fails.
        table = run_configs([tiny_config()], timeout=120.0)
        assert table.failures() == []
        assert table.ok().results == table.results

    def test_failed_run_row_exports_flat(self):
        failed = FailedRun.from_config(tiny_config(), kind="timeout",
                                       error="boom", elapsed_s=0.5)
        row = failed.as_flat_dict()
        assert row["failed"] is True
        assert row["error"] == "boom"
        assert row["failure_kind"] == "timeout"


class TestRunMany:
    def test_outcomes_are_indexed_and_ordered(self):
        configs = [tiny_config(seed=s) for s in (5, 6)]
        outcomes = run_many(configs, workers=2)
        assert [o.index for o in outcomes] == [0, 1]
        assert all(isinstance(o, RunOutcome) for o in outcomes)
        assert [o.result.params["seed"] for o in outcomes] == [5, 6]
        assert all(not o.cached for o in outcomes)

    def test_no_snapshot_unless_requested(self):
        (outcome,) = run_many([tiny_config()])
        assert outcome.snapshot is None
        (outcome,) = run_many([tiny_config()], want_snapshots=True)
        assert "meta" in outcome.snapshot


class TestRunStream:
    def test_matches_run_many_serial_and_pooled(self):
        configs = [tiny_config(seed=s) for s in (3, 4, 5, 6)]
        reference = [(o.index, o.result)
                     for o in run_many(list(configs))]
        serial = [(o.index, o.result)
                  for o in run_stream(iter(configs))]
        pooled = [(o.index, o.result)
                  for o in run_stream(iter(configs), workers=2)]
        assert serial == reference
        assert pooled == reference

    def test_consumes_configs_lazily(self):
        """The config iterable must be drawn incrementally: at most
        the in-flight window ahead of what has been yielded."""
        drawn = []

        def configs():
            for seed in range(3, 11):
                drawn.append(seed)
                yield tiny_config(seed=seed)

        stream = run_stream(configs(), workers=2, window=2)
        first = next(stream)
        assert first.index == 0
        # One yielded + at most the window drawn ahead.
        assert len(drawn) <= 4
        rest = list(stream)
        assert len(rest) == 7
        assert len(drawn) == 8

    def test_start_index_offsets_outcomes(self):
        configs = [tiny_config(seed=s) for s in (3, 4)]
        outcomes = list(run_stream(iter(configs), start_index=10))
        assert [o.index for o in outcomes] == [10, 11]

    def test_failures_keep_yields_failed_run(self):
        configs = [tiny_config(seed=3), crashing_config(),
                   tiny_config(seed=4)]
        outcomes = list(run_stream(iter(configs), failures="keep"))
        assert len(outcomes) == 3
        assert isinstance(outcomes[1].result, FailedRun)
        assert outcomes[1].result.kind == "error"
        assert not getattr(outcomes[0].result, "failed", False)

    def test_failures_raise_aborts_with_config(self):
        configs = [crashing_config(), tiny_config(seed=3)]
        with pytest.raises(SweepRunError) as excinfo:
            list(run_stream(iter(configs), failures="raise"))
        assert excinfo.value.index == 0

    def test_rejects_bad_failures_mode(self):
        with pytest.raises(ValueError):
            list(run_stream(iter([tiny_config()]), failures="ignore"))

    def test_events_stream_lifecycle(self):
        events = []
        list(run_stream(iter([tiny_config(seed=3)]),
                        events=events.append))
        kinds = [event["ev"] for event in events]
        assert "started" in kinds and "finished" in kinds

    def test_abandoning_the_stream_stops_cleanly(self):
        stream = run_stream(
            (tiny_config(seed=s) for s in range(3, 30)), workers=2)
        first = next(stream)
        assert first.index == 0
        stream.close()  # GeneratorExit must cancel queued work


class TestMapStream:
    def test_results_in_task_order_when_tasks_finish_in_reverse(self):
        tasks = [(0.6, "a"), (0.3, "b"), (0.0, "c")]
        results = list(map_stream(sleep_then_stamp, tasks, workers=2))
        assert [pos for pos, _ in results] == [0, 1, 2]
        assert [value for _, (value, _) in results] == ["a", "b", "c"]
        finished = [stamp for _, (_, stamp) in results]
        assert finished[1] < finished[0] and finished[2] < finished[0]

    def test_draws_at_most_window_tasks_ahead(self):
        drawn = []

        def tasks():
            for n in range(10):
                drawn.append(n)
                yield (0.0, n)

        stream = map_stream(sleep_then_stamp, tasks(), workers=2, window=3)
        yielded = 0
        for position, (value, _) in stream:
            assert position == value == yielded
            yielded += 1
            assert len(drawn) <= yielded + 3
        assert yielded == len(drawn) == 10

    def test_exception_propagates_and_cancels_queued_tasks(self, tmp_path):
        tasks = [(tmp_path / "0", True)] + [
            (tmp_path / str(n), False) for n in range(1, 16)]
        with pytest.raises(RuntimeError, match="task failed"):
            list(map_stream(touch_or_fail, tasks, workers=2, window=16))
        # Uncancelled, the 15 tasks would all be done in under a
        # second; only those already handed to a worker may run.
        time.sleep(2.0)
        assert len(list(tmp_path.iterdir())) < 8


class TestRunManyWithCache:
    def test_cache_hit_plus_pool_keeps_order_and_reports_hits_first(
            self, tmp_path):
        configs = [tiny_config(seed=s) for s in (3, 4, 5)]
        cache = ResultCache(tmp_path / "cache")
        run_many([configs[1]], cache=cache)
        events = []
        outcomes = run_many(configs, workers=2, cache=cache,
                            events=events.append)
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.cached for o in outcomes] == [False, True, False]
        reference = run_many(configs)
        assert [o.result for o in outcomes] == \
            [o.result for o in reference]
        kinds = [event["ev"] for event in events]
        assert kinds.count("cached") == 1 and kinds.count("finished") == 2
        assert kinds.index("cached") < kinds.index("finished")


class TestSharedSolves:
    """Configs with one solve key run once; every member still gets a
    result, snapshot, cache entry and progress call of its own."""

    def test_fan_out_is_invisible(self, tmp_path):
        configs = fluid_repeats()
        cache = ResultCache(tmp_path / "cache")
        runs = {
            "serial": run_many(configs, want_snapshots=True),
            "pooled": run_many(configs, workers=2, want_snapshots=True),
            "cold": run_many(configs, want_snapshots=True, cache=cache),
            "warm": run_many(configs, want_snapshots=True, cache=cache),
        }
        assert all(o.cached for o in runs["warm"])
        alone = []
        for config in configs:
            handles = []
            result = run_experiment(config, handle_out=handles)
            alone.append((result, handles[0].metrics_snapshot()))
        for outcomes in runs.values():
            assert [(o.result, o.snapshot) for o in outcomes] == alone
        for config, outcome in zip(configs, runs["serial"]):
            assert outcome.snapshot["meta"]["params"] == config.describe()
        # Members own their copies: changing one changes no other.
        first, shared = runs["serial"][0], runs["serial"][2]
        first.result.metrics.clear()
        first.snapshot["counters"].clear()
        assert shared.result.metrics and shared.snapshot["counters"]

    def test_each_member_has_its_own_cache_entry(self, tmp_path):
        configs = fluid_repeats()
        cache = ResultCache(tmp_path / "cache")
        run_many(configs, cache=cache)
        assert cache.stats().entries == len(configs)
        (hit,) = run_many([configs[4]], cache=cache, want_snapshots=True)
        assert hit.cached
        assert hit.result.params["seed"] == 5
        assert hit.snapshot["meta"]["params"]["seed"] == 5

    @pytest.mark.parametrize("workers", [None, 2])
    def test_progress_fires_once_per_config(self, workers):
        calls = []
        run_many(fluid_repeats(), workers=workers,
                 progress=lambda index, result: calls.append(
                     (index, result.params["seed"])))
        assert sorted(calls) == [(0, 3), (1, 3), (2, 4), (3, 4), (4, 5)]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_raising_group_fails_every_member(self, workers):
        configs = [failing_fluid_config(7), *fluid_repeats()[:2],
                   failing_fluid_config(8)]
        outcomes = run_many(configs, workers=workers, failures="keep")
        for index in (0, 3):
            failed = outcomes[index].result
            assert isinstance(failed, FailedRun)
            assert failed.kind == "error"
            assert failed.exception_type == "ZeroDivisionError"
            assert failed.params["seed"] == configs[index].sim.seed
        assert outcomes[1].result.metrics["app_throughput_gbps"] > 0

    def test_raising_group_names_its_first_member(self):
        configs = [*fluid_repeats()[:2], failing_fluid_config(7),
                   failing_fluid_config(8)]
        with pytest.raises(SweepRunError) as info:
            run_many(configs)
        assert info.value.index == 2
        assert info.value.config is configs[2]

    def test_timed_out_group_fails_every_member(self):
        configs = fluid_repeats()
        outcomes = run_many(configs, timeout=1e-9, failures="keep")
        for config, outcome in zip(configs, outcomes):
            assert outcome.result.kind == "timeout"
            assert outcome.result.params == {**config.describe(),
                                             "failed": True}
