"""Tests for the Figure-1 fleet sampler and its streaming pipeline."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.scenario import ScenarioSpec
from repro.sim.fluid import fluid_inputs
from repro.sim.fluid_batch import (
    _CONST_ATTRS,
    _FLAG_ATTRS,
    _STATE_ATTRS,
    BatchFluidSolver,
)
from repro.workload.fleet import FleetSample, FleetSampler, substream_seed
from repro.workload.fleet_agg import (
    DROP_THRESHOLD,
    HIGH_UTIL,
    LOW_UTIL,
    LOW_UTIL_STRICT,
    FleetAggregate,
    FleetCheckpoint,
    density_rank_correlation,
    shard_bounds,
)


def test_draws_are_deterministic_for_seed():
    a = [FleetSampler(seed=5).draw_config(i).describe() for i in range(10)]
    b = [FleetSampler(seed=5).draw_config(i).describe() for i in range(10)]
    assert a == b


def test_draws_vary_across_hosts():
    sampler = FleetSampler(seed=5)
    descriptions = [sampler.draw_config(i).describe() for i in range(20)]
    assert len({tuple(sorted(d.items())) for d in descriptions}) > 5


def test_draws_cover_both_transports_and_iommu_states():
    sampler = FleetSampler(seed=5)
    configs = [sampler.draw_config(i) for i in range(50)]
    transports = {c.transport for c in configs}
    assert "swift" in transports and "cubic" in transports
    assert {c.host.iommu.enabled for c in configs} == {True, False}
    assert max(c.host.antagonist_cores for c in configs) >= 12


def test_run_produces_samples_with_bounded_fields():
    sampler = FleetSampler(seed=5, warmup=0.5e-3, duration=1e-3)
    samples = list(sampler.stream(2))
    assert len(samples) == 2
    for sample in samples:
        assert 0 <= sample.link_utilization <= 1.1
        assert 0 <= sample.drop_rate <= 1.0
        assert sample.transport in ("swift", "cubic")


def test_progress_callback():
    sampler = FleetSampler(seed=5, warmup=0.5e-3, duration=1e-3)
    seen = []
    sampler.run_aggregate(
        2, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


def test_substream_seeds_are_stable_and_distinct():
    # Pinned values: the substream derivation is part of the on-disk
    # checkpoint contract — changing it silently would make every
    # resumed population diverge from its checkpoint.
    assert substream_seed(7, 0) == substream_seed(7, 0)
    seeds = {substream_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert substream_seed(7, 3) != substream_seed(8, 3)


def test_draw_config_is_order_independent():
    sampler = FleetSampler(seed=11)
    forward = [sampler.draw_config(i).describe() for i in range(12)]
    backward = [FleetSampler(seed=11).draw_config(i).describe()
                for i in reversed(range(12))]
    assert forward == list(reversed(backward))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20),
       start=st.integers(min_value=0, max_value=10_000))
def test_column_draw_equals_draw_config(seed, start):
    """A range drawn into lane columns holds, field for field, what
    each host's ``draw_config`` holds, and steps from the same lanes.
    23 hosts span every stratum, from any start in the 20-host cycle."""
    sampler = FleetSampler(seed=seed, fidelity="fluid")
    indices = range(start, start + 23)
    draws = [sampler._draw(index) for index in indices]
    assert {draw.stratum for draw in draws} == set(
        dict(FleetSampler.STRATA))
    inputs = sampler._lane_inputs(draws)
    configs = [sampler.draw_config(index) for index in indices]
    for lane, (draw, config) in enumerate(zip(draws, configs)):
        expected = fluid_inputs(config)
        assert set(inputs) == set(expected)
        for name, value in expected.items():
            column = inputs[name]
            got = (column[lane] if isinstance(column, (list, tuple))
                   else column)
            assert type(got) is type(value) and got == value, (lane, name)
        host, wl = config.host, config.workload
        assert draw == (sampler._draw_class(indices[lane]),
                        host.cpu.cores, host.iommu.enabled,
                        host.hugepages, host.rx_region_bytes // 2**20,
                        host.antagonist_cores, wl.senders,
                        wl.offered_load, config.transport,
                        config.sim.seed, config.fabric.topology)
    columns = BatchFluidSolver.from_inputs(inputs)
    built = BatchFluidSolver(configs)
    for attr in (_CONST_ATTRS + _STATE_ATTRS + _FLAG_ATTRS
                 + ("n_receivers",)):
        assert (getattr(columns, attr).tobytes()
                == getattr(built, attr).tobytes()), attr


def exact_row(config):
    """A host's fluid inputs as a key that ``==`` cannot blur: each
    value by type and ``repr`` (which tells ``-0.0`` from ``0.0``)."""
    return tuple((name, type(value), repr(value))
                 for name, value in sorted(fluid_inputs(config).items()))


def test_shard_bounds_partition_exactly():
    for n_hosts in (0, 1, 7, 100):
        for shards in (1, 2, 3, 4, 9):
            bounds = shard_bounds(n_hosts, shards)
            covered = [i for start, stop in bounds
                       for i in range(start, stop)]
            assert covered == list(range(n_hosts)), (n_hosts, shards)


class TestStreaming:
    def sampler(self):
        # Fluid fidelity: the streaming-scale engine, and fast enough
        # to run dozens of hosts per test.
        return FleetSampler(seed=5, warmup=0.5e-3, duration=1e-3,
                            fidelity="fluid")

    def test_run_equals_stream_fold_order(self):
        # The scenario fleet driver's run folds the sampler's stream
        # into the same aggregate.
        spec = ScenarioSpec(
            name="fleet", driver="fleet", fidelity="fluid",
            base={"sim.warmup": 0.5e-3, "sim.duration": 1e-3},
            driver_args={"seed": 5, "n_hosts": 8})
        assert spec.run() == self.sampler().run_aggregate(8)

    def test_stream_carries_stratum_and_index(self):
        sampler = self.sampler()
        samples = list(sampler.stream(6))
        assert [s.host_index for s in samples] == list(range(6))
        assert all(s.stratum in dict(FleetSampler.STRATA)
                   for s in samples)

    def test_aggregate_identical_across_shards_and_workers(self):
        sampler = self.sampler()
        reference = sampler.run_aggregate(24)
        for shards in (2, 4):
            for workers in (1, 4):
                aggregate = sampler.run_aggregate(24, shards=shards,
                                                  workers=workers)
                assert aggregate == reference, (shards, workers)
        assert reference.hosts == 24
        assert reference.strata.total == 24

    def test_aggregate_matches_folded_run(self):
        sampler = self.sampler()
        folded = FleetAggregate()
        for sample in sampler.stream(16):
            folded.add(sample)
        assert folded == sampler.run_aggregate(16, shards=2)

    def test_stop_after_shard_then_resume_equals_clean(self, tmp_path):
        sampler = self.sampler()
        clean = sampler.run_aggregate(20, shards=4)
        checkpoint = tmp_path / "fleet.ckpt.json"
        partial = sampler.run_aggregate(20, shards=4,
                                        checkpoint=str(checkpoint),
                                        stop_after_shard=1)
        assert partial.hosts == 10  # shards 0 and 1 of 4
        resumed = sampler.run_aggregate(20, shards=4,
                                        checkpoint=str(checkpoint),
                                        resume=True)
        assert resumed == clean

    def test_resume_refuses_population_mismatch(self, tmp_path):
        checkpoint = tmp_path / "fleet.ckpt.json"
        self.sampler().run_aggregate(8, shards=2,
                                     checkpoint=str(checkpoint),
                                     stop_after_shard=0)
        with pytest.raises(ValueError, match="meta mismatch"):
            FleetSampler(seed=99, fidelity="fluid").run_aggregate(
                8, shards=2, checkpoint=str(checkpoint), resume=True)

    def test_checkpoint_roundtrip_and_merge(self, tmp_path):
        sampler = self.sampler()
        checkpoint = tmp_path / "fleet.ckpt.json"
        sampler.run_aggregate(12, shards=3,
                              checkpoint=str(checkpoint))
        loaded = FleetCheckpoint.load(checkpoint)
        assert all(record["done"]
                   for record in loaded.shards.values())
        assert loaded.merged() == sampler.run_aggregate(12)

    def test_shard_index_runs_only_that_shard(self):
        sampler = self.sampler()
        parts = [sampler.run_aggregate(12, shards=3, shard_index=k)
                 for k in range(3)]
        assert [p.hosts for p in parts] == [4, 4, 4]
        merged = FleetAggregate()
        for part in parts:
            merged.merge(part)
        assert merged == sampler.run_aggregate(12)

    def test_sigkill_then_resume_equals_clean(self, tmp_path):
        """A real mid-run kill: SIGKILL the child once the checkpoint
        shows progress, then resume to the clean answer."""
        sampler = self.sampler()
        clean = sampler.run_aggregate(16, shards=4)
        checkpoint = tmp_path / "fleet.ckpt.json"
        child_src = (
            "from repro.workload.fleet import FleetSampler\n"
            "FleetSampler(seed=5, warmup=0.5e-3, duration=1e-3,\n"
            "             fidelity='fluid').run_aggregate(\n"
            "    16, shards=4, checkpoint=%r, checkpoint_every=1)\n"
            % str(checkpoint))
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                 / "src")}
        victim = subprocess.Popen(
            [sys.executable, "-c", child_src], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            progressed = False
            while time.monotonic() < deadline and not progressed:
                if victim.poll() is not None:
                    break  # finished before we could kill: still fine
                try:
                    state = json.loads(checkpoint.read_text())
                    progressed = any(
                        record["cursor"] > shard_bounds(16, 4)[int(k)][0]
                        for k, record in state["shards"].items())
                except (FileNotFoundError, json.JSONDecodeError):
                    pass
                time.sleep(0.01)
        finally:
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait()
        resumed = sampler.run_aggregate(16, shards=4,
                                        checkpoint=str(checkpoint),
                                        resume=True)
        assert resumed == clean


class TestBatchedBackend:
    """The lane-batched fluid backend must be observationally
    identical to the scalar one: same seed, equal aggregates (the
    aggregate's own exact ``__eq__``) across every sharding, worker
    count, and batch size — ISSUE 9's acceptance matrix."""

    def sampler(self):
        return FleetSampler(seed=5, warmup=0.5e-3, duration=1e-3,
                            fidelity="fluid")

    def test_backend_resolution(self):
        fluid = self.sampler()
        assert fluid.resolve_backend("auto") == "batched"
        assert fluid.resolve_backend("scalar") == "scalar"
        assert fluid.resolve_backend("batched") == "batched"
        packet = FleetSampler(fidelity="packet")
        assert packet.resolve_backend("auto") == "scalar"
        with pytest.raises(ValueError, match="fidelity='fluid'"):
            packet.resolve_backend("batched")
        with pytest.raises(ValueError, match="backend must be"):
            fluid.resolve_backend("vectorized")

    def test_fluid_fleet_defaults_to_batched(self):
        # "auto" (the run_aggregate default) must take the batched
        # path for fluid fleets and still equal an explicit scalar run.
        sampler = self.sampler()
        assert (sampler.run_aggregate(40)
                == sampler.run_aggregate(40, backend="scalar"))

    @pytest.mark.parametrize("shards", (1, 2))
    @pytest.mark.parametrize("workers", (1, 4))
    @pytest.mark.parametrize("batch_size", (1, 64, 4096))
    def test_equals_scalar_across_matrix(self, shards, workers,
                                         batch_size):
        sampler = self.sampler()
        scalar = sampler.run_aggregate(50, backend="scalar")
        batched = sampler.run_aggregate(50, shards=shards,
                                        workers=workers,
                                        backend="batched",
                                        batch_size=batch_size)
        assert batched == scalar, (shards, workers, batch_size)
        assert batched.hosts == 50

    def test_non_star_host_falls_back_to_scalar_alone(self,
                                                      monkeypatch):
        """A range whose draws include one multi-tier host still
        steps its star hosts as one lane set; only that host runs on
        the scalar solver, and every outcome equals a scalar run."""
        from repro.core import experiment
        from repro.sim import fluid_batch

        sampler = self.sampler()
        draw = sampler._draw

        def draw_host(index):
            host = draw(index)
            if index == 3:
                host = host._replace(topology="dumbbell")
            return host

        from_inputs = fluid_batch.BatchFluidSolver.from_inputs
        run_experiment = experiment.run_experiment
        batches, scalar_runs = [], []

        def spy_batch(inputs):
            solver = from_inputs(inputs)
            batches.append(solver.n)
            return solver

        def spy_run(config):
            scalar_runs.append(config.fabric.topology)
            return run_experiment(config)

        monkeypatch.setattr(sampler, "_draw", draw_host)
        monkeypatch.setattr(fluid_batch.BatchFluidSolver, "from_inputs",
                            spy_batch)
        monkeypatch.setattr(experiment, "run_experiment", spy_run)
        state, rows = sampler._solve_range(0, 12, 0.01, True)
        # One lane per distinct fluid input row of the 11 star hosts.
        assert batches == [len({
            exact_row(sampler.draw_config(index))
            for index in range(12) if index != 3})]
        assert scalar_runs == ["dumbbell"]
        assert FleetAggregate.from_dict(state).hosts == 12
        assert [index for index, _, _ in rows] == list(range(12))
        assert sampler.draw_config(3).fabric.topology == "dumbbell"
        for index, kind, payload in rows:
            assert kind == "ok"
            metrics = run_experiment(sampler.draw_config(index)).metrics
            assert payload == {key: metrics[key] for key in payload}

    def test_repeated_hosts_share_a_lane_and_fold_as_scalar_runs(
            self, monkeypatch):
        """Hosts whose fluid inputs repeat another's (same draws, but
        their own seed and stratum) step as one lane; each still folds
        under its own stratum, and the aggregate and every host row
        equal the scalar runs of the same hosts."""
        from repro.core import experiment
        from repro.sim import fluid_batch

        sampler = self.sampler()
        draw = sampler._draw

        def draw_host(index):
            host = draw(index)
            if index % 3 == 0:  # 0, 3, 6, ... repeat host 1's draws
                host = draw(1)._replace(seed=host.seed,
                                        stratum=host.stratum)
            return host

        from_inputs = fluid_batch.BatchFluidSolver.from_inputs
        batches = []

        def spy_batch(inputs):
            solver = from_inputs(inputs)
            batches.append(solver.n)
            return solver

        monkeypatch.setattr(sampler, "_draw", draw_host)
        monkeypatch.setattr(fluid_batch.BatchFluidSolver, "from_inputs",
                            spy_batch)
        n_hosts = 24
        configs = [sampler.draw_config(index) for index in range(n_hosts)]
        assert len({draw_host(i).seed for i in range(n_hosts)}) == n_hosts
        assert len({draw_host(i).stratum for i in range(0, n_hosts, 3)
                    }) > 1
        state, rows = sampler._solve_range(0, n_hosts, 0.01, True)
        assert batches == [len(set(map(exact_row, configs)))]
        assert batches[0] <= n_hosts - n_hosts // 3
        assert (FleetAggregate.from_dict(state)
                == sampler.run_aggregate(n_hosts, backend="scalar"))
        for (index, kind, payload), config in zip(rows, configs):
            assert kind == "ok"
            metrics = experiment.run_experiment(config).metrics
            assert payload == {key: metrics[key] for key in payload}

    def test_host_failing_alone_is_counted_and_the_rest_fold(
            self, monkeypatch):
        """When the batch raises, every star host runs alone; one that
        fails there too is counted by ``add_failed`` and reported as an
        error row, and the others fold as the batch would fold them."""
        from repro.core import experiment
        from repro.sim import fluid_batch

        sampler = self.sampler()
        expected = FleetAggregate.from_dict(
            sampler._solve_range(0, 5, 0.01, False)[0])
        expected.merge(FleetAggregate.from_dict(
            sampler._solve_range(6, 12, 0.01, False)[0]))
        expected.add_failed(None)
        failing = sampler.draw_config(5)
        run_experiment = experiment.run_experiment

        def no_batch(inputs):
            raise RuntimeError("no lanes")

        def run(config):
            if config == failing:
                raise ValueError("host 5")
            return run_experiment(config)

        monkeypatch.setattr(fluid_batch.BatchFluidSolver, "from_inputs",
                            no_batch)
        monkeypatch.setattr(experiment, "run_experiment", run)
        state, rows = sampler._solve_range(0, 12, 0.01, True)
        assert FleetAggregate.from_dict(state) == expected
        assert [(index, kind) for index, kind, _ in rows] == [
            (index, "error" if index == 5 else "ok") for index in range(12)]
        assert rows[5][2] == {"error": repr(ValueError("host 5"))}
        metrics = run_experiment(sampler.draw_config(4)).metrics
        assert rows[4][2] == {key: metrics[key] for key in rows[4][2]}

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            self.sampler().run_aggregate(8, batch_size=0)

    def test_batched_checkpoint_resume_equals_clean(self, tmp_path):
        """stop_after_shard on the batched path, then resume — the
        resumed merged aggregate must equal an uninterrupted batched
        run and therefore the scalar answer too."""
        sampler = self.sampler()
        clean = sampler.run_aggregate(20, shards=4, backend="batched",
                                      batch_size=3)
        checkpoint = tmp_path / "fleet.ckpt.json"
        partial = sampler.run_aggregate(20, shards=4,
                                        backend="batched",
                                        batch_size=3,
                                        checkpoint=str(checkpoint),
                                        stop_after_shard=1)
        assert partial.hosts == 10  # shards 0 and 1 of 4
        resumed = sampler.run_aggregate(20, shards=4,
                                        backend="batched",
                                        batch_size=3,
                                        checkpoint=str(checkpoint),
                                        resume=True)
        assert resumed == clean
        assert resumed == sampler.run_aggregate(20, backend="scalar")

    def test_batched_emits_per_host_events(self):
        events = []
        sampler = self.sampler()
        sampler.run_aggregate(12, events=events.append)
        finished = [e for e in events if e.get("ev") == "finished"]
        assert len(finished) == 12
        assert sorted(e["index"] for e in finished) == list(range(12))
        for event in finished:
            assert "link_utilization" in event["metrics"]


class TestFleetAggregate:
    def sample(self, **kwargs):
        defaults = dict(host_index=0, link_utilization=0.5,
                        drop_rate=0.01, transport="swift", cores=12,
                        antagonist_cores=0, iommu=True,
                        hugepages=True, stratum="lean")
        defaults.update(kwargs)
        return FleetSample(**defaults)

    def test_counters_and_fractions(self):
        aggregate = FleetAggregate()
        aggregate.add(self.sample(link_utilization=0.95,
                                  drop_rate=0.01))
        aggregate.add(self.sample(link_utilization=0.3,
                                  drop_rate=0.0))
        aggregate.add(self.sample(link_utilization=0.4,
                                  drop_rate=0.02))
        assert aggregate.hosts == 3
        assert aggregate.droppers == 2
        assert aggregate.low_util_droppers == 1
        assert aggregate.drop_fraction_high_util == 1.0
        assert aggregate.drop_fraction_low_util == 0.5
        assert aggregate.dropper_fraction == pytest.approx(2 / 3)

    def test_merge_is_associative_and_commutative(self):
        parts = []
        for offset in range(3):
            part = FleetAggregate()
            for i in range(4):
                part.add(self.sample(
                    host_index=offset * 4 + i,
                    link_utilization=0.1 * (offset * 4 + i),
                    drop_rate=0.001 * i))
            parts.append(part)
        left = FleetAggregate()
        for part in parts:
            left.merge(part)
        right = FleetAggregate()
        for part in reversed(parts):
            right.merge(part)
        assert left == right
        assert left.hosts == 12

    def test_merge_rejects_alpha_mismatch(self):
        with pytest.raises(ValueError, match="alpha"):
            FleetAggregate(alpha=0.01).merge(FleetAggregate(alpha=0.1))

    def test_serialization_roundtrip(self):
        aggregate = FleetAggregate()
        for i in range(10):
            aggregate.add(self.sample(host_index=i,
                                      link_utilization=0.1 * i,
                                      drop_rate=0.005 * (i % 3)))
        restored = FleetAggregate.from_dict(
            json.loads(json.dumps(aggregate.to_dict())))
        assert restored == aggregate
        assert restored.stratum_median(
            "lean", "link_utilization") == pytest.approx(
                aggregate.stratum_median("lean", "link_utilization"))

    def test_rank_correlation_sign(self):
        positive = FleetAggregate()
        for i in range(40):
            positive.add(self.sample(host_index=i,
                                     link_utilization=i / 40,
                                     drop_rate=1e-5 * (1 + i)))
        assert positive.rank_correlation() > 0.9
        negative = FleetAggregate()
        for i in range(40):
            negative.add(self.sample(host_index=i,
                                     link_utilization=i / 40,
                                     drop_rate=1e-5 * (41 - i)))
        assert negative.rank_correlation() < -0.9
        assert density_rank_correlation(
            FleetAggregate().density) == 0.0

    @staticmethod
    def reference_add(aggregate, sample):
        """The per-sample fold, one ``observe`` per sketch: the
        reference the batched fold must match bit for bit."""
        utilization = float(sample.link_utilization)
        drop_rate = float(sample.drop_rate)
        aggregate.hosts += 1
        dropper = drop_rate > DROP_THRESHOLD
        if dropper:
            aggregate.droppers += 1
            if utilization < LOW_UTIL_STRICT:
                aggregate.low_util_droppers += 1
        if utilization > HIGH_UTIL:
            aggregate.high_util_hosts += 1
            if dropper:
                aggregate.high_util_droppers += 1
        if utilization < LOW_UTIL:
            aggregate.low_util_hosts += 1
            if dropper:
                aggregate.low_util_band_droppers += 1
        stratum = sample.stratum or "unknown"
        cause = sample.congestion_class
        aggregate.strata.add(stratum)
        aggregate.root_causes.add(cause)
        aggregate.transports.add(sample.transport)
        aggregate.drop_sketch.observe(drop_rate)
        aggregate.util_sketch.observe(utilization)
        for key, value in (("drop_rate", drop_rate),
                           ("link_utilization", utilization)):
            for table, label in ((aggregate.stratum_sketches, stratum),
                                 (aggregate.cause_sketches, cause)):
                aggregate._group(table, label)[key].observe(value)
        aggregate.density.observe(utilization, drop_rate)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hosts=st.lists(st.one_of(
        st.sampled_from(("timeout", "error")),
        st.tuples(
            st.one_of(st.sampled_from((0.3, 0.5, 0.6, 0.85, 0.9)),
                      st.floats(min_value=0.0, max_value=1.1)),
            st.one_of(st.sampled_from((0.0, 1e-4, 2e-4, 1e-13)),
                      st.floats(min_value=0.0, max_value=1.0)),
            st.sampled_from(("lean", "antagonized", "")),
            st.sampled_from(("swift", "cubic")),
            st.sampled_from((4, 12)), st.sampled_from((0, 8)),
            st.booleans())), max_size=40))
    def test_batched_fold_equals_per_sample_fold(self, hosts):
        class Failed:
            def __init__(self, kind):
                self.kind = kind

        reference, one_by_one, batched = (FleetAggregate(),
                                          FleetAggregate(),
                                          FleetAggregate())
        samples = []
        for index, host in enumerate(hosts):
            if isinstance(host, str):
                for aggregate in (reference, one_by_one, batched):
                    aggregate.add_failed(Failed(host))
                continue
            (utilization, drop_rate, stratum, transport, cores,
             antagonist, iommu) = host
            sample = self.sample(
                host_index=index, link_utilization=utilization,
                drop_rate=drop_rate, stratum=stratum, transport=transport,
                cores=cores, antagonist_cores=antagonist, iommu=iommu)
            self.reference_add(reference, sample)
            one_by_one.add(sample)
            samples.append(sample)
        batched.add_columns(
            [sample.link_utilization for sample in samples],
            [sample.drop_rate for sample in samples],
            [sample.stratum for sample in samples],
            [sample.transport for sample in samples],
            [sample.congestion_class for sample in samples])
        assert batched.to_dict() == reference.to_dict()
        assert one_by_one.to_dict() == reference.to_dict()

    def test_failed_hosts_are_counted_not_folded(self):
        class Failed:
            kind = "timeout"

        aggregate = FleetAggregate()
        aggregate.add(self.sample())
        aggregate.add_failed(Failed())
        assert aggregate.hosts == 1
        assert aggregate.failed == 1
        assert aggregate.failure_kinds.get("timeout") == 1


class TestCongestionClass:
    def sample(self, **kwargs):
        defaults = dict(host_index=0, link_utilization=0.5,
                        drop_rate=0.01, transport="swift", cores=12,
                        antagonist_cores=0, iommu=True, hugepages=True)
        defaults.update(kwargs)
        return FleetSample(**defaults)

    def test_memory_bus_label(self):
        assert self.sample(
            antagonist_cores=12).congestion_class == "memory-bus"

    def test_iommu_label(self):
        assert self.sample(cores=12).congestion_class == "iommu"

    def test_benign_label(self):
        assert self.sample(
            cores=4, iommu=False).congestion_class == "cpu-or-none"
