"""Property tests for the batched fluid solver and cohort grouping.

The batched backend's whole claim is *exactness*: for any star-fabric
config the scalar fluid solver accepts, a :class:`BatchFluidSolver`
lane must reproduce the scalar trajectory bit for bit, whatever the
other lanes of its batch are (the fleet aggregate's equality is exact,
so "close" is not good enough).  These tests sweep the config space
hypothesis-style — transport, offered load, IOMMU, hugepages, cores,
antagonists — and assert per-host state, accumulator, and
headline-metric equality, plus the cohort-grouping invariants the fleet
driver relies on (exact partition by fabric topology; a key never
splits identical configs)."""

import ast
import dataclasses
import inspect
import itertools
import textwrap
import types
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    FabricConfig,
    HostConfig,
    IommuConfig,
    LinkConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.sim import fluid, fluid_batch
from repro.sim.fluid import FluidSolver, _where, fluid_inputs
from repro.sim.fluid_batch import (
    _ACC_ATTRS,
    _CONST_ATTRS,
    _FLAG_ATTRS,
    _STATE_ATTRS,
    BatchFluidSolver,
    distinct_lanes,
)
from repro.workload.fleet import FleetSampler, cohort_key, group_cohorts

WARMUP = 0.5e-3
DURATION = 1e-3
END = WARMUP + DURATION


def make_config(transport, offered, iommu, hugepages, cores,
                antagonist, senders, region_mb,
                one_way_delay=LinkConfig().one_way_delay
                ) -> ExperimentConfig:
    return ExperimentConfig(
        host=HostConfig(
            cpu=CpuConfig(cores=cores),
            iommu=IommuConfig(enabled=iommu),
            hugepages=hugepages,
            rx_region_bytes=region_mb * 2**20,
            antagonist_cores=antagonist,
        ),
        workload=WorkloadConfig(senders=senders, offered_load=offered),
        link=LinkConfig(one_way_delay=one_way_delay),
        transport=transport,
        fidelity="fluid",
        sim=SimConfig(warmup=WARMUP, duration=DURATION, seed=1),
    )


#: The fleet sampler's config space (and a bit beyond it): every
#: structural branch combination times a spread of continuous knobs.
config_space = st.builds(
    make_config,
    transport=st.sampled_from(("swift", "cubic")),
    offered=st.sampled_from((None, 0.25, 0.55, 0.7, 0.95)),
    iommu=st.booleans(),
    hugepages=st.booleans(),
    cores=st.sampled_from((2, 4, 8, 12, 16)),
    antagonist=st.sampled_from((0, 4, 8, 15)),
    senders=st.sampled_from((10, 20, 40)),
    region_mb=st.sampled_from((4, 8, 16)),
    # Per-lane step size: dt is one base RTT (floored at 1 µs).
    one_way_delay=st.sampled_from((0.0, 2.5e-6, 5e-6, 10e-6, 12.5e-6)),
)


def solve_scalar(config) -> FluidSolver:
    solver = FluidSolver(config)
    solver.run_until(WARMUP)
    solver.reset_stats()
    solver.run_until(END)
    return solver


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_lane_matches_scalar(batch: BatchFluidSolver, lane: int,
                               scalar: FluidSolver) -> None:
    """Lane ``lane`` of ``batch`` must carry the bits of the solved
    ``scalar``, for every state variable, the step count and every
    accumulator the batch keeps (the scalar solver alone accumulates
    the rest of ``FluidRun``)."""
    assert batch.steps.dtype == np.int64
    assert int(batch.steps[lane]) == scalar.steps
    for attr in _STATE_ATTRS:
        assert bits(getattr(batch, attr)[lane]) == bits(
            getattr(scalar, attr)), f"state {attr} diverged"
    for attr in _ACC_ATTRS:
        assert bits(getattr(batch.run, attr)[lane]) == bits(
            getattr(scalar.run, attr)), f"accumulator {attr} diverged"


def assert_lanes_equal_scalar_attributes(batch: BatchFluidSolver,
                                        configs) -> None:
    """Every lane constant, flag and time-zero state value of ``batch``
    must carry the bits of the matching attribute of a built
    :class:`FluidSolver` (one copy of every constant formula)."""
    for lane, config in enumerate(configs):
        scalar = FluidSolver(config)
        for attr in _CONST_ATTRS + _STATE_ATTRS:
            lane_bits = getattr(batch, attr)[lane].tobytes()
            assert lane_bits == np.float64(getattr(scalar, attr)).tobytes(), \
                (lane, attr)
        for attr in _FLAG_ATTRS:
            assert bool(getattr(batch, attr)[lane]) is getattr(scalar, attr)
        assert int(batch.steps[lane]) == scalar.steps == 0
        assert batch.n_receivers[lane] == config.workload.receivers


@settings(max_examples=25, deadline=None)
@given(configs=st.lists(config_space, min_size=1, max_size=4))
def test_column_derivation_equals_the_scalar_solver(configs):
    assert_lanes_equal_scalar_attributes(BatchFluidSolver(configs),
                                         configs)


@settings(max_examples=25, deadline=None)
@given(config=config_space)
def test_single_lane_matches_scalar_bit_for_bit(config):
    batch = BatchFluidSolver([config])
    batch.run_until(WARMUP)
    batch.reset_stats()
    batch.run_until(END)
    assert_lane_matches_scalar(batch, 0, solve_scalar(config))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20),
       start=st.integers(min_value=0, max_value=997))
def test_fleet_cohorts_match_scalar_per_host(seed, start):
    """A window of the real fleet population, batched as the fleet
    driver batches it, must reproduce every host's scalar trajectory —
    including hosts frozen by the active mask while slower-``dt``
    batch-mates catch up."""
    sampler = FleetSampler(seed=seed, warmup=WARMUP,
                           duration=DURATION, fidelity="fluid")
    indexed = [(i, sampler.draw_config(i))
               for i in range(start, start + 24)]
    configs = dict(indexed)
    cohorts = group_cohorts(indexed)
    seen = []
    for indices in cohorts.values():
        batch = BatchFluidSolver([configs[i] for i in indices])
        batch.run_until(WARMUP)
        batch.reset_stats()
        batch.run_until(END)
        for lane, index in enumerate(indices):
            assert_lane_matches_scalar(batch, lane,
                                       solve_scalar(configs[index]))
        seen.extend(indices)
    assert sorted(seen) == [i for i, _ in indexed]


@settings(max_examples=25, deadline=None)
@given(config=config_space)
def test_fleet_metrics_match_scalar_pipeline(config):
    """The batch's headline metrics must be bitwise equal to the
    scalar experiment pipeline's (these are the values the fleet
    aggregate sketches, where equality is exact)."""
    from repro.core.experiment import run_experiment

    batch = BatchFluidSolver([config])
    batch.run_until(WARMUP)
    batch.reset_stats()
    batch.run_until(END)
    metrics = batch.fleet_metrics()
    result = run_experiment(config)
    for key in ("link_utilization", "drop_rate",
                "app_throughput_gbps"):
        assert float(metrics[key][0]) == result.metrics[key], key


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20),
       start=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=64))
def test_group_cohorts_partitions_exactly(seed, start, count):
    sampler = FleetSampler(seed=seed, fidelity="fluid")
    indexed = [(i, sampler.draw_config(i))
               for i in range(start, start + count)]
    cohorts = group_cohorts(indexed)
    flattened = [i for indices in cohorts.values() for i in indices]
    # Every index in exactly one cohort, order preserved inside each.
    assert sorted(flattened) == list(range(start, start + count))
    assert len(flattened) == len(set(flattened))
    configs = dict(indexed)
    for key, indices in cohorts.items():
        assert indices == sorted(indices)
        for index in indices:
            assert cohort_key(configs[index]) == key


@given(config=config_space)
@settings(max_examples=25, deadline=None)
def test_cohort_key_never_splits_identical_configs(config):
    assert cohort_key(config) == cohort_key(config)
    cohorts = group_cohorts([(0, config), (1, config), (2, config)])
    assert list(cohorts.values()) == [[0, 1, 2]]


def test_mixed_batch_matches_scalar_per_lane():
    # Every combination of the structural flags (loss- vs delay-based
    # CC, open vs closed loop, IOMMU on/off) x hugepages x step size,
    # in one batch: each lane must still equal its own scalar run.
    configs = [
        make_config(transport, offered, iommu, hugepages,
                    (4, 8, 12, 16)[lane % 4], (0, 8, 15)[lane % 3],
                    (10, 20, 40)[lane % 3], 8, one_way_delay=delay)
        for lane, (transport, offered, iommu, hugepages, delay)
        in enumerate(itertools.product(
            ("swift", "cubic"), (None, 0.95), (False, True),
            (False, True), (0.0, 5e-6, 12.5e-6)))]
    assert len(configs) == 48
    batch = BatchFluidSolver(configs)
    assert batch.loss_based.dtype == batch.open_loop.dtype == bool
    batch.run_until(WARMUP)
    batch.reset_stats()
    batch.run_until(END)
    for lane, config in enumerate(configs):
        assert_lane_matches_scalar(batch, lane, solve_scalar(config))


def test_distinct_lanes_merge_only_bitwise_equal_rows():
    """Rows equal in every column share a lane; a zero of the other
    sign or a float one ulp away keeps its own; the inverse maps each
    row, in order, to its lane; and stepping the distinct lanes gives
    every row the bits of a batch that steps them all."""
    a = fluid_inputs(make_config("swift", 0.7, True, True, 8, 0, 10, 4))
    b = fluid_inputs(make_config("cubic", None, False, True, 12, 8, 20,
                                 4))
    assert b["misses_per_packet"] == 0.0
    b_negative_zero = dict(b, misses_per_packet=-0.0)
    a_next_ulp = dict(a, offered_load=float(
        np.nextafter(a["offered_load"], 1.0)))
    rows = [a, b, a, b_negative_zero, a_next_ulp, b, a]
    inputs = {name: [row[name] for row in rows] for name in a}
    inputs["receivers"] = a["receivers"]  # a plain value stays plain
    distinct, inverse = distinct_lanes(inputs)
    assert inverse.tolist() == [0, 1, 0, 2, 3, 1, 0]
    assert distinct["receivers"] == a["receivers"]
    for name, column in inputs.items():
        if name != "receivers":
            assert (distinct[name].tobytes()
                    == np.asarray(column)[[0, 1, 3, 4]].tobytes()), name
    full = BatchFluidSolver.from_inputs(inputs)
    lanes = BatchFluidSolver.from_inputs(distinct)
    assert lanes.n == 4
    for batch in (full, lanes):
        batch.run_until(WARMUP)
        batch.reset_stats()
        batch.run_until(END)
    for key, column in lanes.fleet_metrics().items():
        assert (column[inverse].tobytes()
                == full.fleet_metrics()[key].tobytes()), key


class _Recorder:
    """Stands in for a batch's ``run``, noting each attribute read and
    written."""

    def __init__(self, values):
        vars(self).update(values=values, read=set(), written=set())

    def __getattr__(self, name):
        self.read.add(name)
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name, value):
        self.written.add(name)
        self.values[name] = value


def test_batch_keeps_only_the_accumulators_fleet_metrics_reads():
    configs = [make_config("swift", None, True, True, 8, 0, 10, 4),
               make_config("cubic", 0.7, False, False, 4, 15, 20, 8)]
    batch = BatchFluidSolver(configs)
    assert sorted(vars(batch.run)) == sorted(_ACC_ATTRS)
    others = [f.name for f in dataclasses.fields(fluid.FluidRun)
              if f.name not in _ACC_ATTRS]
    assert len(others) == 12   # eleven float fields and the step trace
    for name in others:
        with pytest.raises(AttributeError):
            getattr(batch.run, name)
    # Every field the lane step writes, and every one fleet_metrics
    # reads, given a run that would hold them all.
    everything = {f.name: np.zeros(batch.n)
                  for f in dataclasses.fields(fluid.FluidRun)}
    batch.run = _Recorder(dict(everything))
    fluid_batch._lane_step(batch)
    assert batch.run.written == set(_ACC_ATTRS)
    batch.run = _Recorder(dict(everything))
    batch.fleet_metrics()
    assert batch.run.read == set(_ACC_ATTRS)
    # And every lane constant the batch holds is one the step reads.
    names = set(fluid_batch._lane_step.__code__.co_names)
    assert set(_CONST_ATTRS) <= names


def test_step_count_is_kept_in_place():
    # Mixed step sizes: the masked step runs too, and its ``_acc(1)``
    # stays an integer.
    configs = [make_config("swift", None, True, True, 8, 0, 10, 4,
                           one_way_delay=delay) for delay in (0.0, 5e-6)]
    batch = BatchFluidSolver(configs)
    steps = batch.steps
    batch.run_until(END)
    assert batch.steps is steps and steps.dtype == np.int64
    assert [int(n) for n in steps] == [solve_scalar(config).steps
                                       for config in configs]


def test_cohort_key_is_the_fabric_topology():
    # The structural flags are lane values; only the fabric splits.
    configs = [make_config(transport, offered, iommu, True, 8, 0, 10, 4)
               for transport in ("swift", "cubic")
               for offered in (None, 0.7) for iommu in (False, True)]
    assert {cohort_key(config) for config in configs} == {("star",)}
    for topology in ("fattree", "dumbbell"):
        fabric = dataclasses.replace(
            configs[0], fabric=FabricConfig(topology=topology))
        assert cohort_key(fabric) == (topology,)


def test_empty_batch_is_rejected():
    with pytest.raises(ValueError, match="at least one config"):
        BatchFluidSolver([])


@pytest.mark.parametrize("topology", ["fattree", "dumbbell"])
def test_multi_tier_fabric_is_rejected(topology):
    # The fabric stage exists only in the scalar solver; a batch must
    # refuse it rather than silently step the star-fabric dynamics.
    star = make_config("swift", None, True, True, 8, 0, 10, 4)
    fabric = dataclasses.replace(
        star, fabric=FabricConfig(topology=topology))
    with pytest.raises(ValueError, match=f"fabric.topology = '{topology}'"):
        BatchFluidSolver([star, fabric])


# -- the step specializer ----------------------------------------------------


def test_both_step_forms_point_at_the_one_source():
    lines, first = inspect.getsourcelines(fluid._fluid_step)
    last = first + len(lines) - 1
    for form in (FluidSolver.run_until, fluid_batch._lane_step):
        code = form.__code__
        assert Path(code.co_filename).as_posix().endswith("sim/fluid.py")
        numbers = {line for _, _, line in code.co_lines() if line}
        assert numbers and first <= min(numbers) <= max(numbers) <= last


def _unknown_op_dialect(self):
    return _clamp(self.W, 1.0)  # noqa: F821


def test_unknown_dialect_op_fails_with_its_name():
    with pytest.raises(ValueError, match=r"unknown op _clamp\(\)"):
        fluid.specialize_step(source=_unknown_op_dialect)


def _clashing_dialect(self):
    self_W = self.W
    self.W = self_W + 1.0


def test_body_name_clashing_with_a_run_loop_local_fails():
    # ``self.W`` becomes the run loop's local ``self_W``.
    with pytest.raises(ValueError, match=r"\['self_W'\] clash"):
        fluid.specialize_step(source=_clashing_dialect)
    fluid.specialize_step(np, source=_clashing_dialect)


def _plain_if_dialect(self):
    if self.open_loop:
        self.W = 1.0


def test_plain_if_compiles_only_to_the_scalar_form():
    # A per-host choice in the lane form must be a _where().
    fluid.specialize_step(source=_plain_if_dialect)
    with pytest.raises(ValueError, match="plain if outside"):
        fluid.specialize_step(np, source=_plain_if_dialect)


def _truth_where_dialect(self):
    self.both = _where(self.c, self.a > 0.0, self.b > 0.0)
    self.a_true = _where(self.c, True, self.b > 0.0)
    self.a_false = _where(self.c, False, self.b > 0.0)
    self.b_true = _where(self.c, self.a > 0.0, True)
    self.b_false = _where(self.c, self.a > 0.0, False)
    self.flag = _where(self.c, True, False)
    self.negated = _where(self.c, False, True)


def _truth_where_expected(c, a, b):
    return {"both": np.where(c, a > 0.0, b > 0.0),
            "a_true": np.where(c, True, b > 0.0),
            "a_false": np.where(c, False, b > 0.0),
            "b_true": np.where(c, a > 0.0, True),
            "b_false": np.where(c, a > 0.0, False),
            "flag": np.where(c, True, False),
            "negated": np.where(c, False, True)}


@pytest.mark.parametrize("array_condition", [True, False])
def test_truth_valued_where_compiles_to_logical_ops(array_condition):
    # Every (cond, a, b) truth combination, one per lane.
    c, a_true, b_true = (np.array(column) for column in
                         zip(*itertools.product((False, True), repeat=3)))
    a = np.where(a_true, 1.0, -1.0)
    b = np.where(b_true, 1.0, -1.0)
    lanes = fluid.specialize_step(np, source=_truth_where_dialect)
    names = lanes.__code__.co_names
    assert "where" not in names
    assert {"logical_and", "logical_or", "logical_not"} <= set(names)
    conditions = [c] if array_condition else [True, False]
    for cond in conditions:
        state = types.SimpleNamespace(c=cond, a=a, b=b)
        lanes(state)
        for name, expected in _truth_where_expected(cond, a, b).items():
            got = getattr(state, name)
            assert np.asarray(got).dtype == bool, name
            assert np.shape(got) == np.shape(expected), name
            assert np.array_equal(got, expected), (cond, name)


def test_truth_valued_where_stays_a_conditional_in_the_scalar_form():
    source = textwrap.dedent(inspect.getsource(_truth_where_dialect))
    tree = fluid._Specializer(_truth_where_dialect, lanes=False).visit(
        ast.parse(source))
    values = [stmt.value for stmt in tree.body[0].body]
    assert len(values) == 7
    assert all(isinstance(value, ast.IfExp) for value in values)
    scalar = fluid.specialize_step(source=_truth_where_dialect)
    names = set(scalar.__code__.co_names)
    assert not {"np", "where", "logical_and", "logical_or"} & names


def dialect_run_until(solver: FluidSolver, until: float) -> None:
    """The slow scalar reference: ``_fluid_step`` run as written, under
    the run loop's guard."""
    while solver.now < until - 1e-12:
        fluid._fluid_step(solver)


def assert_same_solver(slow: FluidSolver, fast: FluidSolver) -> None:
    assert vars(slow.run) == vars(fast.run)
    for attr in _STATE_ATTRS + ("steps", "_fab_delay", "_fab_q",
                                "antagonist_Bps", "demand_step_bytes"):
        assert getattr(slow, attr) == getattr(fast, attr), attr


def fabric_config(offered, topology) -> ExperimentConfig:
    return dataclasses.replace(
        make_config("swift", offered, True, False, 8, 8, 20, 16),
        fabric=FabricConfig(topology=topology))


@pytest.mark.parametrize("offered,topology", [
    (None, "star"), (0.9, "star"), (None, "dumbbell"), (0.9, "fattree")])
def test_scalar_form_matches_the_dialect_run_directly(offered, topology):
    # The dialect ops are also plain functions, so ``_fluid_step`` runs
    # as written; the inlined run loop must agree with it exactly.
    config = fabric_config(offered, topology)
    fast = solve_scalar(config)
    slow = FluidSolver(config)
    dialect_run_until(slow, WARMUP)
    slow.reset_stats()
    dialect_run_until(slow, END)
    assert_same_solver(slow, fast)


@pytest.mark.parametrize("topology", ["star", "dumbbell"])
def test_run_loop_resumes_exactly_across_load_switches(topology):
    # The day driver's and isolation's call pattern: many short
    # ``run_until`` calls with load and antagonist switches between
    # them.  The run loop writes its locals back on every return, so
    # each call must pick up exactly where the last one stopped.
    config = fabric_config(None, topology)
    fast, slow = FluidSolver(config), FluidSolver(config)
    schedule = [(0.9, 0), (None, 8), (0.4, 15), (1.2, 4), (None, 0)]
    until = 0.0
    for i in range(40):
        load, cores = schedule[i % len(schedule)]
        until += END / 40
        for solver, run_until in ((fast, FluidSolver.run_until),
                                  (slow, dialect_run_until)):
            solver.set_offered_load(load)
            solver.set_antagonist_cores(cores)
            run_until(solver, until)
            if i == 10:
                solver.reset_stats()
    assert fast.steps > 40
    assert_same_solver(slow, fast)


class _Interrupt(Exception):
    pass


class _TrippingList(list):
    """A step-trace list that raises once, on its ``n``-th append: an
    interrupt landing mid-step, after the accumulators moved."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def append(self, item) -> None:
        if len(self) + 1 == self.n:
            self.n = 0
            raise _Interrupt
        super().append(item)


def test_interrupted_run_loop_leaves_the_solver_consistent():
    # The run loop's locals are written back in a ``finally``: an
    # exception raised inside it leaves the solver exactly where the
    # dialect reference stops on the same exception.
    config = fabric_config(0.9, "dumbbell")
    fast, slow = FluidSolver(config), FluidSolver(config)
    for solver, run_until in ((fast, FluidSolver.run_until),
                              (slow, dialect_run_until)):
        solver.run.step_trace = _TrippingList(25)
        with pytest.raises(_Interrupt):
            run_until(solver, END)
    assert 0 < fast.steps < fast.now / fast.dt + 1
    assert_same_solver(slow, fast)
    fast.run_until(END)
    dialect_run_until(slow, END)
    assert_same_solver(slow, fast)
