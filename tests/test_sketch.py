"""Property tests for the mergeable quantile sketch.

The sketch is the fleet-scale aggregation primitive, so the tests pin
the two things that make it one: the *accuracy contract* (quantiles
within relative error ``alpha`` of a neighbouring order statistic,
checked against a sorted-list oracle) and the *merge algebra*
(associative, commutative, order-independent — exact equality of the
full bucket state, not approximate).
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.obs.sketch import CategoryTally, Density2D, QuantileSketch

ALPHA = 0.01


def oracle_bounds(values, p):
    """The order statistics bracketing the target rank for ``p``."""
    ordered = sorted(values)
    target = p / 100 * (len(ordered) - 1)
    return ordered[math.floor(target)], ordered[math.ceil(target)]


def assert_quantile_within_bound(sketch, values, p, alpha=ALPHA):
    """`quantile(p)` must be within relative error ``alpha`` of an
    order statistic at most one rank from the target — the documented
    accuracy contract of the DDSketch bucket layout."""
    estimate = sketch.quantile(p)
    low, high = oracle_bounds(values, p)
    tolerance = alpha + 1e-9
    ok = (abs(estimate - low) <= tolerance * abs(low)
          or abs(estimate - high) <= tolerance * abs(high))
    assert ok, (f"p{p}: estimate {estimate} not within {alpha:%} of "
                f"rank-neighbours [{low}, {high}]")


def make_stream(name, n, seed=0):
    rng = random.Random(seed)
    if name == "uniform":
        return [rng.uniform(0.1, 100.0) for _ in range(n)]
    if name == "lognormal":
        return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
    if name == "heavy_tail":
        return [rng.paretovariate(1.2) for _ in range(n)]
    if name == "mixed_sign":
        return [rng.gauss(0.0, 50.0) for _ in range(n)]
    if name == "with_zeros":
        return [rng.choice((0.0, 0.0, rng.uniform(0, 10)))
                for _ in range(n)]
    raise ValueError(name)


STREAMS = ("uniform", "lognormal", "heavy_tail", "mixed_sign",
           "with_zeros")


class TestAccuracy:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("p", (50, 90, 99, 99.9))
    def test_rank_error_bound(self, stream, p):
        values = make_stream(stream, 5000, seed=7)
        sketch = QuantileSketch(alpha=ALPHA)
        sketch.extend(values)
        assert_quantile_within_bound(sketch, values, p)

    def test_exact_moments(self):
        values = make_stream("lognormal", 1000, seed=3)
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.count == len(values)
        assert sketch.total == pytest.approx(sum(values), rel=1e-12)
        assert sketch.minimum == min(values)
        assert sketch.maximum == max(values)
        assert sketch.quantile(0) == min(values)
        assert sketch.quantile(100) == max(values)

    def test_zero_and_negative_buckets(self):
        sketch = QuantileSketch()
        sketch.extend([-5.0, -1.0, 0.0, 0.0, 1.0, 5.0])
        assert sketch.zero_count == 2
        assert sketch.quantile(50) == 0.0
        assert sketch.quantile(0) == -5.0
        assert_quantile_within_bound(
            sketch, [-5.0, -1.0, 0.0, 0.0, 1.0, 5.0], 99)

    def test_empty_and_bad_inputs(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.quantile(50)
        with pytest.raises(ValueError):
            sketch.observe(float("nan"))
        with pytest.raises(ValueError):
            sketch.observe(float("inf"))
        with pytest.raises(ValueError):
            sketch.quantile(101)
        with pytest.raises(ValueError):
            QuantileSketch(alpha=1.5)

    def test_summary_shape(self):
        sketch = QuantileSketch()
        sketch.extend(make_stream("uniform", 100))
        summary = sketch.summary()
        assert set(summary) == {"count", "mean", "min", "max",
                                "p50", "p90", "p99"}
        assert summary["min"] <= summary["p50"] <= summary["p99"] \
            <= summary["max"]

    @pytest.mark.parametrize("value", [1.4887818181818184, -3.3, 2.0])
    def test_quantiles_stay_within_min_and_max(self, value):
        # A bucket midpoint may lie outside the observed range; the
        # estimate is clamped to it.
        sketch = QuantileSketch()
        sketch.extend([value] * 10)
        assert {sketch.quantile(p) for p in (1, 50, 99)} == {value}

    def test_reset_forgets_every_observation(self):
        sketch = QuantileSketch()
        sketch.extend([-1.0, 0.0, *make_stream("lognormal", 200)])
        sketch.reset()
        assert sketch == QuantileSketch()
        assert sketch.summary()["count"] == 0


class TestMergeAlgebra:
    """merge() must be exactly associative and order-independent —
    verified on the full serialized state, not on query outputs."""

    def chunks(self, seed, n_chunks=5, chunk=400):
        return [make_stream("lognormal", chunk, seed=seed * 100 + i)
                for i in range(n_chunks)]

    def folded(self, groups):
        sketches = []
        for group in groups:
            sketch = QuantileSketch(alpha=ALPHA)
            sketch.extend(group)
            sketches.append(sketch)
        out = sketches[0]
        for other in sketches[1:]:
            out.merge(other)
        return out

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_associative(self, seed):
        a, b, c = self.chunks(seed, n_chunks=3)
        left = self.folded([a, b]).merge(self.folded([c]))
        right = self.folded([a]).merge(self.folded([b, c]))
        assert left == right
        # Bucket counts — hence every quantile answer — are exactly
        # identical; only the float `total` varies in its last ulp.
        left_state, right_state = left.to_dict(), right.to_dict()
        left_state.pop("total")
        right_state.pop("total")
        assert left_state == right_state
        for p in (50, 99, 99.9):
            assert left.quantile(p) == right.quantile(p)

    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    def test_commutative_and_order_independent(self, seed):
        groups = self.chunks(seed)
        reference = self.folded(groups)
        rng = random.Random(seed)
        for _ in range(4):
            shuffled = groups[:]
            rng.shuffle(shuffled)
            assert self.folded(shuffled) == reference

    def test_merge_equals_single_stream(self):
        groups = self.chunks(9)
        merged = self.folded(groups)
        single = QuantileSketch(alpha=ALPHA)
        for group in groups:
            single.extend(group)
        assert merged == single

    def test_merge_rejects_mismatched_parameters(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))
        with pytest.raises(ValueError):
            QuantileSketch(max_bins=64).merge(QuantileSketch(max_bins=65))

    def test_merge_preserves_accuracy(self):
        groups = self.chunks(11)
        merged = self.folded(groups)
        everything = [v for group in groups for v in group]
        for p in (50, 99, 99.9):
            assert_quantile_within_bound(merged, everything, p)


class TestDeterminismAndSerialization:
    def test_identical_streams_identical_state(self):
        a, b = QuantileSketch(), QuantileSketch()
        values = make_stream("heavy_tail", 2000, seed=5)
        a.extend(values)
        b.extend(values)
        assert a == b

    def test_round_trip(self):
        sketch = QuantileSketch()
        sketch.extend(make_stream("mixed_sign", 500, seed=2))
        restored = QuantileSketch.from_dict(sketch.to_dict())
        assert restored == sketch
        assert restored.quantile(99) == sketch.quantile(99)

    def test_round_trip_survives_json(self):
        import json

        sketch = QuantileSketch()
        sketch.extend(make_stream("with_zeros", 300, seed=4))
        restored = QuantileSketch.from_dict(
            json.loads(json.dumps(sketch.to_dict())))
        assert restored == sketch


class TestCollapse:
    def test_collapse_keeps_count_and_tail_accuracy(self):
        # A span of ~1e12 at alpha=1% needs ~1400 buckets; cap at 64
        # to force the collapse path.
        sketch = QuantileSketch(alpha=ALPHA, max_bins=64)
        values = [10.0 ** (i % 12) * (1 + (i % 7) / 10)
                  for i in range(2000)]
        sketch.extend(values)
        assert sketch.collapsed
        assert sketch.count == len(values)
        assert len(sketch._bins) <= 64
        # Collapse folds *low* buckets: high quantiles stay accurate.
        assert_quantile_within_bound(sketch, values, 99)
        # Quantiles stay monotone even through the collapsed region.
        qs = [sketch.quantile(p) for p in (1, 10, 25, 50, 75, 90, 99)]
        assert qs == sorted(qs)


#: Values that reach every bucket path: exact and sub-threshold zeros,
#: negatives, repeats, and a span wide enough to collapse a small table.
_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1.0)),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    st.integers(-12, 12).map(lambda exponent: 1.5 * 10.0 ** exponent))


class TestBatchedInsert:
    """``extend`` is the batched insert: the state it leaves must be
    bitwise the state one ``observe`` per value leaves, on top of any
    prior state (``observe(value, n)`` with ``n > 1`` included)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(prior=st.lists(st.tuples(_values, st.integers(1, 5)),
                          max_size=20),
           batch=st.lists(_values, max_size=60),
           max_bins=st.sampled_from((2, 3, 8, 4096)))
    def test_extend_equals_repeated_observe(self, prior, batch, max_bins):
        batched = QuantileSketch(alpha=ALPHA, max_bins=max_bins)
        one_by_one = QuantileSketch(alpha=ALPHA, max_bins=max_bins)
        for sketch in (batched, one_by_one):
            for value, n in prior:
                sketch.observe(value, n)
        batched.extend(batch)
        for value in batch:
            one_by_one.observe(value)
        # to_dict, not ==: ``__eq__`` forgives the last ulp of total.
        assert batched.to_dict() == one_by_one.to_dict()
        assert math.copysign(1.0, batched.minimum) == math.copysign(
            1.0, one_by_one.minimum)

    def test_collapse_path_is_taken(self):
        # The property above must reach the collapse, not only pass.
        values = [10.0 ** (i % 12) for i in range(50)]
        batched = QuantileSketch(alpha=ALPHA, max_bins=3)
        batched.extend(values)
        one_by_one = QuantileSketch(alpha=ALPHA, max_bins=3)
        for value in values:
            one_by_one.observe(value)
        assert batched.collapsed
        assert batched.to_dict() == one_by_one.to_dict()

    def test_non_finite_value_folds_nothing(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError, match="non-finite"):
            sketch.extend([1.0, math.nan])
        assert sketch.to_dict() == QuantileSketch().to_dict()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(points=st.lists(st.tuples(
        st.floats(min_value=-1.0, max_value=2.0),
        st.one_of(st.sampled_from((0.0, 1e-7, 1e-8, 1.0, 5.0)),
                  st.floats(min_value=0.0, max_value=2.0))),
        max_size=60))
    def test_density_extend_equals_repeated_observe(self, points):
        batched, one_by_one = Density2D(), Density2D()
        batched.extend(points)
        for x, y in points:
            one_by_one.observe(x, y)
        assert batched.to_dict() == one_by_one.to_dict()


class TestCategoryTally:
    def test_add_merge_and_order(self):
        a = CategoryTally()
        a.add("iommu", 3)
        a.add("memory-bus")
        b = CategoryTally({"memory-bus": 4, "cpu-or-none": 2})
        a.merge(b)
        assert a.get("memory-bus") == 5
        assert a.total == 10
        assert a.most_common()[0] == ("memory-bus", 5)

    def test_round_trip_and_equality(self):
        tally = CategoryTally({"iommu": 2, "memory-bus": 1})
        assert CategoryTally.from_dict(tally.to_dict()) == tally


class TestDensity2D:
    def test_observe_and_total(self):
        grid = Density2D()
        grid.observe(0.5, 1e-3)
        grid.observe(0.5, 1e-3, n=2)
        grid.observe(0.9, 0.0)  # zero bin
        assert grid.total == 4
        assert len(grid) == 2

    def test_zero_bin_and_midpoints(self):
        grid = Density2D()
        grid.observe(0.25, 0.0)
        ((xi, yi), count), = grid.cells()
        assert yi == Density2D.ZERO_BIN
        assert grid.y_mid(yi) == 0.0
        assert 0.2 <= grid.x_mid(xi) <= 0.3
        assert count == 1

    def test_log_binning_resolution(self):
        # One decade apart must land in different bins; within ~1/8
        # decade may share one.
        grid = Density2D()
        grid.observe(0.5, 1e-4)
        grid.observe(0.5, 1e-3)
        assert len(grid) == 2

    def test_out_of_range_values_clamp(self):
        grid = Density2D()
        grid.observe(-5.0, 1e-3)   # below x_min
        grid.observe(99.0, 1e-3)   # above x_max
        grid.observe(0.5, 99.0)    # above y_ceil
        grid.observe(0.5, 1e-30)   # below y_floor -> zero bin
        assert grid.total == 4
        for x, y, _count in grid.points():
            assert 0.0 <= x <= 1.1
            assert 0.0 <= y <= 1.0

    def test_rejects_non_finite(self):
        grid = Density2D()
        with pytest.raises(ValueError):
            grid.observe(float("nan"), 1e-3)
        with pytest.raises(ValueError):
            grid.observe(0.5, float("inf"))

    def test_merge_is_exact_cell_addition(self):
        a, b, both = Density2D(), Density2D(), Density2D()
        rng = random.Random(3)
        for i in range(200):
            x = rng.random()
            y = rng.choice((0.0, 10 ** -rng.uniform(1, 6)))
            (a if i % 2 else b).observe(x, y)
            both.observe(x, y)
        assert a.merge(b) == both

    def test_merge_rejects_mismatched_grids(self):
        with pytest.raises(ValueError):
            Density2D(x_bins=44).merge(Density2D(x_bins=10))

    def test_round_trip_and_equality(self):
        grid = Density2D()
        rng = random.Random(5)
        for _ in range(100):
            grid.observe(rng.random(), 10 ** -rng.uniform(0, 7))
        import json
        restored = Density2D.from_dict(
            json.loads(json.dumps(grid.to_dict())))
        assert restored == grid

    def test_count_where_predicates_on_midpoints(self):
        grid = Density2D()
        grid.observe(0.2, 1e-2)
        grid.observe(0.9, 1e-2)
        grid.observe(0.9, 0.0)
        low = grid.count_where(lambda x: x < 0.5, lambda y: True)
        droppers = grid.count_where(lambda x: True, lambda y: y > 1e-4)
        assert low == 1
        assert droppers == 2
