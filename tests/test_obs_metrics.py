"""Unit tests for the metrics registry (obs.metrics)."""

import json
import statistics

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_reader_backed_tracks_source(self):
        box = {"n": 0}
        c = Counter("c", fn=lambda: box["n"])
        box["n"] = 7
        assert c.value == 7

    def test_reader_backed_rejects_inc(self):
        c = Counter("c", fn=lambda: 0)
        with pytest.raises(TypeError):
            c.inc()


class TestGauge:
    def test_set_and_read(self):
        g = Gauge("g")
        g.set(2.5)
        assert g.value == 2.5

    def test_reader_backed_rejects_set(self):
        g = Gauge("g", fn=lambda: 1.0)
        with pytest.raises(TypeError):
            g.set(3.0)
        assert g.value == 1.0


def histogram():
    return MetricsRegistry().histogram("h")


class TestHistogram:
    """The registry's histogram kind: a ``QuantileSketch`` with exact
    count/mean/min/max and percentiles within its relative error."""

    def test_percentiles_match_statistics_quantiles(self):
        h = histogram()
        values = [float(i) for i in range(1, 1001)]
        h.extend(values)
        # statistics.quantiles with n=100 and 'inclusive' interpolates
        # at rank p/100 * (n - 1), the sketch's target rank.
        quantiles = statistics.quantiles(values, n=100, method="inclusive")
        for p in (50, 90, 99):
            assert h.quantile(p) == pytest.approx(quantiles[p - 1],
                                                  rel=h.alpha)

    def test_exact_stats(self):
        h = histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)
        assert h.minimum == 1.0
        assert h.maximum == 3.0

    def test_percentiles_approximate_truth(self):
        h = histogram()
        h.extend(float(v) for v in range(10_000))
        assert h.quantile(50) == pytest.approx(5000, rel=h.alpha)

    def test_empty_summary(self):
        assert histogram().summary() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
            "min": 0.0, "max": 0.0}

    def test_summary_keys(self):
        h = histogram()
        h.observe(1.0)
        assert list(h.summary()) == ["count", "mean", "p50", "p90", "p99",
                                     "min", "max"]


class TestDeferredFlush:
    """Deferred aggregation must be invisible: buffering samples locally
    and flushing at snapshot time yields the same histogram state as
    eager per-event observation."""

    @staticmethod
    def drive(registry, feed):
        """Observe 3 windows of samples through ``feed(value)``,
        snapshotting after each and resetting between the first two."""
        snapshots = []
        for window in range(3):
            for i in range(700):
                feed(float(window * 10_000 + i * 7 % 997))
            snapshots.append(registry.snapshot())
            if window == 0:
                registry.reset_window()
        return snapshots

    def test_buffered_flush_equals_eager_observation(self):
        eager_reg = MetricsRegistry()
        eager_hist = eager_reg.histogram("lat", "nic")
        eager_snaps = self.drive(eager_reg, eager_hist.observe)

        deferred_reg = MetricsRegistry()
        deferred_hist = deferred_reg.histogram("lat", "nic")
        pending = []

        def flush():
            deferred_hist.extend(pending)
            pending.clear()

        deferred_reg.add_flush_callback(flush)
        deferred_snaps = self.drive(deferred_reg, pending.append)

        assert pending == []  # snapshot() drained the buffer
        assert deferred_snaps == eager_snaps
        assert deferred_hist == eager_hist

    def test_flush_callbacks_run_in_registration_order(self):
        reg = MetricsRegistry()
        order = []
        reg.add_flush_callback(lambda: order.append("a"))
        reg.add_flush_callback(lambda: order.append("b"))
        reg.flush()
        assert order == ["a", "b"]


class TestMetricsRegistry:
    def test_full_names_are_component_scoped(self):
        reg = MetricsRegistry()
        reg.counter("rx", "nic")
        reg.counter("rx", "nic2")  # same short name, other instance: ok
        assert "nic.rx" in reg
        assert "nic2.rx" in reg

    def test_duplicate_registration_raises(self):
        reg = MetricsRegistry()
        reg.counter("rx", "nic")
        with pytest.raises(ValueError):
            reg.counter("rx", "nic")
        with pytest.raises(ValueError):
            reg.gauge("rx", "nic")  # cross-kind collision too
        with pytest.raises(ValueError):
            reg.histogram("rx", "nic")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("", "nic")

    def test_get_and_contains(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        assert reg.get("a") is c
        with pytest.raises(KeyError):
            reg.get("missing")
        assert "missing" not in reg

    def test_len_and_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        reg.histogram("c")
        assert len(reg) == 3
        assert reg.names() == ["a", "b", "c"]

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("drops", "nic").inc(3)
        reg.gauge("util", "memory").set(0.5)
        reg.histogram("delay", "nic").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"]["nic.drops"] == 3
        assert snap["gauges"]["memory.util"] == 0.5
        assert snap["histograms"]["nic.delay"]["count"] == 1

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("drops", "nic").inc()
        assert json.loads(reg.to_json())["counters"]["nic.drops"] == 1

    def test_reset_window_zeros_stored_metrics(self):
        reg = MetricsRegistry()
        c = reg.counter("drops")
        h = reg.histogram("delay")
        g = reg.gauge("level")
        c.inc(5)
        h.observe(1.0)
        g.set(2.0)
        reg.reset_window()
        assert c.value == 0
        assert h.count == 0
        assert g.value == 2.0  # gauges are point-in-time, not windowed

    def test_reset_window_leaves_reader_backed_counters(self):
        reg = MetricsRegistry()
        box = {"n": 9}
        c = reg.counter("drops", fn=lambda: box["n"])
        reg.reset_window()
        assert c.value == 9  # follows its source attribute
