"""Unit tests for metrics helpers and result serialization."""

import pytest

from repro.core.metrics import percentile, summarize
from repro.core.results import ExperimentResult, ResultTable
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import MetricsSampler
from repro.sim import Simulator


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_single_value(self):
        assert percentile([3.0], 99) == 3.0

    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == pytest.approx(5.0)
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        data = list(range(100))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 99

    def test_unsorted_input(self):
        assert percentile([5, 1, 9, 3, 7], 50) == 5


class TestSummarize:
    def test_empty_summary_is_zero(self):
        s = summarize([])
        assert s.count == 0 and s.mean == 0.0

    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.maximum == 4.0
        assert s.p50 == pytest.approx(2.5)

    def test_as_dict_keys(self):
        d = summarize([1.0]).as_dict()
        assert set(d) == {"count", "mean", "p50", "p90", "p99", "max"}


class TestSamplerTimeSeries:
    """A ``MetricsSampler`` polling one gauge records a time series."""

    def make(self, interval=1e-3):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.gauge("now", "probe", fn=lambda: sim.now)
        sampler = MetricsSampler(sim, registry, interval=interval)
        return sim, sampler

    def test_samples_at_interval(self):
        sim, sampler = self.make()
        sampler.start()
        sim.run(until=5.5e-3)
        samples = list(sampler.samples)
        assert len(samples) == 5
        assert [s.value for s in samples] == pytest.approx(
            [1e-3, 2e-3, 3e-3, 4e-3, 5e-3])

    def test_stop_halts_sampling(self):
        sim, sampler = self.make()
        sampler.start()
        sim.call(2.5e-3, sampler.stop)
        sim.run(until=10e-3)
        assert len(sampler.samples) == 2

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            MetricsSampler(Simulator(), MetricsRegistry(), interval=0)

    def test_starts_from_current_time_epoch(self):
        sim, sampler = self.make()
        sim.call(0.25e-3, sampler.start)
        sim.run(until=3.5e-3)
        assert [s.time for s in sampler.samples] == pytest.approx(
            [1.25e-3, 2.25e-3, 3.25e-3])


def result(**params):
    defaults = {"cores": 12, "iommu": True}
    defaults.update(params)
    return ExperimentResult(
        params=defaults,
        metrics={"app_throughput_gbps": 90.0, "drop_rate": 0.01},
        message_latency_us={"p99": 500.0},
    )


class TestExperimentResult:
    def test_value_lookup_priority(self):
        r = result()
        assert r.value("app_throughput_gbps") == 90.0
        assert r.value("cores") == 12
        assert r.value("p99") == 500.0
        with pytest.raises(KeyError):
            r.value("nonexistent")

    def test_flat_dict_merges_all(self):
        flat = result().as_flat_dict()
        assert flat["cores"] == 12
        assert flat["msg_latency_p99_us"] == 500.0


class TestResultTable:
    def test_where_filters_on_params(self):
        table = ResultTable([result(cores=8), result(cores=12),
                             result(cores=12, iommu=False)])
        assert len(table.where(cores=12)) == 2
        assert len(table.where(cores=12, iommu=True)) == 1

    def test_column_extraction(self):
        table = ResultTable([result(cores=8), result(cores=12)])
        assert table.column("cores") == [8, 12]

    def test_csv_roundtrip_header(self, tmp_path):
        table = ResultTable([result()])
        path = tmp_path / "out.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert "cores" in lines[0]
        assert len(lines) == 2

    def test_csv_empty_raises(self, tmp_path):
        with pytest.raises(ValueError):
            ResultTable().to_csv(tmp_path / "empty.csv")

    def test_json_roundtrip(self, tmp_path):
        table = ResultTable([result(cores=8), result(cores=12)])
        path = tmp_path / "out.json"
        table.to_json(path)
        loaded = ResultTable.from_json(path)
        assert len(loaded) == 2
        assert loaded.column("cores") == [8, 12]
        assert loaded.results[0].metrics["drop_rate"] == 0.01

    def test_append_and_iter(self):
        table = ResultTable()
        table.append(result())
        assert len(list(table)) == 1
