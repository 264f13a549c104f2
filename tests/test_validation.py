"""Tests for the model-vs-simulation contract (``xval.compare_model``)."""

from repro.analysis.xval import compare_model
from repro.core.config import baseline_config
from repro.core.model import modeled_app_throughput_bps
from repro.core.results import ExperimentResult, ResultTable
from repro.core.scenario import ScenarioSpec, SweepAxis, run_configs

CONFIG = baseline_config()
#: Model throughput (Gbps) at one IOTLB miss per packet, idle bus.
PREDICTED = modeled_app_throughput_bps(CONFIG, 1.0, 0.15) / 1e9


def report_for(measured_gbps, **budgets):
    """``compare_model`` over synthetic rows measuring ``measured_gbps``
    at the operating point the model predicts :data:`PREDICTED` for."""
    rows = [ExperimentResult(
        params=CONFIG.describe(),
        metrics={"app_throughput_gbps": measured,
                 "iotlb_misses_per_packet": 1.0,
                 "memory_utilization": 0.15})
        for measured in measured_gbps]
    return compare_model("unit", [CONFIG] * len(rows), ResultTable(rows),
                         **budgets)


class TestValidationPoint:
    def test_relative_error(self):
        # 10% relative error, with the model above and below measured.
        for measured in (PREDICTED / 1.1, PREDICTED / 0.9):
            assert report_for([measured], rtol=0.11, mean_rtol=1.0).ok
            report = report_for([measured], rtol=0.09, mean_rtol=1.0)
            (disagreement,) = report.disagreements
            assert disagreement.check == "model-throughput"
            assert "10.0% error" in disagreement.detail

    def test_zero_measured_is_infinite(self):
        report = report_for([0.0], rtol=1e9, mean_rtol=1e9)
        assert [d.check for d in report.disagreements] == [
            "model-throughput", "model-mean-error"]
        assert "inf" in report.disagreements[0].detail


class TestValidationReport:
    def test_aggregates(self):
        # 5% and 20% errors pass the per-point budget, but their 12.5%
        # mean misses the 10% mean budget.
        report = report_for([PREDICTED / 1.05, PREDICTED / 1.2])
        assert report.checks == 4  # row count, two points, mean
        (disagreement,) = report.disagreements
        assert disagreement.check == "model-mean-error"
        assert "mean error 12.5%" in disagreement.detail
        assert "worst 20.0%" in disagreement.detail

    def test_render_contains_rows_and_summary(self):
        report = report_for([PREDICTED / 1.5])
        row = report.disagreements[0].format_row()
        assert "unit/model" in row
        assert "cores=12, iommu=True" in row
        assert "measured" in row and "model" in row
        summary = report.to_dict()
        assert summary["ok"] is False and summary["checks"] == 3


def test_validate_model_small_grid():
    spec = ScenarioSpec(name="model-grid",
                        axes=(SweepAxis("host.cpu.cores", (4, 12)),))
    configs = spec.expand(base=baseline_config(warmup=1.5e-3,
                                               duration=3e-3))
    table = run_configs(configs)
    # Interconnect-bound point: within the documented budget.
    assert compare_model("figure3", configs, table, rtol=0.3,
                         mean_rtol=0.3).ok
    # CPU-bound point: model and sim agree tightly.
    cpu_bound = ResultTable(table.results[:1])
    assert table.results[0].params["cores"] == 4
    assert compare_model("figure3", configs[:1], cpu_bound, rtol=0.05,
                         mean_rtol=0.05).ok
