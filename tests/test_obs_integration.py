"""End-to-end: one run emits metrics JSON, a Perfetto trace, and a
profiler report — the ISSUE's acceptance criterion for the obs stack."""

import dataclasses
import json

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
    baseline_config,
)
from repro.core.experiment import ExperimentHandle, run_experiment
from repro.obs.perfetto import to_perfetto
from repro.obs.profiler import SimProfiler
from tests.test_sketch import oracle_bounds

#: Field order of every ``histograms`` entry of a metrics snapshot.
HISTOGRAM_FIELDS = ["count", "mean", "p50", "p90", "p99", "min", "max"]


def small_config(**sim_overrides):
    sim = SimConfig(warmup=0.5e-3, duration=1.5e-3, seed=3, **sim_overrides)
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=2)),
        workload=WorkloadConfig(senders=4),
        sim=sim,
    )


@pytest.fixture(scope="module")
def traced_handle():
    handle = ExperimentHandle(small_config(trace=True))
    handle.run_warmup()
    handle.run_measurement()
    return handle


def test_metrics_snapshot_has_paper_observables(traced_handle):
    snap = traced_handle.metrics_snapshot()
    payload = json.loads(json.dumps(snap))  # must be JSON-serializable
    counters = payload["counters"]
    gauges = payload["gauges"]
    # The paper's headline hardware counters, by their metric names.
    for name in ("nic.rx_packets", "nic.dropped_packets",
                 "iommu.iotlb_misses", "transport.retransmissions"):
        assert name in counters, name
    for name in ("nic.drop_rate", "host.iotlb_misses_per_packet",
                 "memory.bandwidth_GBps", "transport.mean_cwnd"):
        assert name in gauges, name
    delay = payload["histograms"]["nic.host_delay_us"]
    assert delay["count"] > 0
    assert 0 < delay["p50"] <= delay["p99"]
    assert payload["meta"]["sim_time_s"] == pytest.approx(
        traced_handle.config.sim.end_time)


def test_metrics_agree_with_component_state(traced_handle):
    snap = traced_handle.metrics_snapshot()
    nic = traced_handle.topology.host.nic
    assert snap["counters"]["nic.rx_packets"] == nic.rx_packets
    assert snap["counters"]["nic.dropped_packets"] == nic.dropped_packets
    assert snap["gauges"]["nic.drop_rate"] == pytest.approx(nic.drop_rate())


def test_trace_contains_nic_dma_spans(traced_handle):
    doc = to_perfetto(traced_handle.tracer)
    json.dumps(doc)  # Perfetto-loadable
    dma = [e for e in doc["traceEvents"]
           if e.get("name") == "dma" and e["ph"] == "X"]
    assert dma, "expected complete NIC DMA spans in the trace"
    assert all(e["dur"] > 0 for e in dma)
    # The DMA waterfall sub-stages ride along as X events too.
    stages = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"descriptor_fetch", "translate", "pcie_transfer",
            "memory_write"} <= stages


def test_profiled_run_reports_per_component_rates():
    handle = ExperimentHandle(small_config())
    handle.run_warmup()
    with SimProfiler(handle.sim) as profiler:
        handle.run_measurement()
    report = profiler.report()
    assert report["events"] > 0
    assert report["events_per_sec"] > 0
    assert "ReceiverThread" in report["components"]
    assert all(stats["events_per_sec"] > 0
               for stats in report["components"].values())


def test_reset_window_separates_warmup_from_measurement():
    handle = ExperimentHandle(small_config())
    handle.run_warmup()
    snap = handle.metrics_snapshot()
    # Right after the warmup reset, windowed counters restart from the
    # component counters, which reset_stats() just zeroed.
    assert snap["counters"]["nic.rx_packets"] == 0
    assert snap["histograms"]["nic.host_delay_us"]["count"] == 0
    handle.run_measurement()
    after = handle.metrics_snapshot()
    assert after["counters"]["nic.rx_packets"] > 0


def test_warmup_samples_are_dropped_at_the_reset():
    handle = ExperimentHandle(small_config())
    handle.run_warmup()
    nic = handle.topology.host.nic
    assert nic._host_delay_pending == nic._dma_latency_pending == []
    # An empty measurement window reports every field as zero.
    for summary in handle.metrics_snapshot()["histograms"].values():
        assert list(summary) == HISTOGRAM_FIELDS
        assert all(value == 0 for value in summary.values())


@pytest.mark.parametrize("fidelity", ["packet", "fluid"])
def test_host_delay_histogram_schema_matches_across_fidelities(fidelity):
    handles = []
    run_experiment(dataclasses.replace(small_config(), fidelity=fidelity),
                   handle_out=handles)
    delay = handles[0].metrics_snapshot()["histograms"]["nic.host_delay_us"]
    assert list(delay) == HISTOGRAM_FIELDS
    assert delay["count"] > 0


def test_histograms_match_the_raw_nic_samples_of_the_golden_run():
    """Exact count/mean/min/max, and each percentile within the
    sketch's alpha of an order statistic adjacent to the exact rank."""
    handle = ExperimentHandle(baseline_config(
        warmup=1e-3, duration=2e-3, seed=1))
    handle.run_warmup()
    handle.run_measurement()
    nic = handle.topology.host.nic
    raw = {"nic.host_delay_us": list(nic._host_delay_pending),
           "nic.dma_latency_us": list(nic._dma_latency_pending)}
    histograms = handle.metrics.snapshot()["histograms"]
    for name, values in raw.items():
        summary = histograms[name]
        total = 0.0
        for value in values:  # the sketch's summation order
            total += value
        assert summary["count"] == len(values) > 0
        assert summary["mean"] == total / len(values)
        assert summary["min"] == min(values)
        assert summary["max"] == max(values)
        alpha = handle.metrics.get(name).alpha
        for p in (50, 90, 99):
            estimate = summary[f"p{p}"]
            assert any(abs(estimate - order) <= alpha * order
                       for order in oracle_bounds(values, p)), (name, p)


def test_disabled_tracer_records_nothing():
    handle = ExperimentHandle(small_config(trace=False))
    handle.run_warmup()
    handle.run_measurement()
    assert len(handle.tracer) == 0
    assert handle.tracer.dropped == 0


def test_trace_max_records_config_bounds_ring():
    config = small_config(trace=True)
    config = dataclasses.replace(
        config, sim=dataclasses.replace(config.sim, trace_max_records=100))
    handle = ExperimentHandle(config)
    with pytest.warns(RuntimeWarning, match="tracer ring full"):
        handle.run_warmup()
        handle.run_measurement()
    assert len(handle.tracer) == 100
    assert handle.tracer.dropped > 0
