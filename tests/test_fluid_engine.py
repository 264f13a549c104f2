"""The fluid engine's contracts that don't need a packet run: the
working-set footprint shared with the core model, config plumbing,
result-schema parity, the PR-5 error contract for fidelity
validation, the weighted summary, and packet conservation at every
stage.

Cross-fidelity *agreement* (knees, winners, tolerances) lives in
``tests/test_fluid_xval.py``; this file holds the fast invariants.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.cli import main
from repro.core.cache import config_digest
from repro.core.config import (
    FIDELITIES,
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    IommuConfig,
    SimConfig,
)
from repro.core.experiment import run_experiment
from repro.core.fluid import FluidExperiment
from repro.core.scenario import (
    ScenarioError,
    bundled_scenarios,
    load_scenario_file,
)
from repro.sim import fluid


def quick_config(fidelity="fluid", cores=12, iommu=True,
                 hugepages=True):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=cores),
                        iommu=IommuConfig(enabled=iommu),
                        hugepages=hugepages),
        sim=SimConfig(warmup=2e-4, duration=1e-3),
        fidelity=fidelity,
    )


# -- working-set model ---------------------------------------------------


@pytest.mark.parametrize("hugepages", [False, True])
@pytest.mark.parametrize("cores", [2, 8, 16])
def test_working_set_matches_core_model(cores, hugepages):
    """The fluid Che model and the core working-set model read one
    ``HostConfig`` footprint: the Che model predicts misses exactly
    when the core model's working set overflows the IOTLB."""
    from repro.core.model import iotlb_working_set

    config = quick_config(cores=cores, hugepages=hugepages)
    ws = iotlb_working_set(config.host)
    overflows = ws.total_pages > config.host.iommu.iotlb_entries
    assert (fluid.predicted_misses_per_packet(config.host) > 0) == overflows


# -- fidelity plumbing ---------------------------------------------------


@pytest.mark.parametrize("region_mb,hugepages,entries", [
    (4, True, 192),
    (12, True, 240),
    (4, False, 12456),
    (12, False, 37032),
])
def test_iommu_entries_gauge_matches_the_packet_host(region_mb, hugepages,
                                                     entries):
    """The fluid ``iommu_entries`` gauge and the packet host's
    page-table count read one ``HostConfig`` footprint: data region
    plus registered control pages, per thread, times 12 cores."""
    import random

    from repro.host import ReceiverHost
    from repro.sim import Simulator

    config = quick_config(hugepages=hugepages)
    config = dataclasses.replace(config, host=dataclasses.replace(
        config.host, rx_region_bytes=region_mb * 2**20))
    host = ReceiverHost(Simulator(), config.host, random.Random(1))
    gauge = fluid.FluidSolver(config).snapshot()["iommu_entries"]
    assert gauge == host.registered_iommu_entries() == entries


def test_unknown_fidelity_rejected_by_config():
    with pytest.raises(ValueError, match="fidelity") as exc:
        quick_config(fidelity="warp")
    # The error must name the valid choices (PR-5 error contract).
    for name in FIDELITIES:
        assert name in str(exc.value)


def test_unknown_fidelity_in_spec_names_key_and_file(tmp_path):
    path = tmp_path / "bad_fidelity.toml"
    path.write_text(
        '[scenario]\n'
        'name = "bad_fidelity"\n'
        'title = "bad"\n'
        'driver = "sweep"\n'
        'fidelity = "warp"\n'
    )
    with pytest.raises(ScenarioError) as exc:
        load_scenario_file(path)
    message = str(exc.value)
    assert "fidelity" in message
    assert "bad_fidelity.toml" in message
    assert "warp" in message


def test_fidelity_is_part_of_the_cache_key():
    packet = quick_config(fidelity="packet")
    fluid_cfg = dataclasses.replace(packet, fidelity="fluid")
    assert config_digest(packet) != config_digest(fluid_cfg)


def test_scenario_list_shows_fidelity(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    # Every bundled spec currently defaults to the packet engine; the
    # tag format is "[driver/fidelity]" (padded for alignment).
    assert "[sweep/packet" in out
    assert "[day/packet" in out


# -- result-schema parity ------------------------------------------------


def test_fluid_result_matches_packet_schema():
    """Same metric names, same snapshot sections: downstream consumers
    (ResultTable, figures, ledgers) must never branch on fidelity."""
    f_result = run_experiment(quick_config())
    p_result = run_experiment(quick_config(fidelity="packet"))
    assert set(f_result.metrics) == set(p_result.metrics)
    assert set(f_result.message_latency_us) \
        == set(p_result.message_latency_us)


def test_fluid_metrics_snapshot_sections():
    handle_out = []
    run_experiment(quick_config(), handle_out=handle_out)
    snapshot = handle_out[0].metrics_snapshot()
    assert snapshot["meta"]["fidelity"] == "fluid"
    # The packet engine's metric names, verbatim (one schema across
    # fidelities for --metrics-out payloads and ledger rows).
    assert snapshot["counters"]["nic.rx_packets"] > 0
    assert snapshot["gauges"]["host.app_throughput_gbps"] > 0
    assert snapshot["histograms"]["nic.host_delay_us"]["count"] > 0


def test_fluid_sane_at_the_uncongested_point():
    """12 cores, IOMMU off: no host bottleneck, so the fluid host must
    deliver most of the link and drop (almost) nothing."""
    result = run_experiment(quick_config(iommu=False, cores=12))
    assert result.metrics["drop_rate"] < 0.01
    assert result.metrics["app_throughput_gbps"] > 70.0


def test_fluid_messages_are_synthesized_once(monkeypatch):
    """``collect`` and ``metrics_snapshot`` share one synthesis of the
    step trace, so the snapshot's timeouts are the collected ones."""
    calls = []
    synthesize = fluid.FluidSolver.synthesize_message_pairs

    def counted(self, *args):
        calls.append(args)
        return synthesize(self, *args)

    monkeypatch.setattr(fluid.FluidSolver, "synthesize_message_pairs",
                        counted)
    handle_out = []
    # 6 cores on 4K pages: lossy enough to time reads out.
    result = run_experiment(quick_config(cores=6, hugepages=False),
                            handle_out=handle_out)
    snapshot = handle_out[0].metrics_snapshot()
    assert result.metrics["timeouts"] > 0
    assert snapshot["counters"]["transport.timeouts"] \
        == result.metrics["timeouts"]
    assert len(calls) == 1


# -- weighted summary ----------------------------------------------------


def _weighted_summary_loop(pairs):
    """``weighted_summary`` as a running-sum loop: the oracle it must
    match bit for bit."""
    if not pairs:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                "p99": 0.0, "min": 0.0, "max": 0.0}
    total = sum(weight for _, weight in pairs)
    mean = (sum(value * weight for value, weight in pairs) / total
            if total > 0 else 0.0)
    ordered = sorted(pairs)
    sorted_total = sum(weight for _, weight in ordered)
    cuts = ([fraction * sorted_total for fraction in (0.50, 0.90, 0.99)]
            if sorted_total > 0 else [])
    found = []
    running = 0.0
    for value, weight in ordered:
        if len(found) == len(cuts):
            break
        running += weight
        while len(found) < len(cuts) and running >= cuts[len(found)]:
            found.append(value)
    found += [ordered[-1][0] if cuts else 0.0] * (3 - len(found))
    return {"count": int(round(total)), "mean": mean, "p50": found[0],
            "p90": found[1], "p99": found[2], "min": ordered[0][0],
            "max": ordered[-1][0]}


#: Repeated values (ties reorder by weight) and zero weights, mixed
#: with arbitrary finite ones.
_summary_pairs = st.lists(st.tuples(
    st.one_of(st.sampled_from((0.0, 1e-6, 2.5e-6, 3e-5)),
              st.floats(0.0, 1e-2)),
    st.one_of(st.just(0.0), st.sampled_from((0.5, 1.0, 40.0)),
              st.floats(0.0, 1e3))), max_size=60)


@settings(max_examples=400, deadline=None)
@given(_summary_pairs)
def test_weighted_summary_matches_the_running_sum_loop(pairs):
    expected = _weighted_summary_loop(pairs)
    assert {key: repr(value)
            for key, value in fluid.weighted_summary(pairs).items()} \
        == {key: repr(value) for key, value in expected.items()}


# -- conservation --------------------------------------------------------


@pytest.mark.parametrize("point", [0, -1])
@pytest.mark.parametrize("name", sorted(
    name for name, spec in bundled_scenarios().items()
    if spec.driver == "sweep"))
def test_fluid_conserves_packets_at_every_stage(name, point):
    """Over the measurement window, at the first and last point of the
    spec's ``quick`` grid (its default grid if it has no ``quick``; the
    last points load the queues and drop): what enters each stage
    leaves it, is dropped there, or is still queued there."""
    spec = bundled_scenarios()[name]
    config = spec.expand(
        quality="quick" if "quick" in spec.quality else None,
        fidelity="fluid")[point]
    experiment = FluidExperiment(config)
    solver = experiment.solver
    experiment.run_warmup()
    q_nic, q_cpu, q_fab = solver.q_nic, solver.q_cpu, sum(solver._fab_q)
    experiment.run_measurement()
    run, wire = solver.run, solver.wire_bytes
    assert run.rx_packets > 0
    # NIC stage: arrivals = DMA'd + tail-dropped + buffered.
    assert run.rx_packets * wire == pytest.approx(
        run.dma_packets * wire + run.dropped_packets * wire
        + solver.q_nic - q_nic, rel=1e-9)
    # CPU stage: DMA'd = drained + backlogged (loss-free).
    assert run.dma_packets == pytest.approx(
        run.drained_packets + (solver.q_cpu - q_cpu) / wire, rel=1e-9)
    if solver.fabric_profile is None:
        assert run.fabric_offered_packets == 0.0
    else:
        # Fabric stage: offered = delivered to the NIC + dropped at a
        # switch port + queued in the per-link fluid queues.
        assert run.fabric_offered_packets == pytest.approx(
            run.rx_packets + run.fabric_dropped_packets
            + (sum(solver._fab_q) - q_fab) / wire, rel=1e-9)
