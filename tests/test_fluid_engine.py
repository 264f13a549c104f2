"""The fluid engine's contracts that don't need a packet run: the
working-set model shared with the core model, config plumbing,
result-schema parity, and the PR-5 error contract for fidelity
validation.

Cross-fidelity *agreement* (knees, winners, tolerances) lives in
``tests/test_fluid_xval.py``; this file holds the fast invariants.
"""

import dataclasses

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
from repro.core.scenario import ScenarioError, load_scenario_file
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
    """``fluid_working_set`` recomputes ``iotlb_working_set`` from the
    raw config (the kernel layer may not import repro.core.model); the
    two must agree at every operating point."""
    from repro.core.model import iotlb_working_set

    config = quick_config(cores=cores, hugepages=hugepages)
    pages, accesses = fluid.fluid_working_set(config)
    ws = iotlb_working_set(config.host)
    assert pages == ws.total_pages
    assert accesses == ws.accesses_per_packet


# -- fidelity plumbing ---------------------------------------------------


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
