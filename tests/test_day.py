"""Tests for the one-host-day simulation (time-varying load)."""

import dataclasses

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.experiment import ExperimentHandle, build_handle
from repro.workload.day import DayBin, diurnal_schedule, simulate_day


def open_loop_config(load=0.5, cores=8, senders=8):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=cores)),
        workload=WorkloadConfig(senders=senders, offered_load=load),
        sim=SimConfig(warmup=1e-3, duration=2e-3, seed=4),
    )


class TestSchedule:
    def test_length_and_bounds(self):
        schedule = diurnal_schedule(48, seed=1)
        assert len(schedule) == 48
        for load, antagonists in schedule:
            assert 0.05 <= load <= 1.0
            assert antagonists >= 0

    def test_deterministic(self):
        assert diurnal_schedule(24, seed=9) == diurnal_schedule(24, seed=9)

    def test_has_diurnal_swing(self):
        schedule = diurnal_schedule(48, seed=1)
        loads = [load for load, _ in schedule]
        assert max(loads) - min(loads) > 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_schedule(0)
        with pytest.raises(ValueError):
            diurnal_schedule(10, base_load=0.0)


class TestSetOfferedLoad:
    def test_requires_open_loop(self):
        config = ExperimentConfig(
            host=HostConfig(cpu=CpuConfig(cores=4)),
            workload=WorkloadConfig(senders=4),  # closed loop
            sim=SimConfig(warmup=1e-3, duration=1e-3, seed=1))
        handle = ExperimentHandle(config)
        with pytest.raises(ValueError):
            handle.set_offered_load(0.5)

    def test_rate_change_takes_effect(self):
        handle = ExperimentHandle(open_loop_config(load=0.2))
        handle.sim.run(until=2e-3)
        before = handle.topology.host.nic.rx_packets
        handle.set_offered_load(0.8)
        handle.sim.run(until=4e-3)
        after = handle.topology.host.nic.rx_packets - before
        assert after > 2 * before  # ~4x the rate over an equal window

    def test_range_validated(self):
        handle = ExperimentHandle(open_loop_config())
        with pytest.raises(ValueError):
            handle.set_offered_load(0.0)
        with pytest.raises(ValueError):
            handle.set_offered_load(3.0)


@pytest.mark.parametrize("fidelity", ["packet", "fluid"])
@pytest.mark.parametrize("schedule, message", [
    ([(3.0, 0)], r"offered load 3.0 out of \(0, 2\]"),
    ([(0.0, 0)], r"offered load 0.0 out of \(0, 2\]"),
    ([(0.5, -4)], "cores must be non-negative, got -4"),
], ids=["load-above-2", "zero-load", "negative-cores"])
def test_day_checks_bin_ranges_at_both_fidelities(schedule, message,
                                                  fidelity):
    # The per-bin setters reject the same inputs, with the same
    # messages, on the packet kernel and on the fluid solver.
    config = dataclasses.replace(open_loop_config(), fidelity=fidelity)
    with pytest.raises(ValueError, match=message):
        simulate_day(config, schedule, bin_duration=1e-4,
                     warmup_per_bin=1e-4)


@pytest.mark.parametrize("fidelity", ["packet", "fluid"])
def test_handle_load_change_requires_open_loop(fidelity):
    config = ExperimentConfig(
        workload=WorkloadConfig(senders=4),  # closed loop
        sim=SimConfig(warmup=1e-3, duration=1e-3, seed=1),
        fidelity=fidelity)
    with pytest.raises(ValueError, match="closed-loop"):
        build_handle(config).set_offered_load(0.5)


class TestSimulateDay:
    def test_requires_open_loop(self):
        config = ExperimentConfig(
            host=HostConfig(cpu=CpuConfig(cores=4)),
            workload=WorkloadConfig(senders=4),
            sim=SimConfig(warmup=1e-3, duration=1e-3, seed=1))
        with pytest.raises(ValueError):
            simulate_day(config, [(0.5, 0)])

    def test_bins_measure_their_own_load(self):
        schedule = [(0.2, 0), (0.7, 0)]
        bins = simulate_day(open_loop_config(), schedule,
                            bin_duration=3e-3, warmup_per_bin=1e-3)
        assert [b.index for b in bins] == [0, 1]
        assert isinstance(bins[0], DayBin)
        assert bins[1].link_utilization > 2 * bins[0].link_utilization

    def test_antagonist_applied_per_bin(self):
        schedule = [(0.3, 0), (0.3, 15)]
        bins = simulate_day(open_loop_config(), schedule,
                            bin_duration=2e-3)
        assert bins[0].antagonist_cores == 0
        assert bins[1].antagonist_cores == 15
