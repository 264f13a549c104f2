"""Unit tests for configuration validation and helpers."""

import dataclasses
import hashlib
import json

import pytest

from repro.core import calibration as cal
from repro.core.config import (
    CpuConfig,
    DdioConfig,
    ExperimentConfig,
    FabricConfig,
    HostConfig,
    IommuConfig,
    LinkConfig,
    MemoryConfig,
    NicConfig,
    SimConfig,
    SwiftConfig,
    WorkloadConfig,
)


class TestCalibration:
    def test_max_app_goodput_is_92gbps(self):
        assert cal.MAX_APP_GOODPUT_BPS == pytest.approx(92e9, rel=0.001)

    def test_swift_blindspot_matches_paper_computation(self):
        # 1 MB buffer over the 100 µs target: ~83.9 Gbps of wire rate.
        assert cal.SWIFT_BLINDSPOT_WIRE_BPS == pytest.approx(
            2**20 * 8 / 100e-6)

    def test_inflight_window_is_five_packets(self):
        assert cal.PCIE_MAX_INFLIGHT_BYTES == 5 * 4452


class TestValidation:
    def test_iommu_ways_must_divide(self):
        with pytest.raises(ValueError):
            IommuConfig(iotlb_entries=128, iotlb_ways=7)

    def test_memory_achievable_within_theoretical(self):
        with pytest.raises(ValueError):
            MemoryConfig(achievable_Bps=200e9, theoretical_Bps=115e9)

    def test_memory_reservation_range(self):
        with pytest.raises(ValueError):
            MemoryConfig(nic_reserved_fraction=1.0)
        MemoryConfig(nic_reserved_fraction=0.5)

    def test_nic_buffer_fits_a_packet(self):
        with pytest.raises(ValueError):
            NicConfig(buffer_bytes=100)

    def test_nic_ack_coalescing_positive(self):
        with pytest.raises(ValueError):
            NicConfig(ack_coalescing=0)

    def test_cpu_cores_positive(self):
        with pytest.raises(ValueError):
            CpuConfig(cores=0)

    def test_cpu_flush_interval_positive(self):
        with pytest.raises(ValueError):
            CpuConfig(descriptor_flush_interval=0.0)

    def test_workload_receivers_minimum(self):
        with pytest.raises(ValueError):
            WorkloadConfig(receivers=0)

    def test_host_region_minimum(self):
        with pytest.raises(ValueError):
            HostConfig(rx_region_bytes=1000)

    def test_host_antagonists_non_negative(self):
        with pytest.raises(ValueError):
            HostConfig(antagonist_cores=-1)

    def test_swift_targets_positive(self):
        with pytest.raises(ValueError):
            SwiftConfig(host_target=0.0)
        with pytest.raises(ValueError):
            SwiftConfig(max_mdf=1.5)
        with pytest.raises(ValueError):
            SwiftConfig(hold_threshold=0.0)

    def test_workload_read_at_least_one_mtu(self):
        with pytest.raises(ValueError):
            WorkloadConfig(read_size_bytes=100)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=0)

    def test_fabric_buffer_rejected_on_the_star(self):
        """The star's egress buffer is the link's; a fabric buffer
        there would be silently ignored, so it is refused."""
        with pytest.raises(ValueError, match=r"fabric\.buffer_bytes.*"
                           r"link\.switch_buffer_bytes"):
            FabricConfig(buffer_bytes=150_000)
        for topology in ("fattree", "dumbbell"):
            FabricConfig(topology=topology, buffer_bytes=150_000)

    def test_sim_validation(self):
        with pytest.raises(ValueError):
            SimConfig(duration=0)
        with pytest.raises(ValueError):
            SimConfig(warmup=-1)

    def test_transport_name_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(transport="reno")


class TestHelpers:
    def test_workload_wire_bytes(self):
        wl = WorkloadConfig()
        assert wl.wire_bytes_per_packet == 4096 + 356

    def test_workload_packets_per_read(self):
        assert WorkloadConfig(read_size_bytes=16384).packets_per_read == 4
        assert WorkloadConfig(read_size_bytes=10000).packets_per_read == 3

    def test_ddio_fractions_switch(self):
        on = DdioConfig(enabled=True).copy_demand_fractions()
        off = DdioConfig(enabled=False).copy_demand_fractions()
        assert on[0] < off[0]

    def test_switch_buffer_falls_back_to_the_link_buffer(self):
        star = ExperimentConfig(link=LinkConfig(switch_buffer_bytes=9000))
        assert star.switch_buffer_bytes == 9000
        tier = dataclasses.replace(star, fabric=FabricConfig(
            topology="dumbbell", buffer_bytes=150_000))
        assert tier.switch_buffer_bytes == 150_000

    def test_sim_end_time(self):
        assert SimConfig(warmup=1e-3, duration=2e-3).end_time == 3e-3

    def test_describe_flat_summary(self):
        desc = ExperimentConfig().describe()
        assert desc["transport"] == "swift"
        assert desc["cores"] == 12
        assert desc["rx_region_mb"] == 12.0

    def test_configs_are_frozen(self):
        cfg = HostConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.antagonist_cores = 3


class TestSharedDefaults:
    """Each default sub-config is built and validated once, then shared
    by every config that leaves it unset."""

    def test_defaults_share_sub_config_instances(self):
        a, b = ExperimentConfig(), ExperimentConfig(transport="cubic")
        for name in ("host", "link", "fabric", "workload", "swift", "sim"):
            assert getattr(a, name) is getattr(b, name), name
        host = HostConfig(cpu=CpuConfig(cores=4))
        for name in ("nic", "pcie", "iommu", "memory", "ddio"):
            assert getattr(host, name) is getattr(a.host, name), name
        assert host.cpu is not a.host.cpu

    def test_explicit_bad_field_still_raises(self):
        with pytest.raises(ValueError, match="NIC buffer"):
            NicConfig(buffer_bytes=-1)
        with pytest.raises(ValueError, match="NIC buffer"):
            HostConfig(nic=NicConfig(buffer_bytes=-1))
        assert HostConfig().nic.buffer_bytes == cal.NIC_BUFFER_BYTES

    def test_drawn_fleet_configs_are_unchanged(self):
        # SHA-256 of the first 20 fluid hosts of seed 5, as
        # ``dataclasses.asdict`` trees, recorded when every default was
        # still a fresh instance per config.
        from repro.workload.fleet import FleetSampler

        sampler = FleetSampler(seed=5, fidelity="fluid")
        blob = json.dumps([dataclasses.asdict(sampler.draw_config(i))
                           for i in range(20)], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "7aecd2ec604a86bca2c1a34541b4fa7d36b54fa9792acd8fbee94341624410d9")
