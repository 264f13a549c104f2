"""Ablation — the paper-§4 hardware mitigation directions, realized.

Four "looking forward" what-ifs at the most congested operating point
(12 receiver cores, IOMMU ON, 15 STREAM antagonist cores):

- ATS: a device TLB on the NIC absorbs translations before they reach
  the IOMMU (paper: "efficient offload of I/O address translation").
- MBA/MPAM: reserve a memory-bandwidth slice for NIC DMA (paper:
  "mechanisms to more fairly share the memory bandwidth").
- CXL-like link: reduced per-DMA fixed latency (paper: "potentially
  reducing PCIe latency").
- Bigger IOTLB: the brute-force hardware fix.
"""

import dataclasses

from repro.core.config import baseline_config
from repro.core.experiment import run_experiment


def _congested_base():
    base = baseline_config(warmup=5e-3, duration=8e-3)
    return dataclasses.replace(
        base, host=dataclasses.replace(base.host, antagonist_cores=15))


def _with_host(config, **changes):
    return dataclasses.replace(
        config, host=dataclasses.replace(config.host, **changes))


def _variants():
    base = _congested_base()
    host = base.host
    return {
        "baseline": base,
        "ats-device-tlb": _with_host(
            base, iommu=dataclasses.replace(
                host.iommu, device_tlb_entries=512)),
        "mba-reservation": _with_host(
            base, memory=dataclasses.replace(
                host.memory, nic_reserved_fraction=0.25)),
        "cxl-low-latency": _with_host(
            base, pcie=dataclasses.replace(
                host.pcie, dma_fixed_latency=0.4e-6)),
        "4x-iotlb": _with_host(
            base, iommu=dataclasses.replace(
                host.iommu, iotlb_entries=512)),
    }


def test_section4_mitigations_recover_throughput(benchmark):
    def sweep():
        return {name: run_experiment(config)
                for name, config in _variants().items()}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(f"{'variant':>16} {'tput (Gbps)':>12} {'drop %':>8} "
          f"{'misses/pkt':>11}")
    for name, result in results.items():
        print(f"{name:>16} "
              f"{result.metrics['app_throughput_gbps']:>12.1f} "
              f"{result.metrics['drop_rate'] * 100:>8.2f} "
              f"{result.metrics['iotlb_misses_per_packet']:>11.2f}")
    base_tput = results["baseline"].metrics["app_throughput_gbps"]
    for name in ("ats-device-tlb", "mba-reservation", "4x-iotlb"):
        assert results[name].metrics["app_throughput_gbps"] > \
            base_tput + 3, f"{name} should recover throughput"
    # ATS and a bigger IOTLB attack translations specifically.
    assert results["ats-device-tlb"].metrics[
        "iotlb_misses_per_packet"] < 0.3 * results["baseline"].metrics[
        "iotlb_misses_per_packet"]
