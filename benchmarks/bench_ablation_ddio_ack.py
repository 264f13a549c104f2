"""Ablation — DDIO and ACK coalescing (DESIGN.md §6 knobs 4-5).

- DDIO off: receiver copies read from DRAM instead of LLC, adding
  ~8 GB/s of read demand at full rate — the memory bus saturates with
  fewer antagonist cores.
- ACK coalescing: fewer ACK transmissions mean fewer Tx-side IOTLB
  accesses per received packet.
"""

import dataclasses

from repro.core.config import baseline_config
from repro.core.experiment import run_experiment


def _with_host(config, **changes):
    return dataclasses.replace(
        config, host=dataclasses.replace(config.host, **changes))


def test_ddio_off_increases_memory_pressure(benchmark):
    base = baseline_config(warmup=5e-3, duration=8e-3)
    congested = _with_host(base, antagonist_cores=12)

    def sweep():
        off = _with_host(
            congested,
            ddio=dataclasses.replace(congested.host.ddio, enabled=False))
        return {
            "ddio-on": run_experiment(congested),
            "ddio-off": run_experiment(off),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for name, result in results.items():
        print(f"{name:>9}: tput={result.metrics['app_throughput_gbps']:.1f} "
              f"Gbps, mem util={result.metrics['memory_utilization']:.2f}")
    assert results["ddio-off"].metrics["memory_utilization"] > \
        results["ddio-on"].metrics["memory_utilization"]
    assert results["ddio-off"].metrics["app_throughput_gbps"] < \
        results["ddio-on"].metrics["app_throughput_gbps"] + 1


def test_ack_coalescing_reduces_iotlb_pressure(benchmark):
    base = baseline_config(warmup=5e-3, duration=8e-3)

    def sweep():
        coalesced = _with_host(
            base, nic=dataclasses.replace(base.host.nic,
                                          ack_coalescing=4))
        return {
            "per-packet acks": run_experiment(base),
            "4:1 coalescing": run_experiment(coalesced),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for name, result in results.items():
        print(f"{name:>16}: "
              f"misses/pkt={result.metrics['iotlb_misses_per_packet']:.2f} "
              f"tput={result.metrics['app_throughput_gbps']:.1f}")
    assert results["4:1 coalescing"].metrics[
        "iotlb_misses_per_packet"] < results["per-packet acks"].metrics[
        "iotlb_misses_per_packet"]
