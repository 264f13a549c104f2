"""Ablation — NUMA-aware antagonist scheduling (paper §4).

The paper's "rethinking congestion response": rather than reducing the
network rate when the NIC is starved at the memory controller, trigger
CPU rescheduling — move the memory-hungry application to the NUMA node
the NIC is *not* attached to.  This bench runs the Fig. 6 worst case
(15 STREAM cores) in three placements and shows the reschedule restores
NIC throughput without throttling the antagonist.
"""

import dataclasses

from repro.core.config import baseline_config
from repro.core.experiment import run_experiment


def _placement(local: int, remote: int):
    base = baseline_config(warmup=5e-3, duration=8e-3)
    return dataclasses.replace(
        base, host=dataclasses.replace(
            base.host, antagonist_cores=local,
            remote_antagonist_cores=remote))


def test_numa_rescheduling_restores_throughput(benchmark):
    def sweep():
        return {
            "all local (Fig. 6)": run_experiment(_placement(15, 0)),
            "split 8/7": run_experiment(_placement(8, 7)),
            "all remote (§4)": run_experiment(_placement(0, 15)),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(f"{'placement':>20} {'tput Gbps':>10} {'drop %':>7} "
          f"{'local GB/s':>11} {'remote GB/s':>12}")
    for name, result in results.items():
        m = result.metrics
        print(f"{name:>20} {m['app_throughput_gbps']:>10.1f} "
              f"{m['drop_rate'] * 100:>7.2f} "
              f"{m['memory_total_GBps']:>11.1f} "
              f"{m['remote_memory_GBps']:>12.1f}")
    local = results["all local (Fig. 6)"].metrics
    remote = results["all remote (§4)"].metrics
    # The reschedule restores NIC throughput...
    assert remote["app_throughput_gbps"] > \
        local["app_throughput_gbps"] + 15
    # ...while the antagonist still gets its bandwidth, remotely.
    assert remote["remote_memory_GBps"] > 80
    # The split case lands in between.
    split = results["split 8/7"].metrics["app_throughput_gbps"]
    assert local["app_throughput_gbps"] - 2 <= split \
        <= remote["app_throughput_gbps"] + 2
