"""Isolation study: small-RPC victims sharing a congested host.

Paper §1: "host congestion ... can lead to hundreds of microseconds of
tail latency, significant throughput drop, and violation of isolation
properties due to packet drops" — all applications share one NIC
buffer, so an application that did nothing wrong pays for its
neighbours' congestion.

This study runs the standard incast with one *victim* connection per
receiver thread issuing single-MTU (4 KB) RPCs, while every other
connection issues the usual 16 KB elephant reads.  Comparing victim
tail latency between an uncongested and a congested host quantifies the
isolation violation.  The study is written once over a run handle, so
it runs the same at either fidelity: the packet kernel splits latencies
by each read-size class's flows, the fluid solver synthesizes both
classes from one step trace — the identical congestion signal, which
is exactly the shared-NIC-buffer coupling the study measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import ExperimentConfig
from repro.core.metrics import Summary
from repro.workload.remote_read import require_single_star_host

__all__ = ["IsolationResult", "run_isolation_study"]

#: The victim is the connection to sender 0 on each thread.
_VICTIM_SENDER = 0


@dataclass(frozen=True)
class IsolationResult:
    """Latency summaries (µs) for victims and elephants."""

    victim: Summary
    elephant: Summary
    drop_rate: float
    app_throughput_gbps: float

    def victim_penalty_p99(self, baseline: "IsolationResult") -> float:
        """p99 blow-up factor of victims vs an uncongested baseline."""
        if baseline.victim.p99 <= 0:
            raise ValueError("baseline has no victim latency samples")
        return self.victim.p99 / baseline.victim.p99


def run_isolation_study(config: ExperimentConfig) -> IsolationResult:
    """Run one isolation experiment and split latencies by class."""
    if config.workload.senders < 2 or config.workload.packets_per_read < 2:
        raise ValueError("isolation needs 2+ senders and multi-packet reads")
    require_single_star_host(config, "run_isolation_study")
    # Local import: the workload layer sits below core.
    from repro.core.experiment import build_handle

    handle = build_handle(config)
    handle.set_read_packets(_VICTIM_SENDER, 1)
    handle.run_warmup()
    handle.run_measurement()
    window = handle.window()
    return IsolationResult(
        victim=handle.latency_us(1),
        elephant=handle.latency_us(config.workload.packets_per_read),
        drop_rate=window["drop_rate"],
        app_throughput_gbps=window["app_throughput_gbps"],
    )


def congested_vs_uncongested(
    base: ExperimentConfig,
) -> Dict[str, IsolationResult]:
    """Convenience: run the study at a genuinely uncongested operating
    point (light open-loop load, no antagonists — every queue near
    empty) and at the congested one (``base`` as given)."""
    from repro.core.scenario import apply_overrides

    uncongested = apply_overrides(base, {"host.antagonist_cores": 0,
                                         "workload.offered_load": 0.25})
    return {
        "uncongested": run_isolation_study(uncongested),
        "congested": run_isolation_study(base),
    }
