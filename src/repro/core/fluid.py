"""Fluid-fidelity experiment runner.

:class:`FluidExperiment` is the rate-based twin of
:class:`~repro.core.experiment.ExperimentHandle`: same construction
signature, same ``run_warmup`` / ``run_measurement`` / ``collect``
lifecycle, same metric names in :meth:`collect` and
:meth:`metrics_snapshot` — so the sweep runner, result cache, CSV
writers, ledger, and every figure binding work unchanged at either
fidelity.  Both handles have the phase calls the day and isolation
studies run one loop over: ``now``, ``events_dispatched`` (solver
steps stand in for events), ``run_until(t)``, ``reset_window()``,
``set_offered_load(load)``, ``set_antagonist_cores(n)``, ``window()``
(the headline dict, ``link_utilization`` in it), and
``set_read_packets(sender, packets)`` with ``latency_us(packets)`` (a
read-size class's latency ``Summary``).  ``build_handle`` returns one
when ``config.fidelity == "fluid"``.

The topologies this repo studies are symmetric incasts (every receiver
host serves an identical sender population), so one
:class:`~repro.sim.fluid.FluidSolver` models one host and multi-host
aggregation follows :meth:`repro.core.topology.Topology.snapshot`
analytically: sums for throughputs and bandwidths, traffic-weighted
ratios for rates, means for utilizations and latencies, max for peak
buffer occupancy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import ExperimentConfig
from repro.core.experiment import RunHandle
from repro.core.metrics import Summary
from repro.core.results import ExperimentResult
from repro.sim.fluid import FabricProfile, FluidSolver, weighted_summary

__all__ = ["FluidExperiment"]


class FluidExperiment(RunHandle):
    """A built-but-not-finished fluid experiment (handle-compatible)."""

    def __init__(self, config: ExperimentConfig,
                 fabric_profile: Optional[FabricProfile] = None):
        self.config = config
        self.n_receivers = config.workload.receivers
        self.solver = FluidSolver(config, fabric_profile)
        self._synthesized: Optional[
            Tuple[List[Tuple[float, float]], float]] = None

    @property
    def now(self) -> float:
        return self.solver.now

    @property
    def events_dispatched(self) -> int:
        return self.solver.steps

    def run_until(self, until: float) -> None:
        self.solver.run_until(until)
        self._synthesized = None

    def reset_window(self) -> None:
        """Restart the accumulators; CC and queue state persist."""
        self.solver.reset_stats()
        self._synthesized = None

    def set_offered_load(self, load: float) -> None:
        if self.config.workload.offered_load is None:
            raise ValueError(
                "workload was built closed-loop; offered load is fixed")
        self.solver.set_offered_load(load)

    def set_antagonist_cores(self, cores: int) -> None:
        self.solver.set_antagonist_cores(cores)

    def set_read_packets(self, sender_id: int, packets: int) -> None:
        """Nothing to change: all classes share the step trace, and
        :meth:`latency_us` synthesizes one class at its read size."""

    # -- reporting ---------------------------------------------------------

    def window(self) -> Dict[str, float]:
        """The topology-level headline dict, with ``link_utilization``:
        one symmetric host scaled per ``Topology.snapshot``."""
        snap = self.solver.snapshot()
        m = self.n_receivers
        if m > 1:
            summed = ("app_throughput_gbps", "wire_arrival_gbps",
                      "memory_total_GBps", "iommu_entries",
                      "remote_memory_GBps")
            snap = {key: (value * m if key in summed else value)
                    for key, value in snap.items()}
        snap["link_utilization"] = (snap["wire_arrival_gbps"] * 1e9
                                    / (self.config.link.rate_bps * m))
        return snap

    def latency_us(self, packets: int) -> Summary:
        """Message-latency summary (µs) of a ``packets``-packet read
        class over the measurement window."""
        solver = self.solver
        # Synthesized in seconds and scaled per field: the µs-scale
        # synthesis of :meth:`_messages` differs in the last bits.
        pairs, _ = solver.synthesize_message_pairs(
            solver.run.step_trace, packets, 1.0)
        s = weighted_summary(pairs)
        return Summary(count=s["count"], mean=s["mean"] * 1e6,
                       p50=s["p50"] * 1e6, p90=s["p90"] * 1e6,
                       p99=s["p99"] * 1e6, maximum=s["max"] * 1e6)

    def _messages(self) -> Tuple[List[Tuple[float, float]], float]:
        """(message-latency pairs in µs, timeouts) of the measurement
        window, synthesized from the solver's step trace once per
        measurement (``collect`` and ``metrics_snapshot`` share it)."""
        if self._synthesized is None:
            solver = self.solver
            self._synthesized = solver.synthesize_message_pairs(
                solver.run.step_trace, solver.packets_per_read, 1e6)
        return self._synthesized

    def collect(self) -> ExperimentResult:
        run = self.solver.run
        m = self.n_receivers
        metrics = self.window()
        pairs, timeouts = self._messages()
        messages = sum(w for _, w in pairs)
        metrics.update(
            {
                "packets_sent":
                    (run.rx_packets + run.retransmissions) * m,
                "retransmissions": run.retransmissions * m,
                "timeouts": timeouts * m,
                "mean_cwnd": self.solver.mean_cwnd(),
                "fabric_drops": run.fabric_dropped_packets * m,
                "fabric_drop_rate":
                    (run.fabric_dropped_packets
                     / run.fabric_offered_packets
                     if run.fabric_offered_packets > 0 else 0.0),
                "messages_completed": messages * m,
                # Moved last, where the CSV column order has it.
                "link_utilization": metrics.pop("link_utilization"),
            }
        )
        latency = weighted_summary(pairs)
        return ExperimentResult(
            params=self.config.describe(),
            metrics=metrics,
            message_latency_us={key: latency[key]
                                for key in ("p50", "p90", "p99", "mean")},
        )

    def metrics_snapshot(self) -> Dict[str, Dict]:
        """Registry-shaped snapshot (counters/gauges/histograms/meta)
        with the packet engine's metric names, so ``--metrics-out``
        payloads and ledger rows keep one schema across fidelities."""
        solver = self.solver
        run = solver.run
        snap = solver.snapshot()
        counters = {
            "nic.rx_packets": run.rx_packets,
            "nic.dropped_packets": run.dropped_packets,
            "nic.dma_completed_packets": run.dma_packets,
            "iommu.iotlb_misses":
                solver.misses_per_packet * run.dma_packets,
            "transport.retransmissions": run.retransmissions,
            "transport.timeouts": self._messages()[1],
        }
        gauges = {
            "nic.drop_rate": snap["drop_rate"],
            "host.iotlb_misses_per_packet":
                snap["iotlb_misses_per_packet"],
            "host.app_throughput_gbps": snap["app_throughput_gbps"],
            "memory.bandwidth_GBps": snap["memory_total_GBps"],
            "memory.utilization": snap["memory_utilization"],
            "transport.mean_cwnd": self.solver.mean_cwnd(),
        }
        # Columns 5 and 6 of a trace row: (nic_delay, dma packets).
        delay = weighted_summary([row[5:] for row in run.step_trace])
        histograms = {
            "nic.host_delay_us": {
                key: value if key == "count" else value * 1e6
                for key, value in delay.items()},
        }
        if self.n_receivers == 1:
            payload = {"counters": counters, "gauges": gauges,
                       "histograms": histograms}
        else:
            # Symmetric hosts: every host's subtree carries the same
            # per-host values, prefixed as the packet topology does.
            payload = {
                "counters": {f"host{i}/{k}": v
                             for i in range(self.n_receivers)
                             for k, v in counters.items()},
                "gauges": {f"host{i}/{k}": v
                           for i in range(self.n_receivers)
                           for k, v in gauges.items()},
                "histograms": {f"host{i}/{k}": dict(v)
                               for i in range(self.n_receivers)
                               for k, v in histograms.items()},
            }
        payload["meta"] = {
            "params": self.config.describe(),
            "sim_time_s": self.now,
            "events_dispatched": self.events_dispatched,
            "trace_records": 0,
            "trace_dropped": 0,
            "fidelity": "fluid",
        }
        return payload
