"""Experiment runner: config in, metrics out.

Builds the full simulation graph with
:meth:`~repro.core.topology.Topology.build` (M receiver hosts behind one
fabric; M = ``config.workload.receivers``), runs the warmup, resets all
window counters through the component tree, runs the measurement
window, and collects every headline metric of the paper.

Every handle owns a :class:`~repro.obs.metrics.MetricsRegistry` with
every component's observables bound, and a
:class:`~repro.sim.tracing.Tracer` (enabled by ``config.sim.trace``)
whose records export to Perfetto via :mod:`repro.obs.perfetto`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Hashable, List, Optional

from repro.core.config import ExperimentConfig
from repro.core.metrics import Summary, summarize
from repro.core.results import ExperimentResult
from repro.core.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import MetricsSampler
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer

__all__ = ["run_experiment", "build_handle", "solve_key",
           "ExperimentHandle"]


class RunHandle:
    """The warmup/measurement lifecycle, over the ``run_until`` and
    ``reset_window`` phase calls each fidelity's handle defines."""

    _measuring = False

    def run_warmup(self) -> None:
        self.run_until(self.config.sim.warmup)
        self.reset_window()
        self._measuring = True

    def run_measurement(self) -> None:
        if not self._measuring:
            self.run_warmup()
        self.run_until(self.config.sim.end_time)


class ExperimentHandle(RunHandle):
    """A built-but-not-finished experiment, for callers that want to
    probe mid-run state (time series, convergence tests)."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.sim = Simulator()
        self.tracer = Tracer(self.sim, enabled=config.sim.trace,
                             max_records=config.sim.trace_max_records)
        self.metrics = MetricsRegistry()
        self.topology = Topology.build(self.sim, config,
                                       tracer=self.tracer)
        self.topology.bind_metrics(self.metrics)
        # Opt-in live telemetry: a sampler polling the registry into a
        # bounded ring on a sim-time cadence.  Off (None) by default —
        # the normal path builds nothing, and its reads cannot perturb
        # results (see obs.telemetry).
        self.sampler: Optional[MetricsSampler] = None
        if config.sim.sample_interval is not None:
            self.sampler = MetricsSampler(
                self.sim, self.metrics,
                interval=config.sim.sample_interval)
            self.sampler.bind_metrics(self.metrics)

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def events_dispatched(self) -> int:
        return self.sim.events_dispatched

    def run_until(self, until: float) -> None:
        self.sim.run(until=until)

    def reset_window(self) -> None:
        """Restart every window counter; queue and CC state persist."""
        self.topology.reset_stats()
        self.metrics.reset_window()

    def set_offered_load(self, load: float) -> None:
        for hw in self.topology.workloads:
            hw.set_offered_load(load)

    def set_antagonist_cores(self, cores: int) -> None:
        for host in self.topology.hosts:
            host.antagonist.set_cores(cores)

    def set_read_packets(self, sender_id: int, packets: int) -> None:
        """The receivers count reads from sender ``sender_id`` as
        ``packets``-packet messages (a read-size class); the rest keep
        the config's size."""
        for hw in self.topology.workloads:
            for conn in hw.connections:
                if conn.sender_id == sender_id:
                    hw.receiver.per_flow_packets[conn.flow_id] = packets

    def run_warmup(self) -> None:
        super().run_warmup()
        # The sampling epoch is the warmup boundary: ticks land at
        # warmup + k·interval, aligned with the measurement window.
        if self.sampler is not None:
            self.sampler.start()

    def metrics_snapshot(self) -> Dict[str, Dict]:
        """The full registry snapshot plus run metadata — the payload
        behind the CLI's ``--metrics-out`` flag."""
        snapshot = self.metrics.snapshot()
        snapshot["meta"] = {
            "params": self.config.describe(),
            "sim_time_s": self.now,
            "events_dispatched": self.events_dispatched,
            "trace_records": len(self.tracer),
            "trace_dropped": self.tracer.dropped,
        }
        sampler = self.sampler
        if sampler is not None:
            snapshot["telemetry"] = {
                "interval": self.config.sim.sample_interval,
                "ticks": sampler.ticks,
                "dropped": sampler.dropped,
                "samples": [sample.as_list()
                            for sample in sampler.samples],
            }
        return snapshot

    def telemetry_samples(self) -> list:
        """Samples captured so far (non-draining); empty when the
        sampler is disabled."""
        if self.sampler is None:
            return []
        return list(self.sampler.samples)

    def window(self) -> Dict[str, float]:
        """The topology-level headline dict, with ``link_utilization``."""
        metrics: Dict[str, float] = self.topology.snapshot()
        metrics["link_utilization"] = (
            metrics["wire_arrival_gbps"] * 1e9
            / (self.config.link.rate_bps * self.topology.n_receivers))
        return metrics

    def latency_us(self, packets: int) -> Summary:
        """Message-latency summary (µs) of the ``packets``-packet read
        class, host-major."""
        latencies: List[float] = []
        for hw in self.topology.workloads:
            receiver = hw.receiver
            latencies.extend(receiver.message_latencies_for(
                conn.flow_id for conn in hw.connections
                if receiver.per_flow_packets.get(
                    conn.flow_id, receiver.packets_per_read) == packets))
        return summarize([v * 1e6 for v in latencies])

    def collect(self) -> ExperimentResult:
        topology = self.topology
        metrics = self.window()
        metrics.update(
            {
                "packets_sent": float(topology.total_packets_sent()),
                "retransmissions": float(topology.total_retransmissions()),
                "timeouts": float(topology.total_timeouts()),
                "mean_cwnd": topology.mean_cwnd(),
                "fabric_drops": float(topology.fabric.fabric_drops()),
                "fabric_drop_rate":
                    (float(topology.fabric.fabric_drops())
                     / float(topology.total_packets_sent())
                     if topology.total_packets_sent() else 0.0),
                "messages_completed": float(topology.messages_completed()),
                # Moved last, where the CSV column order has it.
                "link_utilization": metrics.pop("link_utilization"),
            }
        )
        latencies = topology.all_message_latencies()
        latency_summary = summarize([v * 1e6 for v in latencies])
        return ExperimentResult(
            params=self.config.describe(),
            metrics=metrics,
            message_latency_us={
                "p50": latency_summary.p50,
                "p90": latency_summary.p90,
                "p99": latency_summary.p99,
                "mean": latency_summary.mean,
            },
        )


def build_handle(config: ExperimentConfig, fabric_profile=None):
    """The run handle for ``config.fidelity``; both kinds have the phase
    calls listed in :mod:`repro.core.fluid`.

    ``fabric_profile`` is the fluid solve's fabric profile when the
    caller already holds it (the second half of a fluid
    :func:`solve_key`); the packet kernel ignores it.
    """
    if config.fidelity == "fluid":
        # Local import: the fluid runner is optional machinery this
        # module should not pay for (or circularly depend on) up front.
        from repro.core.fluid import FluidExperiment

        return FluidExperiment(config, fabric_profile)
    return ExperimentHandle(config)


def solve_key(config: ExperimentConfig) -> Hashable:
    """What ``config``'s run reads, as a dict key: configs with equal
    keys give results that differ only in their ``params`` labels.

    A packet run draws from ``sim.seed`` throughout, so its key is the
    config itself.  A fluid solve reads the seed in one place only, the
    routing hash of :func:`~repro.sim.fluid.fluid_fabric_profile`, so
    its key is the config with the seed normalized plus that profile:
    seed repeats share a key unless their hash moves a flow onto
    another receiver-side link.
    """
    if config.fidelity == "fluid":
        from repro.sim.fluid import fluid_fabric_profile

        return (replace(config, sim=replace(config.sim, seed=0)),
                fluid_fabric_profile(config))
    return config


def run_experiment(
    config: ExperimentConfig,
    handle_out: Optional[list] = None,
    fabric_profile=None,
) -> ExperimentResult:
    """Run one experiment end to end and return its result.

    ``handle_out``, if given, receives the :class:`ExperimentHandle`
    (for tests that want to inspect internal component state after the
    run).

    ``config.fidelity`` selects the engine: the packet-level kernel
    (default) or the rate-based fluid solver — same lifecycle, same
    result schema, so callers never branch on fidelity themselves.
    ``fabric_profile`` is passed to :func:`build_handle`.
    """
    handle = build_handle(config, fabric_profile)
    if handle_out is not None:
        handle_out.append(handle)
    handle.run_warmup()
    handle.run_measurement()
    return handle.collect()
