"""Topology: the composed simulation graph, built from config.

:meth:`Topology.build` constructs {N×M senders → fabric → M receiver
hosts} on a simulator and returns the :class:`Topology` — the root
:class:`~repro.sim.component.Component` that
:class:`~repro.core.experiment.ExperimentHandle` binds, resets, and
snapshots, sweep points and the day and isolation studies alike.  It is
the one way a packet graph is built, whether the experiment has one
receiver host (the paper's setup) or many.

The fabric between senders and hosts is the plan of
``config.fabric.topology``: the historical one-hop ``star`` (one
switch, one egress port per host), a k-ary ``fattree`` or a two-switch
``dumbbell``.  Every hop is a real switch port and a routing policy
(static/ECMP/flowlet) picks among equal-cost paths per packet (see
:mod:`repro.net.fabric` and :mod:`repro.net.routing`).

Metric namespacing follows the component tree: a single-host topology
keeps every historical flat name (``nic.rx_packets``,
``transport.mean_cwnd``), while a multi-host topology prefixes each
host's subtree (``host0/nic.rx_packets``, ``host1/transport.mean_cwnd``)
and keeps fabric-level metrics shared (``fabric.fabric_drops``).  The
star's egress ports sit at the root (``port0.dropped``); multi-tier
fabrics expose per-hop metrics per switch
(``fabric/agg1/port2.dropped``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import ExperimentConfig
from repro.host.host import ReceiverHost
from repro.net.fabric import Fabric
from repro.sim.component import Component
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer
from repro.transport.base import Connection
from repro.workload.remote_read import HostWorkload, build_remote_read_graph

__all__ = ["Topology"]


class Topology(Component):
    """Root of the component tree for one experiment."""

    def __init__(
        self,
        config: ExperimentConfig,
        hosts: List[ReceiverHost],
        fabric: Fabric,
        workloads: List[HostWorkload],
    ):
        self.config = config
        self.hosts = hosts
        self.fabric = fabric
        self.workloads = workloads

    @classmethod
    def build(cls, sim: Simulator, config: ExperimentConfig,
              tracer: Optional[Tracer] = None) -> "Topology":
        """Build ``config``'s graph on ``sim``: M =
        ``config.workload.receivers`` hosts behind the fabric
        ``config.fabric`` names."""
        hosts, fabric, workloads = build_remote_read_graph(
            sim, config, tracer=tracer)
        return cls(config, hosts, fabric, workloads)

    @property
    def n_receivers(self) -> int:
        return len(self.hosts)

    def children(self) -> Tuple[Tuple[str, Component], ...]:
        if self.n_receivers == 1:
            named = [("", self.workloads[0])]
        else:
            named = [(f"host{i}", hw)
                     for i, hw in enumerate(self.workloads)]
        return tuple(named + [("", self.fabric)])

    # -- single-host surface ------------------------------------------------

    @property
    def host(self) -> ReceiverHost:
        """The first receiver host (the whole story when M == 1)."""
        return self.hosts[0]

    @property
    def receiver(self):
        """The first host's transport endpoint."""
        return self.workloads[0].receiver

    @property
    def connections(self) -> List[Connection]:
        """Every sender connection, host-major order."""
        out: List[Connection] = []
        for hw in self.workloads:
            out.extend(hw.connections)
        return out

    # -- aggregate statistics ------------------------------------------------

    def total_packets_sent(self) -> int:
        return sum(hw.total_packets_sent() for hw in self.workloads)

    def total_retransmissions(self) -> int:
        return sum(hw.total_retransmissions() for hw in self.workloads)

    def total_timeouts(self) -> int:
        return sum(hw.total_timeouts() for hw in self.workloads)

    def mean_cwnd(self) -> float:
        conns = self.connections
        if not conns:
            return 0.0
        return sum(c.cc.cwnd() for c in conns) / len(conns)

    def messages_completed(self) -> int:
        return sum(hw.receiver.messages_completed()
                   for hw in self.workloads)

    def all_message_latencies(self) -> List[float]:
        out: List[float] = []
        for hw in self.workloads:
            out.extend(hw.receiver.all_message_latencies())
        return out

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """The flat headline dict the sweep CSVs are keyed by.

        Single host: the host's own snapshot, verbatim.  Multi host:
        the same keys, aggregated — sums for throughputs/bandwidths,
        traffic-weighted ratios for rates, means for utilizations and
        latencies, max for the peak-occupancy fraction.
        """
        if self.n_receivers == 1:
            return self.hosts[0].snapshot()
        snaps = [host.snapshot() for host in self.hosts]
        n = len(snaps)
        total_rx = sum(host.nic.rx_packets for host in self.hosts)
        total_drops = sum(host.nic.dropped_packets for host in self.hosts)
        total_dma = sum(host.nic.dma_completed_packets
                        for host in self.hosts)
        total_misses = sum(host.iommu.total_misses for host in self.hosts)
        return {
            "app_throughput_gbps":
                sum(s["app_throughput_gbps"] for s in snaps),
            "wire_arrival_gbps":
                sum(s["wire_arrival_gbps"] for s in snaps),
            "drop_rate": total_drops / total_rx if total_rx else 0.0,
            "iotlb_misses_per_packet":
                total_misses / total_dma if total_dma else 0.0,
            "memory_utilization":
                sum(s["memory_utilization"] for s in snaps) / n,
            "memory_total_GBps":
                sum(s["memory_total_GBps"] for s in snaps),
            "mean_dma_latency_us":
                sum(s["mean_dma_latency_us"] for s in snaps) / n,
            "mean_nic_delay_us":
                sum(s["mean_nic_delay_us"] for s in snaps) / n,
            "nic_buffer_peak_fraction":
                max(s["nic_buffer_peak_fraction"] for s in snaps),
            "iommu_entries": sum(s["iommu_entries"] for s in snaps),
            "remote_memory_GBps":
                sum(s["remote_memory_GBps"] for s in snaps),
        }
