"""Configuration dataclasses for every subsystem.

All components are constructed from these configs; nothing reads global
state.  Each config validates itself in ``__post_init__`` so a bad
experiment fails at construction, not 30 simulated milliseconds in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core import calibration as cal

__all__ = [
    "FIDELITIES",
    "TOPOLOGIES",
    "CpuConfig",
    "DdioConfig",
    "ExperimentConfig",
    "FabricConfig",
    "HostConfig",
    "IommuConfig",
    "LinkConfig",
    "MemoryConfig",
    "NicConfig",
    "PcieConfig",
    "SimConfig",
    "SwiftConfig",
    "WorkloadConfig",
    "baseline_config",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


#: ``default_factory=_shared(cls)`` builds one ``cls()`` on first use
#: and returns that instance from then on.  Configs are frozen, so every
#: default can share it, and it is validated once rather than per
#: config.  Not ``default=cls()``: building :class:`FabricConfig` at
#: import is circular through ``repro.net.routing``.
_shared = functools.cache


#: Simulation fidelities an experiment may select: the packet-level
#: discrete-event kernel, or the RTT-stepped fluid solver
#: (:mod:`repro.sim.fluid`) cross-validated against it.
FIDELITIES = ("packet", "fluid")


@dataclass(frozen=True)
class PcieConfig:
    """PCIe link between NIC and root complex."""

    #: Theoretical link capacity (bits/s); gen3 x16 ≈ 128 Gbps.
    raw_bps: float = cal.PCIE_RAW_BPS
    #: Achievable goodput after TLP/link-layer overhead (bits/s).
    goodput_bps: float = cal.PCIE_GOODPUT_BPS
    #: Credit-limited maximum in-flight DMA bytes.
    max_inflight_bytes: int = cal.PCIE_MAX_INFLIGHT_BYTES
    #: Fixed per-DMA latency (issue, root complex, completion).
    dma_fixed_latency: float = cal.DMA_FIXED_LATENCY

    def __post_init__(self) -> None:
        _require(self.goodput_bps <= self.raw_bps,
                 "PCIe goodput cannot exceed raw capacity")
        _require(self.goodput_bps > 0, "PCIe goodput must be positive")
        _require(self.max_inflight_bytes >= cal.MTU_PAYLOAD_BYTES,
                 "in-flight credit window smaller than one MTU")
        _require(self.dma_fixed_latency >= 0, "negative DMA latency")


@dataclass(frozen=True)
class IommuConfig:
    """IOMMU / IOTLB behaviour."""

    enabled: bool = True
    iotlb_entries: int = cal.IOTLB_ENTRIES
    #: Set-associativity; None means fully associative.
    iotlb_ways: int | None = cal.IOTLB_WAYS
    iotlb_hit_latency: float = cal.IOTLB_HIT_LATENCY
    #: Page-walk cache entries per upper level (L4, L3, L2).  Large
    #: enough that a leaf access dominates typical walks, per the paper:
    #: a miss costs "one or more" memory accesses.
    walk_cache_entries: int = 32
    #: ATS-style device TLB on the NIC (paper §4 extension); 0 disables.
    device_tlb_entries: int = 0

    def __post_init__(self) -> None:
        _require(self.iotlb_entries > 0, "IOTLB must have entries")
        _require(
            self.iotlb_ways is None
            or (self.iotlb_ways > 0
                and self.iotlb_entries % self.iotlb_ways == 0),
            "iotlb_ways must divide iotlb_entries")
        _require(self.iotlb_hit_latency >= 0, "negative IOTLB hit latency")
        _require(self.walk_cache_entries >= 0, "negative walk cache size")
        _require(self.device_tlb_entries >= 0, "negative device TLB size")


@dataclass(frozen=True)
class MemoryConfig:
    """Memory controller and bus."""

    theoretical_Bps: float = cal.MEMORY_BW_THEORETICAL_BPS
    achievable_Bps: float = cal.MEMORY_BW_ACHIEVABLE_BPS
    idle_latency: float = cal.MEMORY_IDLE_LATENCY
    walk_base_latency: float = cal.WALK_BASE_LATENCY
    max_queue_delay: float = cal.MEMORY_MAX_QUEUE_DELAY
    #: Fraction of DMA-write queueing inflation seen by page-walk reads.
    walk_contention_fraction: float = cal.WALK_CONTENTION_FRACTION
    #: Allocation weights under saturation: the paper observes that CPU
    #: traffic wins over NIC DMA on a contended bus (§3.2).
    cpu_weight: float = 4.0
    nic_weight: float = 1.0
    #: How often the fluid allocation is recomputed.
    tick_interval: float = 20e-6
    #: EWMA time-constant for demand estimates.
    demand_tau: float = 200e-6
    #: MBA/MPAM-style QoS: minimum bandwidth share reserved for NIC DMA
    #: (fraction of achievable bandwidth; paper §4 extension).
    nic_reserved_fraction: float = 0.0

    def __post_init__(self) -> None:
        _require(0 < self.achievable_Bps <= self.theoretical_Bps,
                 "achievable memory bandwidth must be in (0, theoretical]")
        _require(self.idle_latency > 0, "idle latency must be positive")
        _require(self.walk_base_latency > 0,
                 "walk base latency must be positive")
        _require(self.max_queue_delay >= 0, "negative max queue delay")
        _require(0 <= self.walk_contention_fraction <= 1,
                 "walk_contention_fraction must be in [0,1]")
        _require(self.cpu_weight > 0 and self.nic_weight > 0,
                 "allocation weights must be positive")
        _require(self.tick_interval > 0, "tick interval must be positive")
        _require(0 <= self.nic_reserved_fraction < 1,
                 "nic_reserved_fraction must be in [0,1)")


@dataclass(frozen=True)
class DdioConfig:
    """Direct cache access (DDIO) model.

    DDIO steers DMA writes into the LLC; evictions still cross the
    memory bus (paper §2 footnote 2), so NIC *write* demand is counted
    in full either way.  What DDIO changes is the CPU copy traffic: with
    DDIO on, copies read mostly from LLC.
    """

    enabled: bool = True
    copy_read_fraction: float = cal.COPY_READ_FRACTION
    copy_write_fraction: float = cal.COPY_WRITE_FRACTION
    #: Copy read fraction when DDIO is disabled (payload reads miss LLC).
    copy_read_fraction_no_ddio: float = 1.0
    #: Track DDIO-slice residency per packet instead of using the
    #: static fractions — enables the emergent "leaky DMA" effect
    #: (see :mod:`repro.host.llc`).
    dynamic_llc: bool = False
    #: DDIO slice size: 2 of 11 LLC ways on the paper's Skylake parts.
    ddio_slice_bytes: int = 7 * 2**20

    def __post_init__(self) -> None:
        for name in ("copy_read_fraction", "copy_write_fraction",
                     "copy_read_fraction_no_ddio"):
            _require(0 <= getattr(self, name) <= 1.5,
                     f"{name} out of range")
        _require(self.ddio_slice_bytes > 0,
                 "ddio_slice_bytes must be positive")

    def copy_demand_fractions(self) -> tuple[float, float]:
        """(read, write) memory demand per payload byte copied."""
        if self.enabled:
            return self.copy_read_fraction, self.copy_write_fraction
        return self.copy_read_fraction_no_ddio, self.copy_write_fraction


@dataclass(frozen=True)
class NicConfig:
    """NIC input buffer and receive rings."""

    buffer_bytes: int = cal.NIC_BUFFER_BYTES
    ring_descriptors: int = cal.RX_RING_DESCRIPTORS
    replenish_batch: int = 32
    #: 4 KB control pages the NIC touches per queue.
    desc_ring_pages: int = cal.DESC_RING_PAGES
    completion_ring_pages: int = cal.COMPLETION_RING_PAGES
    tx_desc_ring_pages: int = cal.TX_DESC_RING_PAGES
    tx_completion_ring_pages: int = cal.TX_COMPLETION_RING_PAGES
    ack_staging_pages: int = cal.ACK_STAGING_PAGES
    conn_state_pages: int = cal.CONN_STATE_PAGES
    #: ACK coalescing: one ACK per this many data packets.
    ack_coalescing: int = 1

    def __post_init__(self) -> None:
        _require(self.buffer_bytes >= cal.MTU_PAYLOAD_BYTES,
                 "NIC buffer smaller than one packet")
        _require(self.ring_descriptors > 0, "ring must have descriptors")
        _require(0 < self.replenish_batch <= self.ring_descriptors,
                 "replenish batch out of range")
        _require(self.ack_coalescing >= 1, "ack_coalescing must be >= 1")


@dataclass(frozen=True)
class CpuConfig:
    """Receiver-side processing threads."""

    cores: int = 12
    core_rate_bps: float = cal.CORE_PROCESSING_GBPS * 1e9
    #: Fractional slowdown of packet processing at full memory-bus
    #: utilization (copies stall on a saturated bus).
    contention_slowdown: float = 0.15
    #: How often idle threads return batched Rx descriptors to the NIC.
    descriptor_flush_interval: float = 100e-6

    def __post_init__(self) -> None:
        _require(self.cores >= 1, "need at least one receiver core")
        _require(self.core_rate_bps > 0, "core rate must be positive")
        _require(0 <= self.contention_slowdown < 1,
                 "contention_slowdown must be in [0,1)")
        _require(self.descriptor_flush_interval > 0,
                 "descriptor_flush_interval must be positive")


@dataclass(frozen=True)
class HostConfig:
    """The receiver host: all interconnect components plus layout."""

    nic: NicConfig = field(default_factory=_shared(NicConfig))
    pcie: PcieConfig = field(default_factory=_shared(PcieConfig))
    iommu: IommuConfig = field(default_factory=_shared(IommuConfig))
    memory: MemoryConfig = field(default_factory=_shared(MemoryConfig))
    ddio: DdioConfig = field(default_factory=_shared(DdioConfig))
    cpu: CpuConfig = field(default_factory=_shared(CpuConfig))
    #: Rx data region registered with the IOMMU, per receiver thread.
    rx_region_bytes: int = cal.RX_REGION_BYTES
    #: 2 MB mappings for data when True, 4 KB otherwise (paper Fig. 4).
    hugepages: bool = True
    #: STREAM antagonist cores on the NIC-local NUMA node (Fig. 6).
    antagonist_cores: int = 0
    antagonist_per_core_Bps: float = cal.STREAM_PER_CORE_BPS
    #: Antagonist cores scheduled on the *remote* NUMA node — the
    #: paper's §4 congestion-response idea ("scheduling applications on
    #: NUMA nodes different from the one where the NIC is connected").
    #: They consume the remote node's bus, not the NIC's.
    remote_antagonist_cores: int = 0

    def __post_init__(self) -> None:
        _require(self.rx_region_bytes >= 2**20,
                 "rx region must be at least 1 MB")
        _require(self.antagonist_cores >= 0, "negative antagonist cores")
        _require(self.antagonist_per_core_Bps >= 0,
                 "negative antagonist demand")
        _require(self.remote_antagonist_cores >= 0,
                 "negative remote antagonist cores")

    @property
    def data_page_bytes(self) -> int:
        """Page size of the Rx data mappings."""
        return cal.data_page_bytes(self.hugepages)

    @property
    def data_pages_per_thread(self) -> int:
        """IOMMU pages of one thread's Rx data region."""
        return -(-self.rx_region_bytes // self.data_page_bytes)

    @property
    def registered_pages_per_thread(self) -> int:
        """IOMMU pages one thread registers up front ("loose mode"): its
        Rx data region plus every 4 KB control page (rings, ACK
        staging, connection state)."""
        nic = self.nic
        return (self.data_pages_per_thread
                + nic.desc_ring_pages + nic.completion_ring_pages
                + nic.tx_desc_ring_pages + nic.tx_completion_ring_pages
                + nic.ack_staging_pages + nic.conn_state_pages)

    @property
    def hot_pages_per_thread(self) -> int:
        """Control pages one thread touches in steady state: connection
        state, ACK staging, and one hot page per ring."""
        return (self.nic.conn_state_pages + self.nic.ack_staging_pages
                + cal.HOT_RING_PAGES)

    @property
    def payload_pages_per_packet(self) -> int:
        """Data pages one MTU payload spans."""
        return 1 if self.hugepages else 2


@dataclass(frozen=True)
class LinkConfig:
    """Access link and fabric path."""

    rate_bps: float = cal.LINE_RATE_BPS
    #: One-way propagation+switching delay; chosen so the base RTT is
    #: the paper's ~20 µs.
    one_way_delay: float = cal.BASE_RTT_SECONDS / 2
    #: Fabric switch egress buffer — large, so the fabric is not the
    #: bottleneck (the paper's congestion is at the host).
    switch_buffer_bytes: int = 32 * 2**20
    #: ECN marking threshold at the switch egress (DCTCP's signal);
    #: ~65 full-size packets, the DCTCP paper's K for 10+ Gbps.
    ecn_threshold_bytes: int = 300_000

    def __post_init__(self) -> None:
        _require(self.rate_bps > 0, "link rate must be positive")
        _require(self.one_way_delay >= 0, "negative propagation delay")
        _require(self.switch_buffer_bytes > 0, "switch buffer must be > 0")
        _require(self.ecn_threshold_bytes > 0,
                 "ecn threshold must be positive")


#: Fabric topologies with a plan (:mod:`repro.net.plan`): the
#: historical one-hop star (one switch), a k-ary fat-tree (edge/agg/
#: core tiers), and a two-switch dumbbell with parallel trunk links.
TOPOLOGIES = ("star", "fattree", "dumbbell")


@dataclass(frozen=True)
class FabricConfig:
    """Fabric shape and routing policy.

    The default (``star`` + ``static``) is the historical one-hop
    fabric: one switch with an egress port per receiver host.  Every
    topology routes each packet through real per-hop switch queues
    (:mod:`repro.net.fabric`).
    """

    #: One of :data:`TOPOLOGIES`.
    topology: str = "star"
    #: Any name in the routing registry ("static", "ecmp", "flowlet",
    #: plus anything registered from outside).  Never consulted on
    #: ``star``, whose every host has a single path by construction.
    routing: str = "static"
    #: Fat-tree arity (pods); must be even.  k=4 gives 8 edge and 8 agg
    #: switches plus 4 cores, with (k/2)^2 = 4 cross-pod paths.
    fattree_k: int = 4
    #: Parallel core links in the dumbbell trunk (the equal-cost set).
    trunk_links: int = 2
    #: Inter-switch link capacity as a fraction of the access-link
    #: rate: edge<->agg and agg<->core links in the fat-tree, trunk
    #: links in the dumbbell.  < 1 makes the fabric the bottleneck.
    uplink_scale: float = 1.0
    #: Per-port output buffer for multi-tier switches (``None``: see
    #: :attr:`ExperimentConfig.switch_buffer_bytes`).  Rejected on
    #: ``star``, whose egress buffer is ``link.switch_buffer_bytes``.
    buffer_bytes: Optional[int] = None
    #: Flowlet gap threshold (seconds): an inter-packet gap larger than
    #: this ends the flowlet and rehashes the flow onto a (possibly)
    #: different equal-cost path.
    flowlet_gap: float = 100e-6

    def __post_init__(self) -> None:
        # Lazy edge to the routing registry, mirroring the transport
        # check below: the registry owns the set of policy names.
        from repro.net.routing import available

        _require(self.topology in TOPOLOGIES,
                 f"unknown topology {self.topology!r}; "
                 f"expected one of {TOPOLOGIES}")
        names = available()
        _require(self.routing in names,
                 f"unknown routing policy {self.routing!r}; "
                 f"expected one of {names}")
        _require(self.fattree_k >= 2 and self.fattree_k % 2 == 0,
                 "fattree_k must be an even integer >= 2")
        _require(self.trunk_links >= 1, "need at least one trunk link")
        _require(self.uplink_scale > 0, "uplink_scale must be positive")
        _require(self.buffer_bytes is None or self.buffer_bytes > 0,
                 "fabric buffer must be positive when set")
        _require(self.buffer_bytes is None or self.topology != "star",
                 "fabric.buffer_bytes applies to multi-tier topologies; "
                 "the star's egress buffer is link.switch_buffer_bytes")
        _require(self.flowlet_gap > 0, "flowlet_gap must be positive")


@dataclass(frozen=True)
class SwiftConfig:
    """Swift congestion control (Kumar et al., SIGCOMM'20), as used by
    the paper: delay-AIMD with separate fabric and host (endpoint)
    target delays."""

    host_target: float = cal.SWIFT_HOST_TARGET
    fabric_target: float = cal.SWIFT_FABRIC_TARGET
    #: Packets of additive increase per RTT.  Small, as in production
    #: Swift at high fan-in (hundreds of flows share the receiver; the
    #: aggregate increase pressure is n_flows × this value).
    additive_increase: float = 0.15
    #: Flow scaling (Swift §3.2): the fabric target grows by
    #: ``alpha / sqrt(cwnd)`` (capped) so small-window flows tolerate
    #: more queueing — this is what keeps large incasts stable.
    flow_scaling_alpha: float = 80e-6
    flow_scaling_max: float = 600e-6
    #: Fraction of the target delay below which flows still increase;
    #: between this and 1.0 they hold (anti-oscillation hysteresis).
    hold_threshold: float = 0.85
    beta: float = 0.8                        # MD responsiveness
    max_mdf: float = 0.5                     # max multiplicative decrease
    min_cwnd: float = 0.01                   # packets (paced below 1)
    max_cwnd: float = 256.0                  # packets
    rto: float = 1e-3
    loss_retx_threshold: int = 3             # reorder threshold

    def __post_init__(self) -> None:
        _require(self.host_target > 0, "host target must be positive")
        _require(self.fabric_target > 0, "fabric target must be positive")
        _require(self.flow_scaling_alpha >= 0, "negative flow scaling")
        _require(self.flow_scaling_max >= 0, "negative flow scaling cap")
        _require(0 < self.hold_threshold <= 1.0,
                 "hold_threshold must be in (0, 1]")
        _require(0 < self.max_mdf < 1, "max_mdf must be in (0,1)")
        _require(0 < self.min_cwnd <= self.max_cwnd, "bad cwnd bounds")
        _require(self.rto > 0, "RTO must be positive")
        _require(self.loss_retx_threshold >= 1, "bad retx threshold")


@dataclass(frozen=True)
class WorkloadConfig:
    """The paper's minimal workload (§3): N senders, one connection per
    sender per receiver thread, continuous 16 KB remote reads."""

    senders: int = cal.DEFAULT_SENDERS
    #: Receiver hosts in the topology; each gets its own ``senders``-way
    #: incast, so the fabric carries ``senders × receivers`` flows per
    #: receiver thread.
    receivers: int = 1
    read_size_bytes: int = cal.REMOTE_READ_BYTES
    mtu_payload: int = cal.MTU_PAYLOAD_BYTES
    header_bytes: int = cal.HEADER_BYTES
    #: Open-loop offered load as a fraction of the access-link rate
    #: (reads arrive Poisson at this aggregate rate).  ``None`` means
    #: the paper's saturated closed loop: senders always backlogged.
    offered_load: float | None = None

    def __post_init__(self) -> None:
        _require(self.senders >= 1, "need at least one sender")
        _require(self.receivers >= 1, "need at least one receiver host")
        _require(self.read_size_bytes >= self.mtu_payload,
                 "read size smaller than one MTU")
        _require(self.mtu_payload > 0 and self.header_bytes >= 0,
                 "bad packet geometry")
        _require(self.offered_load is None or 0 < self.offered_load <= 2,
                 "offered_load must be in (0, 2] or None")

    @property
    def wire_bytes_per_packet(self) -> int:
        return self.mtu_payload + self.header_bytes

    @property
    def packets_per_read(self) -> int:
        return -(-self.read_size_bytes // self.mtu_payload)


@dataclass(frozen=True)
class SimConfig:
    """Run control."""

    warmup: float = 8e-3
    duration: float = 25e-3
    seed: int = 1
    trace: bool = False
    #: Flight-recorder capacity when tracing is on (oldest records are
    #: evicted and counted once the ring is full).
    trace_max_records: int = 1_000_000
    #: Sim-time seconds between live-telemetry polls of the metrics
    #: registry (see :mod:`repro.obs.telemetry`); ``None`` disables the
    #: sampler entirely — the default, costing the hot path nothing.
    sample_interval: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.warmup >= 0, "negative warmup")
        _require(self.duration > 0, "duration must be positive")
        _require(self.seed >= 0, "seed must be non-negative")
        _require(self.trace_max_records > 0,
                 "trace_max_records must be positive")
        _require(self.sample_interval is None or self.sample_interval > 0,
                 "sample_interval must be positive when set")

    @property
    def end_time(self) -> float:
        return self.warmup + self.duration


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete experiment: host + network + transport + run control."""

    host: HostConfig = field(default_factory=_shared(HostConfig))
    link: LinkConfig = field(default_factory=_shared(LinkConfig))
    fabric: FabricConfig = field(default_factory=_shared(FabricConfig))
    workload: WorkloadConfig = field(default_factory=_shared(WorkloadConfig))
    swift: SwiftConfig = field(default_factory=_shared(SwiftConfig))
    #: Any name in the transport registry ("swift", "dctcp", "cubic",
    #: "hostcc", "timely", plus anything registered from outside).
    transport: str = "swift"
    #: Simulation engine: ``"packet"`` (the discrete-event kernel) or
    #: ``"fluid"`` (the rate-based solver).  Part of the result-cache
    #: digest, so the two fidelities never share cached results.
    fidelity: str = "packet"
    sim: SimConfig = field(default_factory=_shared(SimConfig))

    def __post_init__(self) -> None:
        # Lazy edge up to the transport layer: the registry is the one
        # source of protocol names, and this kernel module must not
        # import it at module level (layering).  Every config
        # construction passes here, so the name list is built only for
        # the error.
        from repro.transport.registry import available, is_registered

        if not is_registered(self.transport):
            raise ValueError(f"unknown transport {self.transport!r}; "
                             f"expected one of {available()}")
        _require(self.fidelity in FIDELITIES,
                 f"unknown fidelity {self.fidelity!r}; "
                 f"expected one of {FIDELITIES}")
        # A DMA takes credits for its whole wire size at once, so one
        # larger than the credit window could never start.
        wire = self.workload.wire_bytes_per_packet
        _require(self.host.pcie.max_inflight_bytes >= wire,
                 f"host.pcie.max_inflight_bytes "
                 f"({self.host.pcie.max_inflight_bytes}) is smaller than "
                 f"one packet's DMA ({wire} wire bytes)")

    @property
    def switch_buffer_bytes(self) -> int:
        """Per-port buffer of every fabric switch, at both fidelities:
        ``fabric.buffer_bytes``, else ``link.switch_buffer_bytes``."""
        return self.fabric.buffer_bytes or self.link.switch_buffer_bytes

    def describe(self) -> Dict[str, Any]:
        """Flat summary of the knobs that vary across paper figures."""
        return {
            "transport": self.transport,
            "topology": self.fabric.topology,
            "routing": self.fabric.routing,
            "cores": self.host.cpu.cores,
            "iommu": self.host.iommu.enabled,
            "hugepages": self.host.hugepages,
            "rx_region_mb": self.host.rx_region_bytes / 2**20,
            "antagonist_cores": self.host.antagonist_cores,
            "senders": self.workload.senders,
            "receivers": self.workload.receivers,
            "offered_load": self.workload.offered_load,
            "seed": self.sim.seed,
        }


def baseline_config(
    warmup: float = 6e-3,
    duration: float = 12e-3,
    seed: int = 1,
    fidelity: str = "packet",
    **host_overrides,
) -> ExperimentConfig:
    """The paper's §3 baseline: 40 senders, 12 receiver cores, IOMMU on,
    hugepages on, 12 MB regions, Swift."""
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=12), **host_overrides),
        sim=SimConfig(warmup=warmup, duration=duration, seed=seed),
        fidelity=fidelity,
    )
