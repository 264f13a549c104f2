"""Calibrated constants and their provenance.

Every number here is either taken directly from the paper (Agarwal et
al., HotNets '22, §3), from a work it cites, or fitted so that the
analytical model in :mod:`repro.core.model` reproduces the paper's
operating points.  The DESIGN.md calibration table mirrors this module.

Unit conventions used throughout the package:

- time: seconds
- size: bytes
- rate: bits/second for network rates (``*_bps``),
  bytes/second for memory rates (``*_Bps``)
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Network (paper §3 testbed)
# --------------------------------------------------------------------------

#: Access link rate: "100Gbps NICs".
LINE_RATE_BPS = 100e9

#: MTU payload: "when using 4K MTUs".
MTU_PAYLOAD_BYTES = 4096

#: Per-packet protocol overhead, fitted so max application goodput is the
#: paper's "~92Gbps due to protocol header overheads":
#: 4096 / (4096 + 356) * 100 Gbps = 92.0 Gbps.
HEADER_BYTES = 356

#: Maximum application-level goodput on the 100 Gbps link.
MAX_APP_GOODPUT_BPS = LINE_RATE_BPS * MTU_PAYLOAD_BYTES / (
    MTU_PAYLOAD_BYTES + HEADER_BYTES
)

#: Base network round-trip (no queueing); paper §4 footnote 5 reasons
#: with "a 20µs RTT".
BASE_RTT_SECONDS = 20e-6

#: The paper's workload: "40 sender machines and one receiver machine".
DEFAULT_SENDERS = 40

#: "each receiver thread issues 16KB remote reads".
REMOTE_READ_BYTES = 16384

# --------------------------------------------------------------------------
# PCIe (paper §3.1; Neugebauer et al., SIGCOMM'18)
# --------------------------------------------------------------------------

#: "PCIe 3.0 x16 lanes per NIC ... maximum 128Gbps theoretical capacity".
PCIE_RAW_BPS = 128e9

#: "the achievable PCIe goodput is only ~110Gbps due to the PCIe
#: transaction and link layer header overheads".
PCIE_GOODPUT_BPS = 110e9

#: Credit-limited in-flight DMA bytes (five 4 KB-MTU wire packets).
#: Fitted: the Little's-law throughput bound C/T_base must sit just
#: above the line rate so that it binds only once IOTLB misses inflate
#: per-DMA latency: 22260 B / 1.47 µs ≈ 121 Gbps of wire rate.
PCIE_MAX_INFLIGHT_BYTES = 5 * (MTU_PAYLOAD_BYTES + HEADER_BYTES)

#: Fixed (memory-independent) part of per-DMA latency: PCIe transaction
#: issue + root-complex processing + completion handling.  Together with
#: one uncontended memory access this gives T_base ≈ 1.15 µs.
DMA_FIXED_LATENCY = 1.0e-6

# --------------------------------------------------------------------------
# IOMMU / IOTLB (paper §3.1)
# --------------------------------------------------------------------------

#: "128 size IOTLB per IOMMU".
IOTLB_ENTRIES = 128

#: IOTLB set-associativity (hardware IOTLBs are set-associative; the
#: exact organization is undocumented — 16 ways keeps conflict misses
#: modest while preserving the 8-thread capacity knee).
IOTLB_WAYS = 16

#: "an IOTLB hit typically takes a few nanoseconds".
IOTLB_HIT_LATENCY = 3e-9

#: Per-thread Rx data region: Fig. 5's baseline — "the baseline case of
#: 12MB memory region size".
RX_REGION_BYTES = 12 * 2**20

#: 4 KB control pages per receiver thread that the NIC touches each
#: packet (descriptor ring, completion ring, ACK staging).  Fitted so
#: the per-thread IOMMU footprint with hugepages is ~16 entries
#: (6 hugepages of data + 10 control pages), putting the IOTLB-capacity
#: crossover exactly at 8 threads: the paper observes a "sudden increase
#: of IOTLB misses per packet above 8 threads".
DESC_RING_PAGES = 3
COMPLETION_RING_PAGES = 2
TX_DESC_RING_PAGES = 2
TX_COMPLETION_RING_PAGES = 1
ACK_STAGING_PAGES = 2
#: Connection-state pages touched per packet: each receiver thread
#: serves one connection per sender (40 by default), whose descriptors
#: and state span several 4 KB pages accessed with little locality.
CONN_STATE_PAGES = 4

#: 4 KB and 2 MB page sizes: control pages and non-hugepage data
#: mappings, and hugepage data mappings.
PAGE_4K = 4096
PAGE_2M = 2 * 2**20


def data_page_bytes(hugepages: bool) -> int:
    """Page size of the Rx data mappings: 2 MB pages with hugepages on,
    4 KB otherwise (paper Fig. 4).  The one copy of the rule: the
    packet layout and the working-set models both read it."""
    return PAGE_2M if hugepages else PAGE_4K


#: Hot ring pages per thread in the active IOTLB working set: one page
#: each of the rx descriptor, rx completion, tx descriptor, and tx
#: completion rings.
HOT_RING_PAGES = 4
#: Non-payload page touches per packet: conn×2, rx ring×2, tx ring×3.
CONTROL_ACCESSES_PER_PACKET = 7

# --------------------------------------------------------------------------
# Memory subsystem (paper §3, §3.2)
# --------------------------------------------------------------------------

#: Memory-bus utilization below which queueing delay is negligible.
QUEUE_KNEE = 0.55
#: Convexity of the load-latency curve above the knee.
QUEUE_GAMMA = 3.0

#: "theoretical maximum memory bus bandwidth of 115.2GBps per NUMA node".
MEMORY_BW_THEORETICAL_BPS = 115.2e9  # bytes/s

#: "maximum achievable bandwidth by Stream per NUMA node ... ~90GB/s".
MEMORY_BW_ACHIEVABLE_BPS = 90e9  # bytes/s

#: Uncontended DRAM access latency seen by a DMA write.
MEMORY_IDLE_LATENCY = 150e-9

#: Uncontended latency of one page-table-walk read.  Walks are
#: dependent pointer-chasing reads, slower than pipelined DMA writes;
#: the paper: a miss adds "few hundreds of nanoseconds to up to a
#: microsecond".
WALK_BASE_LATENCY = 300e-9

#: Maximum additional queueing latency per memory access at saturation.
#: Fitted to Fig. 6: IOMMU-OFF throughput at 15 antagonist cores drops
#: ~15 %, which requires per-DMA latency ≈ 1.5 µs → ~0.5 µs of queueing.
MEMORY_MAX_QUEUE_DELAY = 0.5e-6

#: Page-walk accesses observe a fraction of the DMA write queueing
#: inflation (reads bypass the write-combining path).  Fitted to Fig. 6
#: (center): IOMMU-ON at 15 antagonist cores lands near 60 Gbps.
WALK_CONTENTION_FRACTION = 0.5

#: Stream antagonist per-core demand; 15 cores saturate ~90 GB/s
#: (paper §3.2, "65GB/s for reads and 25GB/s for writes" combined).
STREAM_PER_CORE_BPS = 6.5e9  # bytes/s

#: Receiver-side copy traffic at full rate: paper measured ~11.8 GB/s of
#: writes (the PCIe payload writes) and ~3.3 GB/s of reads (copies out
#: of the LLC that miss).  3.3/11.5 ≈ 0.29 of payload bytes.
COPY_READ_FRACTION = 0.29

#: Copy destination writes mostly hit in LLC (app buffers are reused);
#: the measured write bandwidth is ≈ the PCIe write rate alone.
COPY_WRITE_FRACTION = 0.05

# --------------------------------------------------------------------------
# NIC and CPU (paper §3, §3.1)
# --------------------------------------------------------------------------

#: "~1MB NIC buffer size in our testbed".
NIC_BUFFER_BYTES = 1 * 2**20

#: Per-core receive processing rate: Fig. 3's CPU-bottlenecked region is
#: linear and reaches 92 Gbps at 8 cores → 11.5 Gbps/core.
CORE_PROCESSING_GBPS = 11.5

#: Rx descriptor ring size per receive queue (typical driver default).
RX_RING_DESCRIPTORS = 1024

#: Descriptor + completion-entry bytes the NIC writes to memory per
#: packet.
NIC_CONTROL_WRITE_BYTES = 96

# --------------------------------------------------------------------------
# Swift congestion control (paper §3.1; Kumar et al., SIGCOMM'20)
# --------------------------------------------------------------------------

#: "Our CC protocol uses a target host delay value of 100µs".
SWIFT_HOST_TARGET = 100e-6

#: Fabric delay target (base RTT plus a queueing allowance).  Generous
#: relative to the 20 µs base RTT so the *host* is the binding
#: constraint, as in the paper's testbed (fabric congestion is not the
#: phenomenon under study; Swift's per-hop scaling gives incast flows
#: substantial fabric allowances).
SWIFT_FABRIC_TARGET = 80e-6

#: The NIC-to-CPU rate below which the full NIC buffer exceeds the host
#: target delay, so Swift starts reacting: 1 MB / 100 µs ≈ 83.9 Gbps of
#: wire rate.  The paper quotes the same computation with 90 µs of
#: headroom: "1MB/90µs = 88.8Gbps (~81Gbps application-level
#: throughput)".
SWIFT_BLINDSPOT_WIRE_BPS = NIC_BUFFER_BYTES * 8 / SWIFT_HOST_TARGET
