"""The PCIe link between NIC and root complex.

Two behaviours matter for the paper:

- **Serialization**: PCIe 3.0 x16 goodput is only nominally faster than
  the 100 Gbps line rate (~110 Gbps after TLP overheads), so the link is
  modelled as a serial resource with a busy-until pointer.
- **Credit-based flow control**: a fixed number of in-flight DMA bytes.
  When credits are exhausted, "requests are enqueued in the NIC input
  buffer ... until requisite number of credits become available"
  (paper §2, step 3).  The NIC counts the credits itself, as its DMA
  bytes in flight against ``PcieConfig.max_inflight_bytes``
  (:class:`repro.host.nic.Nic`); this class handles rates.
"""

from __future__ import annotations

from repro.core.config import PcieConfig
from repro.sim.component import Component
from repro.sim.engine import Simulator

__all__ = ["PcieLink", "pcie_goodput_bps", "pcie_raw_bps"]

#: Per-lane transfer rate (GT/s) and line-coding efficiency by PCIe
#: generation.
_GEN_RATES = {
    1: (2.5e9, 8 / 10),
    2: (5.0e9, 8 / 10),
    3: (8.0e9, 128 / 130),
    4: (16.0e9, 128 / 130),
    5: (32.0e9, 128 / 130),
}

#: Per-TLP overhead on gen3+: 2 B framing + 2 B sequence + 16 B header
#: (4 DW, 64-bit addressing) + 4 B LCRC.
_TLP_OVERHEAD_BYTES = 24

#: Bandwidth share consumed by DLLPs (flow-control credits, acks).
_DLLP_FRACTION = 0.05


def pcie_raw_bps(gen: int = 3, lanes: int = 16) -> float:
    """Raw PCIe bandwidth after line coding (bits/s)."""
    try:
        rate, coding = _GEN_RATES[gen]
    except KeyError:
        raise ValueError(f"unsupported PCIe generation {gen}") from None
    if lanes not in (1, 2, 4, 8, 16):
        raise ValueError(f"invalid lane count {lanes}")
    return rate * coding * lanes


def pcie_goodput_bps(gen: int = 3, lanes: int = 16,
                     max_payload: int = 256) -> float:
    """Achievable DMA goodput from first principles (bits/s).

    Matches the measurements of Neugebauer et al. (SIGCOMM'18), which
    the paper cites: gen3 x16 with 256 B TLPs lands near 110 Gbps.
    """
    if max_payload <= 0:
        raise ValueError(f"invalid max payload {max_payload}")
    raw = pcie_raw_bps(gen, lanes)
    tlp_efficiency = max_payload / (max_payload + _TLP_OVERHEAD_BYTES)
    return raw * tlp_efficiency * (1 - _DLLP_FRACTION)


class PcieLink(Component):
    """Serialization and utilization accounting for the PCIe link."""

    label = "pcie"

    def __init__(self, sim: Simulator, config: PcieConfig):
        self.sim = sim
        self.config = config
        self._busy_until = 0.0
        self.bytes_transferred = 0
        self._busy_integral = 0.0
        self._accounted_until = 0.0

    def bind_own_metrics(self, registry, component: str) -> None:
        """Register link counters in ``registry``."""
        registry.counter("bytes_transferred", component, unit="bytes",
                         fn=lambda: self.bytes_transferred)
        registry.gauge(
            "utilization", component, unit="fraction",
            fn=lambda: self.utilization(
                self.sim.now - self._accounted_until))

    def transfer_time(self, n_bytes: int) -> float:
        """Pure serialization time for ``n_bytes`` at goodput rate."""
        return n_bytes * 8 / self.config.goodput_bps

    def occupy(self, n_bytes: int) -> float:
        """Claim the link for a transfer of ``n_bytes``.

        Returns the total delay from *now* until the transfer is fully
        on the far side: any wait for the link to free up, plus
        serialization.  The caller schedules its completion with it.
        """
        if n_bytes <= 0:
            raise ValueError(f"transfer must be positive, got {n_bytes}")
        now = self.sim.now
        busy_until = self._busy_until
        start = busy_until if busy_until > now else now
        tx = self.transfer_time(n_bytes)
        self._busy_integral += tx
        self._busy_until = start + tx
        self.bytes_transferred += n_bytes
        return (start - now) + tx

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the link spent transferring."""
        if elapsed <= 0:
            return 0.0
        return min(self._busy_integral / elapsed, 1.0)

    def reset_accounting(self) -> None:
        self.bytes_transferred = 0
        self._busy_integral = 0.0
        self._accounted_until = self.sim.now

    def reset_own_stats(self) -> None:
        self.reset_accounting()
