"""Swift congestion control (Kumar et al., SIGCOMM'20).

The protocol the paper's production cluster runs.  Delay-based AIMD
with two separately-targeted delay components:

- *fabric delay* (RTT minus time spent at the receiver host) against a
  fabric target;
- *host (endpoint) delay* — NIC queueing + DMA + CPU processing at the
  receiver, echoed in each ACK — against the 100 µs host target the
  paper discusses at length.

Additive increase while both delays are under target; multiplicative
decrease proportional to the excess, at most once per RTT.  Windows
below one packet are enforced by pacing in the connection layer.
"""

from __future__ import annotations

from repro.core.config import SwiftConfig
from repro.net.packet import Ack
from repro.transport.registry import register

__all__ = ["SwiftCC", "make_cc"]


@register("swift")
class SwiftCC:
    """One flow's Swift state."""

    def __init__(self, config: SwiftConfig, initial_cwnd: float = 2.0):
        self.config = config
        self._cwnd = initial_cwnd
        self._clamp()
        self._last_decrease = -1e9
        self._srtt = 25e-6
        # Introspection counters.
        self.increases = 0
        self.decreases = 0
        self.host_triggered_decreases = 0

    def cwnd(self) -> float:
        return self._cwnd

    # The comparisons below are the builtins spelled out:
    # ``max(a, b)`` is ``b if b > a else a`` and ``min(a, b)`` is
    # ``b if b < a else a`` for every float, ties, -0.0 and NaN
    # included, without the call.

    def _clamp(self) -> None:
        cfg = self.config
        cwnd = self._cwnd
        if cfg.min_cwnd > cwnd:
            cwnd = cfg.min_cwnd
        if cfg.max_cwnd < cwnd:
            cwnd = cfg.max_cwnd
        self._cwnd = cwnd

    def _can_decrease(self, now: float) -> bool:
        return now - self._last_decrease >= self._srtt

    def fabric_target(self) -> float:
        """Flow-scaled fabric delay target (Swift §3.2).

        Small-cwnd flows get a larger target: with hundreds of incast
        flows each holding a fraction of a packet, a fixed target makes
        every flow cut in the same RTT and the fleet oscillates;
        the ``alpha/sqrt(cwnd)`` term staggers the cuts.
        """
        cfg = self.config
        cwnd = self._cwnd
        if cfg.min_cwnd > cwnd:
            cwnd = cfg.min_cwnd
        scaling = cfg.flow_scaling_alpha / cwnd ** 0.5
        if cfg.flow_scaling_max < scaling:
            scaling = cfg.flow_scaling_max
        return cfg.fabric_target + scaling

    def on_ack(self, rtt: float, ack: Ack, now: float) -> None:
        cfg = self.config
        self._srtt += 0.125 * (rtt - self._srtt)
        host_delay = ack.host_delay
        fabric_delay = rtt - host_delay
        if 0.0 > fabric_delay:
            fabric_delay = 0.0
        # Normalized excess over the binding target.
        host_ratio = host_delay / cfg.host_target
        fabric_ratio = fabric_delay / self.fabric_target()
        ratio = fabric_ratio if fabric_ratio > host_ratio else host_ratio
        if host_ratio <= 1.0 and fabric_ratio <= cfg.hold_threshold:
            # Additive increase, spread across the acks of one window.
            # Note the asymmetry: the fabric loop has a hold band just
            # below target (damps synchronized incast oscillation), but
            # the host loop increases right up to its target — which is
            # precisely why Swift is blind to host congestion whose
            # queueing delay is capped below the host target by the
            # small NIC buffer (paper §3.1).
            cwnd = self._cwnd
            self._cwnd = cwnd + cfg.additive_increase / (
                1.0 if 1.0 > cwnd else cwnd)
            self.increases += 1
        elif ratio <= 1.0:
            pass  # fabric hold band: neither grow nor cut
        elif self._can_decrease(now):
            excess = (ratio - 1.0) / ratio
            factor = 1.0 - cfg.beta * excess
            floor = 1.0 - cfg.max_mdf
            if floor > factor:
                factor = floor
            self._cwnd *= factor
            self._last_decrease = now
            self.decreases += 1
            if host_ratio >= fabric_ratio:
                self.host_triggered_decreases += 1
        self._clamp()

    def on_loss(self, now: float) -> None:
        if self._can_decrease(now):
            self._cwnd *= 1.0 - self.config.max_mdf
            self._last_decrease = now
            self.decreases += 1
            self._clamp()

    def on_timeout(self, now: float) -> None:
        self._cwnd = self.config.min_cwnd
        self._last_decrease = now
        self.decreases += 1


def make_cc(name: str, swift_config: SwiftConfig, initial_cwnd: float = 2.0):
    """Back-compat alias for :func:`repro.transport.registry.create`.

    The factory now lives in the registry so protocols register
    themselves instead of being enumerated here.
    """
    from repro.transport.registry import create

    return create(name, swift_config, initial_cwnd)
