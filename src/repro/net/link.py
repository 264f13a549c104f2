"""A point-to-point link: serialization plus propagation delay.

Links never drop: the fabric is deliberately not the bottleneck in the
paper's experiments (all drops happen in the NIC input buffer), so
sender access links only serialize and delay.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.component import Component
from repro.sim.engine import Simulator

__all__ = ["Link"]


class Link(Component):
    """Unidirectional link delivering items to a callback."""

    label = "link"

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        prop_delay: float,
        deliver: Callable[[Any], None],
        name: str = "link",
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if prop_delay < 0:
            raise ValueError(f"negative propagation delay {prop_delay}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.deliver = deliver
        self.name = name
        self.label = name
        self._busy_until = 0.0

    def send(self, item: Any, wire_bytes: int) -> float:
        """Transmit ``item``; returns the delivery time."""
        if wire_bytes <= 0:
            raise ValueError(f"wire_bytes must be positive, got {wire_bytes}")
        now = self.sim.now
        busy = self._busy_until
        start = now if now > busy else busy
        tx = wire_bytes * 8 / self.rate_bps
        self._busy_until = start + tx
        arrival = start + tx + self.prop_delay
        self.sim.at(arrival, self.deliver, item)
        return arrival
