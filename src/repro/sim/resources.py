"""Counting resources for the callback-driven datapath."""

from __future__ import annotations

from repro.sim.engine import SimulationError, Simulator

__all__ = ["CreditPool"]


class CreditPool:
    """A non-blocking counting resource.

    Models PCIe flow-control credits: a DMA engine takes credits with
    :meth:`try_acquire` before issuing a write transaction, and the
    root complex releases them on completion.  A caller that finds too
    few credits retries on its own next release, so nothing waits
    inside the pool.
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._available = capacity

    @property
    def available(self) -> int:
        return self._available

    @property
    def in_use(self) -> int:
        return self.capacity - self._available

    def try_acquire(self, n: int = 1) -> bool:
        """Take ``n`` credits if immediately available."""
        if n > self.capacity:
            raise SimulationError(
                f"requested {n} credits > capacity {self.capacity}"
            )
        available = self._available
        if available < n:
            return False
        self._available = available - n
        return True

    def release(self, n: int = 1) -> None:
        available = self._available = self._available + n
        if available > self.capacity:
            raise SimulationError("released more credits than acquired")
