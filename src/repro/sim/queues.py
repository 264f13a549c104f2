"""Finite byte-capacity queues with drop accounting.

The NIC input buffer is the central queue of the paper: a small SRAM
(≈1 MB) where all host-congestion drops happen.  :class:`ByteQueue`
therefore counts, besides holding the items themselves, what went in,
out and over the edge (items and bytes), and the peak occupancy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.sim.engine import Simulator

__all__ = ["ByteQueue"]


class ByteQueue:
    """Tail-drop FIFO bounded by total bytes.

    Items are opaque; each is enqueued with an explicit byte size so the
    queue works for packets, descriptors, or DMA requests alike.
    """

    def __init__(self, sim: Simulator, capacity_bytes: int, name: str = "q"):
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.sim = sim
        self.name = name
        self.capacity_bytes = capacity_bytes
        #: The queued ``(item, size_bytes, enqueue_time)`` entries, head
        #: first, and their total size.  Both are plain attributes so a
        #: hot caller reads them without a call; change them only
        #: through :meth:`offer` and :meth:`pop`, which keep the
        #: counters below exact.
        self.items: Deque[Tuple[Any, int, float]] = deque()
        self.bytes_used = 0
        # Counters: offered = enqueued + dropped, and
        # enqueued = dequeued + len(self).
        self.enqueued_count = 0
        self.enqueued_bytes = 0
        self.dropped_count = 0
        self.dropped_bytes = 0
        self.dequeued_count = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def bytes_free(self) -> int:
        return self.capacity_bytes - self.bytes_used

    def offer(self, item: Any, size_bytes: int) -> bool:
        """Enqueue if it fits; otherwise drop (tail drop) and return False."""
        if size_bytes < 0:
            raise ValueError(f"negative size {size_bytes}")
        used = self.bytes_used
        if used + size_bytes > self.capacity_bytes:
            self.dropped_count += 1
            self.dropped_bytes += size_bytes
            return False
        self.items.append((item, size_bytes, self.sim.now))
        used = self.bytes_used = used + size_bytes
        self.enqueued_count += 1
        self.enqueued_bytes += size_bytes
        if used > self.peak_bytes:
            self.peak_bytes = used
        return True

    def pop(self) -> Optional[Tuple[Any, int, float]]:
        """Dequeue the head as ``(item, size_bytes, enqueue_time)``.

        Returns None when empty.  The enqueue timestamp lets callers
        compute per-item queueing delay (the paper's "host delay"
        component at the NIC).
        """
        if not self.items:
            return None
        entry = self.items.popleft()
        self.bytes_used -= entry[1]
        self.dequeued_count += 1
        return entry

    def drop_rate(self) -> float:
        """Fraction of offered items that were dropped."""
        offered = self.enqueued_count + self.dropped_count
        if offered == 0:
            return 0.0
        return self.dropped_count / offered
