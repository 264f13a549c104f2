"""The event loop: plain callbacks on a heap, plus cancellable timers.

Time is a ``float`` in **seconds**. Events scheduled at equal times fire
in insertion order (a monotonically increasing sequence number breaks
ties), which keeps runs fully deterministic for a given seed.

Hot-path layout (see DESIGN.md "Kernel performance"):

- Heap entries are mutable lists ``[time, seq, fn, args]`` so a timer
  can be cancelled in place (``entry[2] = entry[3] = None``) without
  touching the heap structure.
- The dispatch loop is specialized per ``(hook, until)`` case, hoists
  ``heappop`` into a local, unpacks entries once, and defers the
  ``events_dispatched`` store to a local counter written back when the
  loop exits.
- Entries whose ``fn`` is ``None`` are engine housekeeping: cancelled
  timers (``args is None``) are skipped, timer-wheel service visits
  (``args`` is the bucket key) cascade one wheel bucket into the heap.
  Neither counts toward ``events_dispatched`` — the counter only ever
  reflects user callbacks actually invoked, so cancelled timers never
  surface as no-op dispatches.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.wheel import TimerHandle, TimerWheel

__all__ = ["Simulator", "SimulationError", "TimerHandle"]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.call(1e-6, my_callback, arg)        # callback API (hot path)
        handle = sim.schedule_timer(1e-3, rto_fired)   # cancellable
        sim.run(until=0.01)
    """

    __slots__ = ("now", "_heap", "_seq", "_n_dispatched", "_dispatch_hook",
                 "_wheel")

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute — the
        #: datapath reads it hundreds of thousands of times per run and
        #: a property call per read is measurable; treat it as
        #: read-only outside the engine.
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._n_dispatched = 0
        self._dispatch_hook: Optional[Callable] = None
        #: Created lazily on the first schedule_timer() call; plain
        #: call()/at() traffic never pays for it.
        self._wheel: Optional[TimerWheel] = None

    @property
    def events_dispatched(self) -> int:
        """Total number of callbacks dispatched so far.

        Counts user callbacks only: cancelled timers and timer-wheel
        service visits are skipped without incrementing this counter.
        """
        return self._n_dispatched

    def at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self.now}"
            )
        seq = self._seq = self._seq + 1
        heappush(self._heap, [time, seq, fn, args])

    def call(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq = self._seq + 1
        heappush(self._heap, [self.now + delay, seq, fn, args])

    def schedule_timer(self, delay: float, fn: Callable,
                       *args: Any) -> TimerHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds, cancellably.

        Same dispatch semantics as :meth:`call` (identical time and
        tie-break ordering), but the entry is filed through the
        hierarchical timer wheel and the returned
        :class:`~repro.sim.wheel.TimerHandle` cancels it in O(1).
        Cancelled timers are never dispatched — not even as no-ops —
        and do not count toward :attr:`events_dispatched`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args]
        wheel = self._wheel
        if wheel is None:
            wheel = self._wheel = TimerWheel(self._emit_entry,
                                             self._arm_service)
        wheel.schedule(entry, self.now)
        return TimerHandle(entry)

    def _emit_entry(self, entry: list) -> None:
        """Timer-wheel callback: a timer entry migrates into the heap
        with its original (time, seq) key, so order is unchanged."""
        heappush(self._heap, entry)

    def _arm_service(self, time: float, key: Any) -> None:
        """Timer-wheel callback: request a bucket-service visit.

        seq ``-1`` sorts the visit ahead of every user event at the
        same timestamp, so a bucket is always drained before any
        same-time user event can dispatch.
        """
        heappush(self._heap, [time, -1, None, key])

    def set_dispatch_hook(
        self, hook: Optional[Callable[[float, Callable, tuple], None]],
    ) -> None:
        """Route every dispatch through ``hook(time, fn, args)``.

        The hook is responsible for calling ``fn(*args)`` itself (so a
        profiler can time it).  ``None`` restores direct dispatch.  The
        loop in :meth:`run` reads the hook once per ``run`` call, so a
        change takes effect at the next ``run``; with no hook the loop
        pays nothing for the feature.
        """
        self._dispatch_hook = hook

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the heap drains or ``until`` is reached.

        Returns the simulation time at which the run stopped. When
        ``until`` is given, time always advances to exactly ``until``
        (even if the heap drained earlier), so repeated ``run`` calls
        compose predictably.
        """
        heap = self._heap
        hook = self._dispatch_hook
        pop = heappop
        n = 0
        try:
            if hook is not None:
                self._run_hooked(hook, until)
            elif until is None:
                while heap:
                    t, _seq, fn, args = pop(heap)
                    if fn is None:
                        if args is not None:
                            self._wheel.service(args, t)
                        continue
                    self.now = t
                    n += 1
                    fn(*args)
            else:
                while heap:
                    entry = pop(heap)
                    t, _seq, fn, args = entry
                    if t > until:
                        heappush(heap, entry)
                        break
                    if fn is None:
                        if args is not None:
                            self._wheel.service(args, t)
                        continue
                    self.now = t
                    n += 1
                    fn(*args)
        finally:
            self._n_dispatched += n
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def _run_hooked(self, hook: Callable, until: Optional[float]) -> None:
        """Slow-path loop used while a dispatch hook (profiler) is set;
        it accounts its own dispatches, even when a callback raises."""
        heap = self._heap
        n = 0
        try:
            while heap:
                entry = heappop(heap)
                t, _seq, fn, args = entry
                if until is not None and t > until:
                    heappush(heap, entry)
                    break
                if fn is None:
                    if args is not None:
                        self._wheel.service(args, t)
                    continue
                self.now = t
                n += 1
                hook(t, fn, args)
        finally:
            self._n_dispatched += n

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if none is pending.

        Skims engine housekeeping off the top of the heap: cancelled
        timers are discarded, and wheel buckets whose service time has
        reached the top are expanded (early expansion is safe — entries
        keep their original keys) until a real event surfaces.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None:
                heappop(heap)
                if entry[3] is not None:
                    self._wheel.service(entry[3], entry[0])
                continue
            return entry[0]
        return None
