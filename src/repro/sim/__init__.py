"""Discrete-event simulation engine.

A small, dependency-free engine tuned for the hot paths of the
host-interconnect model: the loop dispatches plain callbacks from a
binary heap, and every datapath stage (NIC, PCIe, IOMMU, memory, CPU,
fabric hop) is a callback that schedules the next one.

Public surface:

- :class:`~repro.sim.engine.Simulator` — event loop (``at``, ``call``,
  ``schedule_timer``, ``run``, ``peek``).
- :class:`~repro.sim.queues.ByteQueue` — finite byte-capacity tail-drop
  queue with enqueue/dequeue/drop counters (models the NIC input SRAM).
- :class:`~repro.sim.wheel.TimerHandle` /
  :class:`~repro.sim.wheel.TimerWheel` — O(1)-cancellable timers behind
  :meth:`~repro.sim.engine.Simulator.schedule_timer`.
- :class:`~repro.sim.randoms.RngRegistry` — named, reproducible RNG
  streams derived from one root seed.
- :class:`~repro.sim.component.Component` /
  :class:`~repro.sim.component.SimComponent` — the bind/reset/snapshot
  protocol every graph node implements, with composite recursion over a
  declared ``children()`` list.
"""

from repro.sim.component import Component, SimComponent, join_name
from repro.sim.engine import Simulator
from repro.sim.queues import ByteQueue
from repro.sim.randoms import RngRegistry
from repro.sim.tracing import Tracer
from repro.sim.wheel import TimerHandle, TimerWheel

__all__ = [
    "ByteQueue",
    "Component",
    "RngRegistry",
    "SimComponent",
    "Simulator",
    "TimerHandle",
    "TimerWheel",
    "Tracer",
    "join_name",
]
