"""Per-layer spans for a traced benchmark run.

The tracer lives entirely in the benchmark: it changes nothing under
``src/``.  Spans come from two sources:

- class-level wrappers around public methods (``Nic.receive``,
  ``Iommu.translate``, ``SwitchPort.enqueue``, ...), installed before
  any graph is built, so the bound methods a component captures at
  build time are already the wrapped ones;
- the engine's public ``Simulator.set_dispatch_hook``, which wraps every
  dispatched callback in a span charged to the ``repro`` module that
  owns it.

A layer is named after the ``repro`` module that owns the code
(``host.nic``, ``net.switch``, ``sim.engine``); the few renames below
split ``transport`` into the connection and its congestion control.  A
span's *self* time is its duration minus the time its child spans cover,
so the self times of all layers add up to the traced wall time.  Spans
are aggregated in memory (one accumulator per wrapped target) and read
out once at the end.

``Packet.acquire/release`` and ``Iotlb.access`` stay unwrapped: they are
too fine-grained to time, and their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, class, methods) wrapped at class level.
WRAPPED: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", "Simulator", ("run",)),
    ("net.link", "repro.net.link", "Link", ("send",)),
    ("net.switch", "repro.net.switch", "SwitchPort", ("enqueue",)),
    ("net.routing", "repro.net.routing", "StaticRouting", ("select",)),
    ("net.routing", "repro.net.routing", "EcmpRouting", ("select",)),
    ("net.routing", "repro.net.routing", "FlowletRouting", ("select",)),
    ("net.fabric", "repro.net.fabric", "Fabric",
     ("send_packet", "route_ack")),
    ("net.fabric", "repro.net.fabric", "MultiTierFabric",
     ("send_packet", "route_ack")),
    ("host.nic", "repro.host.nic", "Nic", ("receive",)),
    ("host.iommu", "repro.host.iommu", "Iommu", ("translate",)),
    ("host.pcie", "repro.host.pcie", "PcieLink", ("occupy",)),
    ("host.memory", "repro.host.memory", "MemoryController",
     ("dma_write_latency", "walk_access_latency")),
    ("host.cpu", "repro.host.cpu", "ReceiverThread", ("enqueue",)),
    ("transport.conn", "repro.transport.base", "Connection", ("on_ack",)),
    ("transport.cc", "repro.transport.swift", "SwiftCC", ("on_ack",)),
    ("transport.cc", "repro.transport.dctcp", "DctcpCC", ("on_ack",)),
    ("transport.cc", "repro.transport.cubic", "CubicCC", ("on_ack",)),
    ("transport.cc", "repro.transport.hostcc", "HostSignalCC",
     ("on_ack",)),
    ("transport.cc", "repro.transport.timely", "TimelyCC", ("on_ack",)),
    ("sim.fluid", "repro.sim.fluid", "FluidSolver",
     ("__init__", "run_until")),
    ("sim.fluid_batch", "repro.sim.fluid_batch", "BatchFluidSolver",
     ("__init__", "run_until")),
    ("core.fluid", "repro.core.fluid", "FluidExperiment", ("collect",)),
    ("core.build", "repro.core.experiment", "ExperimentHandle",
     ("__init__",)),
    ("core.experiment", "repro.core.experiment", "ExperimentHandle",
     ("collect",)),
    ("workload.fleet", "repro.workload.fleet", "FleetSampler",
     ("draw_config", "run_aggregate")),
    ("workload.fleet_agg", "repro.workload.fleet_agg", "FleetAggregate",
     ("add", "merge")),
    ("obs.metrics", "repro.obs.metrics", "MetricsRegistry",
     ("counter", "gauge", "histogram", "flush", "reset_window",
      "snapshot")),
)

#: (layer, module, function): module-level functions, patched in the
#: module that calls them (``run_configs`` looks ``run_many`` up in
#: ``repro.core.scenario``).
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("core.parallel", "repro.core.scenario", "run_many"),
)

#: Counters read around a wrapped call: the difference of ``measure``
#: before and after the call is added to the target's count.
DELTAS: Dict[str, Callable] = {
    "Nic.receive": lambda nic: nic.dropped_packets,
    "SwitchPort.enqueue": lambda port: port.dropped_packets,
    "FluidSolver.run_until": lambda solver: solver.steps,
    "BatchFluidSolver.run_until": lambda solver: int(solver.steps.sum()),
}

#: Module -> layer where the module name alone is not the layer.
_RENAMES = {
    "transport.base": "transport.conn",
    "transport.swift": "transport.cc",
    "transport.dctcp": "transport.cc",
    "transport.cubic": "transport.cc",
    "transport.hostcc": "transport.cc",
    "transport.timely": "transport.cc",
}


def layer_of(module: Optional[str]) -> str:
    """The layer charged for code defined in ``module``."""
    if not module or not module.startswith("repro."):
        return "other"
    name = module[len("repro."):]
    return _RENAMES.get(name, name)


class _Target:
    """Accumulator of one wrapped method or one dispatch owner."""

    __slots__ = ("layer", "self_s", "calls", "delta")

    def __init__(self, layer: str):
        self.layer = layer
        self.self_s = 0.0
        self.calls = 0
        self.delta = 0


class LayerTracer:
    """Installs the spans, and aggregates self time per layer."""

    def __init__(self) -> None:
        self.targets: Dict[str, _Target] = {}
        self.missing: List[str] = []
        self._owners: Dict[object, _Target] = {}
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _target(self, key: str, layer: str) -> _Target:
        target = self.targets.get(key)
        if target is None:
            target = self.targets[key] = _Target(layer)
        return target

    def _wrap(self, fn: Callable, target: _Target,
              measure: Optional[Callable] = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            before = measure(args[0]) if measure else 0
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                target.self_s += elapsed - frame[0]
                target.calls += 1
                if measure:
                    target.delta += measure(args[0]) - before
                if stack:
                    stack[-1][0] += elapsed

        return functools.wraps(fn)(wrapper)

    def _dispatch(self, _when: float, fn: Callable, args: tuple) -> None:
        """Engine dispatch hook: one span per callback, charged to the
        module of the object (or function) that owns it."""
        owner = getattr(fn, "__self__", None)
        key = (type(owner) if owner is not None
               else getattr(fn, "__module__", None))
        target = self._owners.get(key)
        if target is None:
            module = (key.__module__ if isinstance(key, type) else key)
            name = key.__name__ if isinstance(key, type) else key
            target = self._owners[key] = self._target(
                f"dispatch:{name}", layer_of(module))
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            target.self_s += elapsed - frame[0]
            target.calls += 1
            if stack:
                stack[-1][0] += elapsed

    def root(self, fn: Callable) -> Callable:
        """``fn`` in a span of its own: the benchmark code around the
        calls into ``repro``."""
        return self._wrap(fn, self._target("perfbench", "perfbench"))

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every target.  Call before any graph is built.  A target
        missing from the code under test is reported in ``missing`` and
        skipped, so a renamed method costs one per-layer number, not the
        whole run."""
        if self._patches:
            return
        self.missing = []
        for layer, module, cls_name, methods in WRAPPED:
            cls = getattr(importlib.import_module(module), cls_name, None)
            for method in methods:
                key = f"{cls_name}.{method}"
                if cls is None or method not in vars(cls):
                    self.missing.append(key)
                    continue
                wrapped = self._wrap(vars(cls)[method],
                                     self._target(key, layer),
                                     DELTAS.get(key))
                if key == "ExperimentHandle.__init__":
                    wrapped = self._with_dispatch_hook(wrapped)
                self._patch(cls, method, wrapped)
        for layer, module, name in FUNCTIONS:
            mod = importlib.import_module(module)
            if not callable(getattr(mod, name, None)):
                self.missing.append(f"{module}.{name}")
                continue
            self._patch(mod, name, self._wrap(
                getattr(mod, name), self._target(name, layer)))
        if self.missing:
            print(f"perfbench: not traced (missing): "
                  f"{', '.join(self.missing)}", file=sys.stderr)

    def _with_dispatch_hook(self, build: Callable) -> Callable:
        def init(handle, *args, **kwargs):
            build(handle, *args, **kwargs)
            handle.sim.set_dispatch_hook(self._dispatch)
        return init

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- read-out -----------------------------------------------------------

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for target in self.targets.values():
            totals[target.layer] = totals.get(target.layer, 0.0) \
                + target.self_s
        return totals

    def self_s(self, key: str) -> float:
        target = self.targets.get(key)
        return target.self_s if target is not None else 0.0

    def calls(self, key: str) -> int:
        target = self.targets.get(key)
        return target.calls if target is not None else 0

    def delta(self, key: str) -> int:
        target = self.targets.get(key)
        return target.delta if target is not None else 0

    def events(self) -> int:
        """Callbacks dispatched by traced simulators."""
        return sum(t.calls for k, t in self.targets.items()
                   if k.startswith("dispatch:"))
