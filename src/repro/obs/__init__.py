"""Unified observability: metrics, trace export, and profiling.

The paper's argument is about *observability the fleet lacked* — host
drops were invisible because nobody watched NIC buffer occupancy, IOTLB
miss rates, and memory-bus queueing at sub-RTT granularity.  This
package is the simulator's answer: every component registers its
counters in a :class:`MetricsRegistry`, any run's trace opens in
Perfetto (``ui.perfetto.dev``) via :func:`write_trace`, and the event
loop itself is measurable with :class:`SimProfiler`.

Public surface:

- :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  histograms (each a :class:`~repro.obs.sketch.QuantileSketch`) labeled
  by component instance, with a ``snapshot()``/``to_json()`` API.
- :func:`~repro.obs.perfetto.to_perfetto` /
  :func:`~repro.obs.perfetto.write_trace` — Chrome/Perfetto
  trace-event JSON export for :class:`~repro.sim.tracing.Tracer`.
- :class:`~repro.obs.profiler.SimProfiler` — samples the event loop
  (events/sec per component, wall-time per callback class, heap depth,
  sim-time/wall-time ratio).
- the live telemetry plane — :class:`~repro.obs.telemetry.MetricsSampler`
  polls the registry on a sim-time cadence into a bounded ring of
  :class:`~repro.obs.telemetry.TelemetrySample` records (the snapshot's
  ``telemetry`` block and the trace's counter tracks);
  :class:`~repro.obs.sketch.QuantileSketch` /
  :class:`~repro.obs.telemetry.RunAggregate` are the mergeable,
  constant-memory summaries the fleet-scale aggregation folds; and
  :class:`~repro.obs.live.LiveDashboard` renders the event stream as a
  redraw-in-place terminal frame.
"""

from repro.obs.live import LiveDashboard
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.perfetto import (
    to_counter_events,
    to_perfetto,
    to_trace_events,
    write_trace,
)
from repro.obs.profiler import SimProfiler
from repro.obs.sketch import CategoryTally, QuantileSketch
from repro.obs.telemetry import (
    MetricsSampler,
    RunAggregate,
    TelemetrySample,
    classify_root_cause,
)

__all__ = [
    "CategoryTally",
    "Counter",
    "Gauge",
    "LiveDashboard",
    "MetricsRegistry",
    "MetricsSampler",
    "QuantileSketch",
    "RunAggregate",
    "SimProfiler",
    "TelemetrySample",
    "classify_root_cause",
    "to_counter_events",
    "to_perfetto",
    "to_trace_events",
    "write_trace",
]
