"""Vectorized fluid solver: N independent hosts stepped as one batch.

:class:`BatchFluidSolver` is the fleet-scale twin of
:class:`repro.sim.fluid.FluidSolver`: every piece of per-host state
(congestion window, queue levels, demand backlog, delayed signals,
accumulators) becomes a shape-``(N,)`` array, and one step advances all
N hosts with about 95 elementwise numpy operations instead of N trips
through the scalar step — the fleet driver's order-of-magnitude hosts/s
win.

The batch computes only what a fleet range reads: the state, the step
count and the four accumulators :meth:`BatchFluidSolver.fleet_metrics`
turns into a host's utilization, drop rate and throughput
(``_ACC_ATTRS``).  The other ``FluidRun`` accumulators (DMA and drain
counts, latency and bus integrals, the queue peak) sit in the step's
scalar-only tail with the step trace: no fleet reader needs them, and
in lanes they cost about 17 numpy operations per step.

Neither the step nor the per-host constants are written here.  Both
are numpy-lane forms of dialect functions in ``repro.sim.fluid``
(:func:`~repro.sim.fluid.specialize_step`): ``_fluid_step``, the source
the scalar step is compiled from too, and ``_host_constants``, which
the scalar solver runs as written.  A batch is built from lane
*columns*: one entry per lane of every
:func:`~repro.sim.fluid.fluid_inputs` value (a plain value stands for
all lanes).  :meth:`BatchFluidSolver.from_inputs` takes the columns
directly — the fleet draws its hosts straight into them — and
``BatchFluidSolver(configs)`` is the adapter that stacks each config's
inputs.  The contract is bitwise, because fleet aggregates compare
exactly: both forms run the same IEEE-754 elementwise ops in the same
order, a ``_where`` lane carries exactly the bits the scalar branch
computes, and neither calls a libm function (``x ** 3`` is
:func:`repro.sim.fluid._cube`; the Che-approximation IOTLB miss rate is
an input, computed by the scalar model once per distinct host).

The structural flags are per-lane values too: ``loss_based`` and
``open_loop`` are bool lane arrays the step chooses on (``np.where``
for a float, numpy logical ops for a truth value), and the IOMMU
enters only through ``misses_per_packet`` (0.0 when off).  So any mix
of hosts is one lane set, and a fleet range is stepped as one batch
however its draws split over transports, loop modes and IOMMU states.
The multi-tier fabric stage and the step trace are scalar-only blocks
of the step, so the config adapter rejects any ``fabric.topology`` but
``"star"`` (the fleet runs those hosts on the scalar solver), and
message-latency percentiles need the scalar solver.

A batch steps one lane per row it is given.  Hosts often repeat:
a star host's solve does not read its seed, and the fleet draws
from small discrete sets, so a 4096-host range of the Figure-1 fleet
has only about 1 770 distinct input rows.  :func:`distinct_lanes`
collapses the columns to those rows and returns the inverse index
that scatters each lane's metrics back to every host that shares it.
Its key is a row's bytes in every column after ``np.asarray`` (the
conversion the batch applies), not Python ``==``: every lane op is
elementwise, so rows with equal bytes end on equal bits, while
``0.0`` and ``-0.0``, or floats one ulp apart, stay separate lanes.

Layering: kernel (layer 0), like ``repro.sim.fluid`` — imports only
numpy, its ``repro.sim`` neighbours and the pinned kernel config
modules (enforced by ``scripts/check_layering.py``).
"""

from __future__ import annotations

import types
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ExperimentConfig
from repro.sim import fluid
from repro.sim.fluid import fluid_inputs, specialize_step

__all__ = ["BatchFluidSolver", "distinct_lanes"]

#: Per-host constants the step reads, held as float64 lane arrays: the
#: lane form of ``repro.sim.fluid._host_constants`` computes them from
#: the input columns, so the scalar solver and the batch share one copy
#: of every formula.
_CONST_ATTRS = (
    "wire_bytes", "payload_bytes", "base_rtt", "dt",
    "misses_per_packet", "antagonist_Bps", "nic_write_bytes",
    "copy_bytes_per_packet", "achievable_Bps", "max_queue_delay",
    "walk_base", "walk_fraction", "t_base", "littles_bits",
    "pcie_goodput_bps", "cpu_wire_bps", "cpu_slowdown", "link_rate_bps",
    "buffer_bytes", "wire_bits", "swift_target", "ai_n", "swift_beta",
    "swift_max_mdf", "demand_step_bytes", "min_W", "max_W",
)

#: The structural flags, held as bool lane arrays.
_FLAG_ATTRS = ("loss_based", "open_loop")

#: Mutable per-host state, initialized by the same derivation (so
#: time-zero state matches the scalar solver's by construction).
_STATE_ATTRS = (
    "W", "q_nic", "q_cpu", "q_demand", "now", "_host_delay",
    "_delayed_signal", "_delayed_loss", "_nic_drain_pps",
    "_cpu_drain_pps", "_last_decrease",
)

#: Measurement-window accumulators, held as arrays on the batch's
#: ``run``: the ``FluidRun`` fields :meth:`BatchFluidSolver.fleet_metrics`
#: reads, and the only ones the lane step computes.
_ACC_ATTRS = ("elapsed", "rx_packets", "dropped_packets",
              "drained_payload_bytes")

#: The fluid step's lane form: ``_lane_step(batch[, _sel, _acc])``.
_lane_step = specialize_step(np)
#: The constant derivation's lane form: ``_lane_constants(batch, h)``.
_lane_constants = specialize_step(np, source=fluid._host_constants)


def distinct_lanes(inputs: Mapping[str, object]
                   ) -> Tuple[Dict[str, object], np.ndarray]:
    """Collapse lane columns to their distinct rows.

    Returns ``(distinct, inverse)``: ``distinct`` holds the
    :meth:`BatchFluidSolver.from_inputs` columns of each distinct row
    once, in order of first appearance (a plain value stays plain),
    and ``inverse[i]`` is the distinct lane of row ``i``, so
    ``column[inverse]`` scatters a lane result back to row order.

    Two rows share a lane only when every column holds the same bytes
    in the same dtype after ``np.asarray``, the conversion the batch
    itself applies.  So equal rows step on equal bits and, every lane
    op being elementwise, end on equal bits: stepping the distinct
    rows is bitwise the same as stepping them all.  Rows that Python's
    ``==`` would merge but whose bits differ (``0.0`` and ``-0.0``)
    stay apart, as do floats one ulp apart.
    """
    columns = {name: np.asarray(value) for name, value in inputs.items()}
    lanes = {name: column for name, column in columns.items()
             if column.ndim}
    rows = np.concatenate(
        [np.ascontiguousarray(column).view(np.uint8).reshape(
            len(column), -1) for column in lanes.values()], axis=1)
    _, first, inverse = np.unique(
        rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    # np.unique numbers rows in byte order; renumber by first row.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    distinct = dict(inputs)
    distinct.update({name: column[first[order]]
                     for name, column in lanes.items()})
    return distinct, rank[inverse.ravel()]


class BatchFluidSolver:
    """N hosts' fluid dynamics, stepped together as one lane set.

    ``configs`` must use the star fabric; everything else, the
    transport family, loop mode and IOMMU state included, may vary per
    host.
    """

    def __init__(self, configs: Sequence[ExperimentConfig]):
        if not configs:
            raise ValueError("BatchFluidSolver needs at least one config")
        for config in configs:
            if config.fabric.topology != "star":
                raise ValueError(
                    f"BatchFluidSolver models the star fabric only, got "
                    f"fabric.topology = {config.fabric.topology!r}; run "
                    f"multi-tier fabrics on the scalar FluidSolver")
        rows = [fluid_inputs(config) for config in configs]
        self._init_lanes({name: [row[name] for row in rows]
                          for name in rows[0]})

    @classmethod
    def from_inputs(cls, inputs: Mapping[str, object]
                    ) -> "BatchFluidSolver":
        """A batch from lane columns: every
        :func:`~repro.sim.fluid.fluid_inputs` name, mapped to one value
        per lane or to one plain value for all lanes.  The hosts are
        star-fabric hosts (the inputs hold no fabric)."""
        solver = cls.__new__(cls)
        solver._init_lanes(inputs)
        return solver

    def _init_lanes(self, inputs: Mapping[str, object]) -> None:
        columns = {name: np.asarray(value) for name, value in inputs.items()}
        (self.n,) = np.broadcast_shapes(
            *(column.shape for column in columns.values()))
        _lane_constants(self, types.SimpleNamespace(**columns))
        for attrs, dtype in ((_CONST_ATTRS + _STATE_ATTRS, np.float64),
                             (_FLAG_ATTRS, bool)):
            for attr in attrs:
                setattr(self, attr, np.broadcast_to(
                    getattr(self, attr), (self.n,)).astype(dtype))
        self.n_receivers = np.broadcast_to(
            columns["receivers"], (self.n,)).astype(np.float64)
        self.steps = np.zeros(self.n, dtype=np.int64)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Warmup boundary: restart accumulators, keep CC/queue state
        (mirrors :meth:`FluidSolver.reset_stats`)."""
        self.run = types.SimpleNamespace(**{
            attr: np.zeros(self.n, dtype=np.float64) for attr in _ACC_ATTRS})

    # -- stepping ------------------------------------------------------------

    def run_until(self, until: float) -> None:
        """Advance every host whose clock is behind ``until`` (same
        loop guard as the scalar ``run_until``).  Hosts reaching the
        horizon first freeze while stragglers (shorter ``dt``) catch
        up, masked so a frozen lane's state and accumulators stay
        bit-identical to a scalar solver that simply stopped."""
        limit = until - 1e-12
        while True:
            active = self.now < limit
            if active.all():
                self._step(None)
            elif active.any():
                self._step(active)
            else:
                return

    def _step(self, active: Optional[np.ndarray]) -> None:
        # ``active is None`` means every lane steps: the mask ops take
        # their scalar meaning (identity), skipping ~20 np.where calls
        # on the common lock-step path.  np.where(active, new, old) is
        # bitwise ``new`` on active lanes, so both paths agree.  A
        # frozen lane accumulates ``0``: ``+0.0`` for a float delta,
        # and an int for the integer step count.
        if active is None:
            _lane_step(self)
        else:
            _lane_step(self, lambda new, old: np.where(active, new, old),
                       lambda delta: np.where(active, delta, 0))

    # -- reporting -----------------------------------------------------------

    def fleet_metrics(self) -> Dict[str, np.ndarray]:
        """Per-host headline metrics, shape ``(N,)`` each, reproducing
        the exact operation chain of ``FluidSolver.snapshot`` +
        ``FluidExperiment.collect`` (symmetric-receiver scaling
        included) so ``link_utilization`` and ``drop_rate`` are
        bit-identical to the scalar pipeline's."""
        run = self.run
        m = self.n_receivers
        wire_gbps = np.zeros(self.n)
        np.divide(run.rx_packets * self.wire_bytes * 8, run.elapsed,
                  out=wire_gbps, where=run.elapsed > 0.0)
        wire_gbps = wire_gbps / 1e9
        app_gbps = np.zeros(self.n)
        np.divide(run.drained_payload_bytes * 8, run.elapsed,
                  out=app_gbps, where=run.elapsed > 0.0)
        app_gbps = app_gbps / 1e9
        drop_rate = np.zeros(self.n)
        np.divide(run.dropped_packets, run.rx_packets, out=drop_rate,
                  where=run.rx_packets > 0.0)
        return {
            "link_utilization":
                wire_gbps * m * 1e9 / (self.link_rate_bps * m),
            "drop_rate": drop_rate,
            "app_throughput_gbps": app_gbps * m,
        }
