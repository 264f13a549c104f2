"""Vectorized fluid solver: N independent hosts stepped as one batch.

:class:`BatchFluidSolver` is the fleet-scale twin of
:class:`repro.sim.fluid.FluidSolver`: every piece of per-host state
(congestion window, queue levels, demand backlog, delayed signals,
accumulators) becomes a shape-``(N,)`` float64 array, and one step
advances all N hosts with ~60 elementwise numpy operations instead of
N trips through the scalar step — the fleet driver's order-of-magnitude
hosts/s win.

The step is not written here: it is the numpy-lane form of
``repro.sim.fluid._fluid_step``, the source the scalar step is compiled
from too (:func:`~repro.sim.fluid.specialize_step`).  The contract is
bitwise, because fleet aggregates compare exactly: both forms run the
same IEEE-754 elementwise ops in the same order, a ``_where`` lane
carries exactly the bits the scalar branch computes, and the step calls
no libm function (``x ** 3`` is :func:`repro.sim.fluid._cube`).

The structural flags are per-lane values too: ``loss_based`` and
``open_loop`` are bool lane arrays the step chooses with ``np.where``,
and the IOMMU enters only through ``misses_per_packet`` (0.0 when
off).  So any mix of hosts is one lane set, and a fleet range is
stepped as one batch however its draws split over transports, loop
modes and IOMMU states.  The multi-tier fabric stage and the per-step
delay/trace lists are scalar-only blocks of the step, so the
constructor rejects any ``fabric.topology`` but ``"star"``
(:func:`repro.workload.fleet.cohort_key` keeps those hosts apart), and
message-latency percentiles need the scalar solver.

Layering: kernel (layer 0), like ``repro.sim.fluid`` — imports only
numpy, its ``repro.sim`` neighbours and the pinned kernel config
modules (enforced by ``scripts/check_layering.py``).
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import ExperimentConfig
from repro.sim import fluid
from repro.sim.fluid import FluidRun, FluidSolver, specialize_step

__all__ = ["BatchFluidSolver"]

#: Scalar-solver attributes the step reads, harvested into per-host
#: constant arrays.  Harvesting from built ``FluidSolver``s (rather
#: than re-deriving from the config tree) keeps one source of truth for
#: every derived constant, including the Che-approximation IOTLB miss
#: rate.
_CONST_ATTRS = (
    "wire_bytes", "payload_bytes", "n_flows", "base_rtt", "dt",
    "misses_per_packet", "antagonist_Bps", "nic_write_bytes",
    "copy_bytes_per_packet", "achievable_Bps", "max_queue_delay",
    "walk_base", "walk_fraction", "t_base", "littles_bits",
    "pcie_goodput_bps", "cpu_wire_bps", "cpu_slowdown", "link_rate_bps",
    "buffer_bytes", "wire_bits", "swift_target", "ai_n", "swift_beta",
    "swift_max_mdf", "demand_step_bytes", "min_W", "max_W",
)

#: The structural flags, harvested into bool lane arrays.
_FLAG_ATTRS = ("loss_based", "open_loop")

#: Mutable per-host state initialized from the freshly built scalar
#: solvers (so time-zero state matches by construction).
_STATE_ATTRS = (
    "W", "q_nic", "q_cpu", "q_demand", "now", "_host_delay",
    "_delayed_signal", "_delayed_loss", "_nic_drain_pps",
    "_cpu_drain_pps", "_last_decrease",
)

#: Measurement-window accumulators: the float fields of ``FluidRun``,
#: held as arrays on the batch's ``run``.
_ACC_ATTRS = tuple(f.name for f in dataclasses.fields(FluidRun)
                   if f.default_factory is dataclasses.MISSING)

#: The fluid step's lane form: ``_lane_step(batch, sel, acc)``.
_lane_step = specialize_step(np)


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
        self.n = len(configs)
        # One solver alive at a time: its harvested values go straight
        # into a lane column, so memory stays that of the arrays.
        attrs = _CONST_ATTRS + _STATE_ATTRS + _FLAG_ATTRS
        harvest = operator.attrgetter(*attrs)
        table = np.empty((len(attrs), self.n), dtype=np.float64)
        for lane, config in enumerate(configs):
            table[:, lane] = harvest(FluidSolver(config))
        for attr, row in zip(attrs, table):
            setattr(self, attr,
                    row.astype(bool) if attr in _FLAG_ATTRS else row)
        self.n_receivers = np.array(
            [c.workload.receivers for c in configs], dtype=np.float64)
        self.steps = np.zeros(self.n, dtype=np.int64)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Warmup boundary: restart accumulators, keep CC/queue state
        (mirrors :meth:`FluidSolver.reset_stats`)."""
        self.run = FluidRun(**{attr: np.zeros(self.n, dtype=np.float64)
                               for attr in _ACC_ATTRS})

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
        # bitwise ``new`` on active lanes, so both paths agree.
        if active is None:
            _lane_step(self, fluid._sel, fluid._acc)
        else:
            _lane_step(self, lambda new, old: np.where(active, new, old),
                       lambda delta: np.where(active, delta, 0.0))

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
