"""Vectorized fluid solver: N independent hosts stepped as one batch.

:class:`BatchFluidSolver` is the fleet-scale twin of
:class:`repro.sim.fluid.FluidSolver`: every piece of per-host state
(congestion window, NIC/CPU queue levels, open-loop demand backlog,
delayed congestion signals, accumulators) becomes a shape-``(N,)``
float64 array, and one :meth:`step` advances all N hosts with ~60
elementwise numpy operations instead of N trips through the scalar
step.  The scalar solver costs a few microseconds of interpreter per
host per step; batched, the per-step cost is amortized across the
whole cohort, which is where the fleet driver's order-of-magnitude
hosts/s win comes from.

**Bit-for-bit contract.**  The fleet aggregate's equality is exact
(``QuantileSketch``/``Density2D`` compare bucket counts, not
tolerances), so this solver does not merely approximate the scalar
path — it reproduces it to the last ulp.  Every expression below is
the scalar :meth:`FluidSolver.step` expression with the same
association and operation order, relying on three facts:

- IEEE-754 elementwise ``+ - * /`` and ``min``/``max`` are identical
  between CPython floats and numpy float64 lanes;
- data-dependent branches become ``np.where`` over lanes whose values
  were computed by those same elementwise ops, so the selected lane
  carries exactly the bits the scalar branch would have produced;
- the one libm call in the scalar dynamics (``x ** QUEUE_GAMMA``) was
  replaced by plain multiplication (:func:`repro.sim.fluid._cube`)
  precisely because ``pow`` kernels differ between libm and numpy in
  the last ulp.

The only knowingly inexact output is the ``timeouts`` accumulator,
whose loss-probability model needs a true ``pow`` (``(1-p)**ppr``);
it feeds no fleet metric and the equivalence tests hold it to rtol
instead.

**Structural uniformity.**  Branches that pick a *code path* rather
than a value — loss- vs delay-based congestion control, open- vs
closed-loop workload, IOMMU on/off — stay Python ``if``s, so a batch
must be structurally uniform.  :func:`repro.workload.fleet.cohort_key`
computes the partition key; the constructor validates it and raises
``ValueError`` on a mixed cohort.

**Star fabric only.**  The scalar solver's multi-tier fabric stage
(``FluidSolver._fab_terms``) has no lane-wise twin here, so the
constructor rejects any config whose ``fabric.topology`` is not
``"star"`` rather than silently dropping that stage.

Per-host latency/delay *distributions* (``latency_pairs``,
``delay_pairs``, ``step_trace``) are deliberately not materialized:
the fleet folds scalar headline metrics only, and keeping those lists
would put a Python list append back into the hot loop.  Use the scalar
solver when the message-latency percentiles of one host matter.

Layering: kernel (layer 0), like ``repro.sim.fluid`` — imports only
numpy, its ``repro.sim`` neighbours and the pinned kernel config
modules (enforced by ``scripts/check_layering.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.calibration import QUEUE_KNEE
from repro.core.config import ExperimentConfig
from repro.sim.fluid import _KNEE_SPAN, LOSS_CC_BETA, FluidSolver

__all__ = ["BatchFluidSolver"]

#: Scalar-solver attributes harvested into per-host constant arrays.
#: Harvesting from built ``FluidSolver``s (rather than re-deriving from
#: the config tree) keeps one source of truth for every derived
#: constant, including the Che-approximation IOTLB miss rate.
_CONST_ATTRS = (
    "wire_bytes", "payload_bytes", "packets_per_read", "n_flows",
    "base_rtt", "dt", "misses_per_packet", "antagonist_Bps",
    "nic_write_bytes", "copy_bytes_per_packet", "achievable_Bps",
    "max_queue_delay", "walk_base", "walk_fraction", "t_base",
    "littles_bits", "pcie_goodput_bps", "cpu_wire_bps", "cpu_slowdown",
    "link_rate_bps", "buffer_bytes", "wire_bits", "swift_target",
    "swift_ai_n", "loss_ai_n", "swift_beta", "swift_max_mdf",
    "min_cwnd", "demand_step_bytes", "min_W", "max_W",
)

#: Mutable per-host state initialized from the freshly built scalar
#: solvers (so time-zero state matches by construction).
_STATE_ATTRS = (
    "W", "q_nic", "q_cpu", "q_demand", "now", "_host_delay",
    "_delayed_signal", "_delayed_loss", "_nic_drain_pps",
    "_cpu_drain_pps", "_last_decrease",
)

#: Measurement-window accumulators (the array form of ``FluidRun``,
#: minus the per-step pair lists — see module docstring).
_ACC_ATTRS = (
    "elapsed", "rx_packets", "dropped_packets", "dma_packets",
    "drained_packets", "drained_payload_bytes", "retransmissions",
    "timeouts", "dma_latency_weighted", "nic_delay_weighted",
    "utilization_integral", "achieved_bw_integral", "cwnd_integral",
    "peak_queue_bytes",
)


class BatchFluidSolver:
    """N structurally-uniform hosts' fluid dynamics, stepped together.

    ``configs`` must agree on the three structural flags (loss- vs
    delay-based transport, open- vs closed-loop workload, IOMMU
    enabled) and use the star fabric; every continuous parameter may
    vary per host.
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
        solvers = [FluidSolver(config) for config in configs]
        first = solvers[0]
        self.n = len(solvers)
        self.loss_based = first.loss_based
        self.open_loop = first.open_loop
        self.iommu_on = first.iommu_on
        for solver in solvers:
            if (solver.loss_based != self.loss_based
                    or solver.open_loop != self.open_loop
                    or solver.iommu_on != self.iommu_on):
                raise ValueError(
                    "mixed cohort: all configs in a batch must share "
                    "transport family, loop mode, and IOMMU state "
                    "(partition with repro.workload.fleet.cohort_key)")
        for attr in _CONST_ATTRS + _STATE_ATTRS:
            setattr(self, attr, np.array(
                [getattr(s, attr) for s in solvers], dtype=np.float64))
        self.n_receivers = np.array(
            [c.workload.receivers for c in configs], dtype=np.float64)
        self.steps = np.zeros(self.n, dtype=np.int64)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Warmup boundary: restart accumulators, keep CC/queue state
        (mirrors :meth:`FluidSolver.reset_stats`)."""
        for attr in _ACC_ATTRS:
            setattr(self, attr, np.zeros(self.n, dtype=np.float64))

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
        # ``active is None`` means every lane steps: the selectors
        # collapse to identity, skipping ~20 np.where calls on the
        # common lock-step path.  np.where(active, new, old) is
        # bitwise ``new`` on active lanes, so both paths agree.
        if active is None:
            def sel(new, old):
                return new

            def acc(delta):
                return delta
        else:
            def sel(new, old):
                return np.where(active, new, old)

            def acc(delta):
                return np.where(active, delta, 0.0)

        dt = self.dt

        # Memory bus: NIC DMA writes + CPU copies + antagonist vs the
        # achievable bandwidth -> utilization, queue delay, achieved BW.
        total_Bps = (self._nic_drain_pps * self.nic_write_bytes
                     + self._cpu_drain_pps * self.copy_bytes_per_packet
                     + self.antagonist_Bps)
        rho = total_Bps / self.achievable_Bps
        x = np.minimum((rho - QUEUE_KNEE) / _KNEE_SPAN, 1.0)
        queue_delay = np.where(rho <= QUEUE_KNEE, 0.0,
                               self.max_queue_delay * (x * x * x))
        achieved_Bps = np.minimum(total_Bps, self.achievable_Bps)

        # NIC-stage capacity: Little's-law PCIe bound, goodput-capped.
        t_total = self.t_base + queue_delay
        if self.iommu_on:
            walk = self.walk_base + self.walk_fraction * queue_delay
            t_total = t_total + self.misses_per_packet * walk
        littles = self.littles_bits / t_total
        nic_bps = np.minimum(littles, self.pcie_goodput_bps)

        # CPU-stage capacity: per-core rate slowed by bus contention.
        rho_c = np.minimum(rho, 1.0)
        cpu_bps = self.cpu_wire_bps * (1.0 - self.cpu_slowdown * rho_c)

        # Arrivals: window-limited closed loop / open-loop demand drain.
        rtt_eff = self.base_rtt + self._host_delay
        window_bps = self.W * self.wire_bits / rtt_eff
        if self.open_loop:
            q_demand = self.q_demand + self.demand_step_bytes
            arrival_bps = np.minimum(
                np.minimum(window_bps, q_demand * 8 / dt),
                self.link_rate_bps)
            q_demand = np.maximum(
                q_demand - arrival_bps / 8 * dt, 0.0)
        else:
            arrival_bps = np.minimum(window_bps, self.link_rate_bps)

        # NIC stage: bounded buffer, tail drop on overflow.
        inflow = arrival_bps / 8 * dt
        nic_capacity = nic_bps / 8 * dt
        nic_backlog = self.q_nic + inflow
        dma_bytes = np.minimum(nic_capacity, nic_backlog)
        level = nic_backlog - dma_bytes
        dropped_bytes = np.maximum(level - self.buffer_bytes, 0.0)
        q_nic = np.minimum(level, self.buffer_bytes)
        if self.open_loop:
            q_demand = q_demand + dropped_bytes
        nic_Bps = np.maximum(nic_bps / 8, 1.0)
        nic_delay = t_total + q_nic / nic_Bps

        # CPU stage: unbounded in-memory backlog, loss-free.
        cpu_capacity = cpu_bps / 8 * dt
        cpu_backlog = self.q_cpu + dma_bytes
        done_bytes = np.minimum(cpu_capacity, cpu_backlog)
        q_cpu = cpu_backlog - done_bytes
        cpu_Bps = np.maximum(cpu_bps / 8, 1.0)
        host_delay = nic_delay + q_cpu / cpu_Bps

        # Aggregate AIMD against the one-RTT-delayed signal: both
        # branch outcomes are computed for every lane with the scalar
        # expressions, then np.where picks the lane the scalar ``if``
        # would have taken.
        signal = self._delayed_signal
        now = self.now
        W = self.W
        can_cut = now - self._last_decrease >= rtt_eff
        if self.loss_based:
            grow = self._delayed_loss <= 0.0
            W_grown = W + self.loss_ai_n * dt / rtt_eff
            W_cut = W * LOSS_CC_BETA
        else:
            grow = signal < self.swift_target
            W_grown = W + self.swift_ai_n * dt / rtt_eff
            mdf = np.minimum(
                self.swift_beta * (signal - self.swift_target) / signal,
                self.swift_max_mdf)
            W_cut = W * (1.0 - mdf)
        cut = ~grow & can_cut
        W_new = np.where(grow, W_grown, np.where(can_cut, W_cut, W))
        W_new = np.minimum(np.maximum(W_new, self.min_W), self.max_W)
        last_decrease = np.where(cut, now, self._last_decrease)

        # Accumulators (the array form of the scalar step's tail).
        rx = inflow / self.wire_bytes
        dropped = dropped_bytes / self.wire_bytes
        dma = dma_bytes / self.wire_bytes
        drained = done_bytes / self.wire_bytes
        self.elapsed += acc(dt)
        self.rx_packets += acc(rx)
        self.dropped_packets += acc(dropped)
        self.dma_packets += acc(dma)
        self.drained_packets += acc(drained)
        self.drained_payload_bytes += acc(drained * self.payload_bytes)
        self.retransmissions += acc(dropped)
        self.dma_latency_weighted += acc(t_total * dma)
        self.nic_delay_weighted += acc(nic_delay * dma)
        self.utilization_integral += acc(rho * dt)
        self.achieved_bw_integral += acc(achieved_Bps * dt)
        self.cwnd_integral += acc(W_new / self.n_flows * dt)
        self.peak_queue_bytes = np.maximum(self.peak_queue_bytes,
                                           acc(q_nic))
        # Timeout synthesis (the scalar ``drained > 0`` branch).  The
        # loss-probability model needs a true pow, whose numpy kernel
        # differs from libm in the last ulp — ``timeouts`` feeds no
        # fleet metric, and the equivalence tests hold it to rtol.
        p_pkt = np.zeros(self.n)
        np.divide(dropped, rx, out=p_pkt, where=rx > 0.0)
        np.minimum(p_pkt, 1.0, out=p_pkt)
        messages = drained / self.packets_per_read
        p_msg = 1.0 - (1.0 - p_pkt) ** self.packets_per_read
        synth = drained > 0.0
        if active is not None:
            synth &= active
        self.timeouts += np.where(synth, messages * (p_msg * p_pkt),
                                  0.0)

        # Roll the delayed signals forward one step.
        old_host_delay = self._host_delay
        self._delayed_signal = sel(old_host_delay, self._delayed_signal)
        self._host_delay = sel(host_delay, old_host_delay)
        self._delayed_loss = sel(dropped_bytes, self._delayed_loss)
        self._nic_drain_pps = sel(dma / dt, self._nic_drain_pps)
        self._cpu_drain_pps = sel(drained / dt, self._cpu_drain_pps)
        self.W = sel(W_new, W)
        self._last_decrease = sel(last_decrease, self._last_decrease)
        self.q_nic = sel(q_nic, self.q_nic)
        self.q_cpu = sel(q_cpu, self.q_cpu)
        if self.open_loop:
            self.q_demand = sel(q_demand, self.q_demand)
        self.now = self.now + acc(dt)
        if active is None:
            self.steps += 1
        else:
            self.steps += active

    # -- reporting -----------------------------------------------------------

    def fleet_metrics(self) -> Dict[str, np.ndarray]:
        """Per-host headline metrics, shape ``(N,)`` each, reproducing
        the exact operation chain of ``FluidSolver.snapshot`` +
        ``FluidExperiment.collect`` (symmetric-receiver scaling
        included) so ``link_utilization`` and ``drop_rate`` are
        bit-identical to the scalar pipeline's."""
        m = self.n_receivers
        wire_gbps = np.zeros(self.n)
        np.divide(self.rx_packets * self.wire_bytes * 8, self.elapsed,
                  out=wire_gbps, where=self.elapsed > 0.0)
        wire_gbps = wire_gbps / 1e9
        app_gbps = np.zeros(self.n)
        np.divide(self.drained_payload_bytes * 8, self.elapsed,
                  out=app_gbps, where=self.elapsed > 0.0)
        app_gbps = app_gbps / 1e9
        drop_rate = np.zeros(self.n)
        np.divide(self.dropped_packets, self.rx_packets, out=drop_rate,
                  where=self.rx_packets > 0.0)
        return {
            "link_utilization":
                wire_gbps * m * 1e9 / (self.link_rate_bps * m),
            "drop_rate": drop_rate,
            "app_throughput_gbps": app_gbps * m,
        }
