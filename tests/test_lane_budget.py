"""Pinned lane counts of the batched Figure-1 fleet.

A batched fleet range steps one lane per distinct fluid input row of
its star hosts (``repro.sim.fluid_batch.distinct_lanes``), and the
lane step is most of a range's time.  So the lanes a range steps are
its work, as engine events are a packet run's
(``tests/test_event_budget.py``): a change that steps more lanes, say
one that no longer collapses repeated hosts, must show up here and be
re-pinned on purpose.  The population is deterministic, so the counts
are exact.
"""

import dataclasses

from repro.core.scenario import load_bundled
from repro.sim import fluid_batch

#: Lanes per 4096-host range of the seed-1 ``figure1`` fleet (16384
#: hosts): about 43% of its hosts.
LANES = [1783, 1765, 1766, 1759]
#: Lane steps of those ranges at quick quality (4 ms warm-up + 8 ms
#: measurement): 600 steps per lane.
LANE_STEPS = [600 * lanes for lanes in LANES]


def test_figure1_ranges_step_one_lane_per_distinct_host(monkeypatch):
    spec = load_bundled("figure1")
    spec = dataclasses.replace(
        spec, driver_args={**spec.driver_args, "seed": 1})
    sampler, _ = spec.fleet_sampler("quick", fidelity="fluid")
    from_inputs = fluid_batch.BatchFluidSolver.from_inputs
    batches = []

    def spy_batch(inputs):
        batches.append(from_inputs(inputs))
        return batches[-1]

    monkeypatch.setattr(fluid_batch.BatchFluidSolver, "from_inputs",
                        spy_batch)
    hosts = 0
    for start in range(0, 16384, 4096):
        state, _ = sampler._solve_range(start, start + 4096, 0.01, False)
        hosts += state["hosts"]
    assert hosts == 16384
    assert [batch.n for batch in batches] == LANES
    assert [int(batch.steps.sum()) for batch in batches] == LANE_STEPS
