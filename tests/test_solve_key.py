"""Solve keys: a sweep runs each distinct operating point once.

``run_many`` groups its cache misses by
:func:`repro.core.experiment.solve_key` and runs one config per group.
That is exact only if the key holds everything a run reads, apart
from the ``params`` labels.  A fluid key drops ``sim.seed`` and keeps
the fabric profile, which holds the seed's one effect (the routing
hash).  These tests pin that: every read of the seed during a fluid
run is recorded, and grouped sweeps over every bundled spec must
equal one ``run_experiment`` per config.
"""

import dataclasses
import sys

import pytest

from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    FabricConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
)
from repro.core.experiment import build_handle, run_experiment, solve_key
from repro.core.parallel import run_many
from repro.core.results import ResultTable
from repro.core.scenario import bundled_scenarios, run_configs
from repro.sim import fluid
from repro.sim.fluid import fluid_fabric_profile

#: A window short enough to run every bundled spec point in the suite.
TINY = {"warmup": 0.5e-3, "duration": 1e-3}


def fluid_config(seed, topology="star", routing="static", cores=2,
                 senders=4):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=cores)),
        workload=WorkloadConfig(senders=senders),
        fabric=FabricConfig(topology=topology, fattree_k=4,
                            routing=routing),
        fidelity="fluid",
        sim=SimConfig(seed=seed, **TINY))


class SeedSpy(SimConfig):
    """A :class:`SimConfig` that records the function reading ``seed``."""

    reads: list = []

    def __getattribute__(self, name):
        if name == "seed":
            SeedSpy.reads.append(sys._getframe(1).f_code.co_name)
        return super().__getattribute__(name)


def seed_readers(config):
    """Names of the functions that read ``sim.seed`` while ``config``
    is built, run, collected and snapshotted at fluid fidelity, less
    ``describe`` (the ``params`` labels every shared result gets anew)."""
    spy = SeedSpy(**{field.name: getattr(config.sim, field.name)
                     for field in dataclasses.fields(SimConfig)})
    config = dataclasses.replace(config, sim=spy)
    SeedSpy.reads = []
    handle = build_handle(config)
    handle.run_warmup()
    handle.run_measurement()
    handle.collect()
    handle.metrics_snapshot()
    assert "describe" in SeedSpy.reads   # the spy sees the labels too
    return {name for name in SeedSpy.reads if name != "describe"}


class TestSeedReads:
    def test_star_solve_never_reads_the_seed(self):
        assert seed_readers(fluid_config(5)) == set()

    def test_ecmp_solve_reads_it_only_in_the_fabric_profile(self):
        config = fluid_config(5, topology="fattree", routing="ecmp")
        assert seed_readers(config) == {"fluid_fabric_profile"}


class TestKeys:
    def test_packet_key_is_the_config(self):
        config = dataclasses.replace(fluid_config(5), fidelity="packet")
        assert solve_key(config) == config
        assert solve_key(config) != solve_key(
            dataclasses.replace(config, sim=SimConfig(seed=6, **TINY)))

    def test_fluid_seeds_share_a_star_key(self):
        assert solve_key(fluid_config(1)) == solve_key(fluid_config(2))
        assert solve_key(fluid_config(1)) != solve_key(
            fluid_config(1, cores=4))

    def test_ecmp_seeds_with_different_profiles_stay_two_solves(self):
        # Seed 1 splits this incast's flows 1:2 over two down-links,
        # seed 2 evenly; seed 3 hashes to seed 1's split.
        one, two, three = (fluid_config(seed, topology="fattree",
                                        routing="ecmp")
                           for seed in (1, 2, 3))
        assert fluid_fabric_profile(one) != fluid_fabric_profile(two)
        assert solve_key(one) != solve_key(two)
        assert solve_key(one) == solve_key(three)
        events = []
        outcomes = run_many([one, two, three], events=events.append)
        started = [e["index"] for e in events if e["ev"] == "started"]
        assert started == [0, 1]
        assert outcomes[0].result.metrics != outcomes[1].result.metrics
        assert outcomes[2].result == run_experiment(three)

    def test_a_solve_reuses_its_keys_profile(self, monkeypatch):
        """Each config's profile is walked once, for its key; the solve
        run for a key is handed that profile instead of walking it
        again."""
        configs = [fluid_config(seed, topology="fattree", routing="ecmp")
                   for seed in (1, 2, 3)]
        expected = [run_experiment(config) for config in configs]
        walked = []

        def counting_profile(config):
            walked.append(config.sim.seed)
            return fluid_fabric_profile(config)

        monkeypatch.setattr(fluid, "fluid_fabric_profile",
                            counting_profile)
        outcomes = run_many(configs)
        assert walked == [1, 2, 3]
        assert [o.result for o in outcomes] == expected


def bundled_sweeps():
    return sorted(name for name, spec in bundled_scenarios().items()
                  if spec.driver == "sweep")


@pytest.mark.parametrize("name", bundled_sweeps())
def test_grouped_sweep_equals_one_run_per_config(name):
    spec = dataclasses.replace(bundled_scenarios()[name], repeats=3)
    configs = [dataclasses.replace(
                   config, sim=dataclasses.replace(config.sim, **TINY))
               for config in spec.expand(spec.default_quality,
                                         fidelity="fluid")]
    table = run_configs(configs)
    assert table == ResultTable([run_experiment(c) for c in configs])
    assert [row.params["seed"] for row in table] == \
        [config.sim.seed for config in configs]
