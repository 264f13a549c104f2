"""Unit tests for CreditPool."""

import pytest

from repro.sim import CreditPool, Simulator
from repro.sim.engine import SimulationError


class TestCreditPool:
    def test_initial_state(self):
        sim = Simulator()
        pool = CreditPool(sim, capacity=4)
        assert pool.available == 4
        assert pool.in_use == 0

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CreditPool(sim, capacity=0)

    def test_try_acquire_and_release(self):
        sim = Simulator()
        pool = CreditPool(sim, capacity=2)
        assert pool.try_acquire()
        assert pool.try_acquire()
        assert not pool.try_acquire()
        pool.release()
        assert pool.try_acquire()

    def test_acquire_more_than_capacity_raises(self):
        sim = Simulator()
        pool = CreditPool(sim, capacity=2)
        with pytest.raises(SimulationError):
            pool.try_acquire(3)

    def test_over_release_raises(self):
        sim = Simulator()
        pool = CreditPool(sim, capacity=1)
        with pytest.raises(SimulationError):
            pool.release()
