"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_callbacks_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call(3e-6, order.append, "c")
    sim.call(1e-6, order.append, "a")
    sim.call(2e-6, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_time_callbacks_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.call(1e-6, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.call(5e-6, fired.append, "early")
    sim.call(50e-6, fired.append, "late")
    sim.run(until=10e-6)
    assert fired == ["early"]
    assert sim.now == 10e-6
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_time_even_with_empty_heap():
    sim = Simulator()
    sim.run(until=1.0)
    assert sim.now == 1.0


def test_at_schedules_absolute_time():
    sim = Simulator()
    fired = []
    sim.at(2e-3, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 2e-3


def test_at_in_the_past_raises():
    sim = Simulator()
    sim.call(1e-3, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5e-3, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call(-1e-9, lambda: None)


def test_events_dispatched_counter():
    sim = Simulator()
    for _ in range(5):
        sim.call(1e-6, lambda: None)
    sim.run()
    assert sim.events_dispatched == 5


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.call(7e-6, lambda: None)
    assert sim.peek() == pytest.approx(7e-6)
