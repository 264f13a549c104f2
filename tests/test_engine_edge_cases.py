"""Additional engine edge cases: the ``run(until=...)`` boundary."""

from repro.sim import Simulator


def test_run_with_until_before_now_is_noop():
    sim = Simulator()
    sim.call(1e-3, lambda: None)
    sim.run(until=2e-3)
    # Running again to an earlier point must not rewind time.
    sim.run(until=1e-3)
    assert sim.now == 2e-3


def test_zero_delay_self_reschedule_is_bounded_by_until():
    # A callback that keeps rescheduling itself a nanosecond ahead
    # ends on its own count inside the run(until=...) window.
    sim = Simulator()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 100:
            sim.call(1e-9, tick)

    sim.call(0.0, tick)
    sim.run(until=1.0)
    assert count[0] == 100
