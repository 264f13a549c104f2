"""Unit tests for ByteQueue."""

import pytest

from repro.sim import ByteQueue, Simulator


def make_queue(capacity=1000):
    sim = Simulator()
    return sim, ByteQueue(sim, capacity_bytes=capacity, name="test")


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        ByteQueue(sim, capacity_bytes=0)


def test_offer_and_pop_fifo():
    _, q = make_queue()
    assert q.offer("a", 100)
    assert q.offer("b", 200)
    item, size, _ = q.pop()
    assert (item, size) == ("a", 100)
    item, size, _ = q.pop()
    assert (item, size) == ("b", 200)
    assert q.pop() is None


def test_tail_drop_when_full():
    _, q = make_queue(capacity=250)
    assert q.offer("a", 100)
    assert q.offer("b", 100)
    assert not q.offer("c", 100)  # would exceed 250
    assert q.dropped_count == 1
    assert q.dropped_bytes == 100
    assert q.bytes_used == 200
    # A smaller item still fits after the drop (tail drop, not head).
    assert q.offer("d", 50)


def test_negative_size_rejected():
    _, q = make_queue()
    with pytest.raises(ValueError):
        q.offer("x", -1)


def test_byte_accounting():
    _, q = make_queue(capacity=500)
    q.offer("a", 200)
    q.offer("b", 300)
    assert q.bytes_used == 500
    assert q.bytes_free == 0
    q.pop()
    assert q.bytes_used == 300
    assert q.bytes_free == 200


def test_peak_bytes_tracked():
    _, q = make_queue(capacity=1000)
    q.offer("a", 600)
    q.offer("b", 300)
    q.pop()
    q.pop()
    assert q.peak_bytes == 900
    assert q.bytes_used == 0


def test_drop_rate():
    _, q = make_queue(capacity=100)
    q.offer("a", 100)
    q.offer("b", 100)  # dropped
    q.offer("c", 100)  # dropped
    assert q.drop_rate() == pytest.approx(2 / 3)


def test_drop_rate_zero_when_untouched():
    _, q = make_queue()
    assert q.drop_rate() == 0.0


def test_enqueue_time_recorded_for_sojourn():
    sim, q = make_queue()
    sim.call(1e-6, q.offer, "a", 10)
    sim.run(until=5e-6)
    item, _, t_in = q.pop()
    assert item == "a"
    assert t_in == pytest.approx(1e-6)


def test_counters_after_mixed_operations():
    _, q = make_queue(capacity=100)
    q.offer("a", 60)
    q.offer("b", 60)  # drop
    q.pop()
    q.offer("c", 60)
    assert q.enqueued_count == 2
    assert q.enqueued_bytes == 120
    assert q.dequeued_count == 1
    assert q.dropped_count == 1
