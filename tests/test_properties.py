"""Property-based tests (hypothesis) on core data structures and
invariants."""

import random as _random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CpuConfig, HostConfig, MemoryConfig, PcieConfig
from repro.host import ReceiverHost
from repro.host.iotlb import Iotlb
from repro.host.memory import queue_delay_for, weighted_water_fill
from repro.net.packet import Packet
from repro.sim import ByteQueue, Simulator
from repro.sim.randoms import derive_seed

# ---------------------------------------------------------------------------
# Engine ordering
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1.0), min_size=1,
                max_size=50))
def test_events_always_dispatch_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.call(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e-3),
                          st.integers(min_value=0, max_value=9)),
                min_size=1, max_size=30))
def test_simulation_is_deterministic(schedule):
    def run():
        sim = Simulator()
        log = []
        for delay, tag in schedule:
            sim.call(delay, lambda t=tag: log.append((sim.now, t)))
        sim.run()
        return log

    assert run() == run()


# ---------------------------------------------------------------------------
# ByteQueue conservation
# ---------------------------------------------------------------------------


@given(st.lists(st.one_of(
    st.tuples(st.just("offer"), st.integers(min_value=1, max_value=500)),
    st.tuples(st.just("pop"), st.just(0)),
), min_size=1, max_size=200))
def test_byte_queue_conservation(ops):
    sim = Simulator()
    queue = ByteQueue(sim, capacity_bytes=1000)
    popped_bytes = 0
    for op, size in ops:
        if op == "offer":
            queue.offer(object(), size)
        else:
            entry = queue.pop()
            if entry is not None:
                popped_bytes += entry[1]
        # Invariants at every step:
        assert 0 <= queue.bytes_used <= queue.capacity_bytes
        assert queue.peak_bytes <= queue.capacity_bytes
    assert queue.enqueued_bytes == popped_bytes + queue.bytes_used
    assert (queue.enqueued_count
            == queue.dequeued_count + len(queue))


# ---------------------------------------------------------------------------
# PCIe credit conservation (the NIC's DMA bytes in flight)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                          st.integers(min_value=64, max_value=4096),
                          st.floats(min_value=0.0, max_value=2e-6)),
                min_size=1, max_size=80))
def test_credit_pool_never_exceeds_capacity(window_packets, arrivals):
    """Over random arrival/run sequences the NIC's in-flight DMA bytes
    stay within ``[0, max_inflight_bytes]``, and return to 0 (with the
    buffer empty and every accepted packet DMA'd) once drained."""
    budget = window_packets * 4452
    sim = Simulator()
    host = ReceiverHost(
        sim, HostConfig(cpu=CpuConfig(cores=2),
                        pcie=PcieConfig(max_inflight_bytes=budget)),
        _random.Random(0))
    host.attach_ack_egress(lambda ack, wire_time: None)
    host.attach_receiver(lambda pkt: None)
    nic = host.nic
    for seq, (thread, payload, gap) in enumerate(arrivals):
        host.deliver_packet(Packet(0, seq, payload, payload + 356,
                                   sim.now, thread))
        assert 0 <= nic._inflight_bytes <= budget
        sim.run(until=sim.now + gap)
        assert 0 <= nic._inflight_bytes <= budget
    sim.run(until=sim.now + 1e-3)
    assert nic._inflight_bytes == 0
    assert len(nic.buffer) == 0
    assert nic.buffer.dequeued_count == nic.buffer.enqueued_count
    assert nic.dma_completed_packets == (nic.rx_packets
                                         - nic.dropped_packets)


# ---------------------------------------------------------------------------
# IOTLB invariants
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1,
                max_size=500),
       st.sampled_from([1, 2, 4, 8, None]))
def test_iotlb_occupancy_and_counters(accesses, ways):
    tlb = Iotlb(entries=16, ways=ways)
    for frame in accesses:
        tlb.access(frame << 12)
        assert tlb.occupancy <= tlb.entries
    assert tlb.hits + tlb.misses == len(accesses)
    assert 0.0 <= tlb.miss_ratio() <= 1.0


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=300))
def test_fully_associative_iotlb_never_misses_within_capacity(frames):
    # Working set (16 distinct frames) fits exactly: after one cold miss
    # per distinct frame, everything hits.
    tlb = Iotlb(entries=16)
    for frame in frames:
        tlb.access(frame << 12)
    assert tlb.misses == len(set(frames))


# ---------------------------------------------------------------------------
# Memory allocation properties
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0, max_value=200e9), min_size=1,
             max_size=10),
    st.lists(st.floats(min_value=0.1, max_value=10), min_size=10,
             max_size=10),
    st.floats(min_value=1e9, max_value=200e9),
)
def test_water_fill_properties(demands, weights, capacity):
    weights = weights[:len(demands)]
    alloc = weighted_water_fill(demands, weights, capacity)
    assert len(alloc) == len(demands)
    # No source gets more than it asked for.
    for a, d in zip(alloc, demands):
        assert a <= d + 1e-3
        assert a >= 0
    # Work conservation up to capacity.
    assert sum(alloc) <= capacity + 1e-3
    assert sum(alloc) <= sum(demands) + 1e-3
    if sum(demands) <= capacity:
        for a, d in zip(alloc, demands):
            assert abs(a - d) < 1e-3


@given(st.floats(min_value=0, max_value=2),
       st.floats(min_value=0, max_value=2))
def test_queue_delay_monotone(rho_a, rho_b):
    cfg = MemoryConfig()
    lo, hi = sorted((rho_a, rho_b))
    assert queue_delay_for(lo, cfg) <= queue_delay_for(hi, cfg)
    assert 0 <= queue_delay_for(hi, cfg) <= cfg.max_queue_delay


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1,
                                                          max_size=20))
def test_derive_seed_in_range_and_stable(seed, name):
    a = derive_seed(seed, name)
    assert 0 <= a < 2**64
    assert a == derive_seed(seed, name)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=100))
def test_lru_iotlb_matches_reference_model(seed):
    """Differential test: the IOTLB agrees with a brute-force LRU."""
    rng = _random.Random(seed)
    tlb = Iotlb(entries=8)
    reference: list[int] = []  # most recent last
    for _ in range(300):
        key = rng.randrange(20) << 12
        expected_hit = key in reference
        assert tlb.access(key) == expected_hit
        if expected_hit:
            reference.remove(key)
        reference.append(key)
        if len(reference) > 8:
            reference.pop(0)


@settings(max_examples=50)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=300),
                         max_size=8), min_size=1, max_size=60),
       st.sampled_from([1, 2, 4, 8, None]))
def test_iotlb_lookup_matches_one_by_one_access(batches, ways):
    """A priced lookup of a batch is the same accesses, one by one, in
    order: the same misses (priced as they happen), the summed cost,
    counters and cached entries."""
    batched = Iotlb(entries=16, ways=ways)
    single = Iotlb(entries=16, ways=ways)
    for batch in batches:
        keys = [frame << 12 for frame in batch]
        missed = []

        def miss_cost(key):
            missed.append(key)
            return 1000.0

        cost = batched.lookup(keys, 1.0, miss_cost)
        hits = [single.access(key) for key in keys]
        assert missed == [key for key, hit in zip(keys, hits) if not hit]
        assert cost == sum(1.0 if hit else 1000.0 for hit in hits)
    assert (batched.hits, batched.misses, batched.evictions) \
        == (single.hits, single.misses, single.evictions)
    assert [list(line) for line in batched._sets] \
        == [list(line) for line in single._sets]
