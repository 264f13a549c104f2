"""Unit tests for packets, links, the switch port, and the fabric."""

import pytest

from repro.core.config import ExperimentConfig, LinkConfig
from repro.net.fabric import Fabric
from repro.net.link import Link
from repro.net.packet import Ack, Packet
from repro.net.plan import star_plan
from repro.net.switch import SwitchPort
from repro.sim import Simulator
from repro.sim.engine import SimulationError


def pkt(seq=0, wire=4452, flow=0, thread=0):
    return Packet(flow_id=flow, seq=seq, payload_bytes=4096,
                  wire_bytes=wire, sent_time=0.0, thread_id=thread)


class TestPacket:
    def test_host_delay_requires_timestamps(self):
        p = pkt()
        with pytest.raises(SimulationError):
            p.host_delay()
        p.nic_arrival_time = 1.0
        p.cpu_done_time = 1.5
        assert p.host_delay() == pytest.approx(0.5)

    def test_repr_is_informative(self):
        assert "flow=3" in repr(pkt(flow=3))
        assert "Ack(flow=1" in repr(
            Ack(flow_id=1, seq=2, sent_time_echo=0.0, host_delay=0.0))


class TestPacketPool:
    def setup_method(self):
        # Isolate each test from pool contents left by earlier tests.
        Packet._pool.clear()

    def teardown_method(self):
        Packet._pool.clear()

    def test_acquire_reuses_released_packet(self):
        p = Packet.acquire(flow_id=1, seq=2, payload_bytes=4096,
                           wire_bytes=4452, sent_time=0.5, thread_id=3)
        p.ecn_marked = True
        p.nic_arrival_time = 1.0
        p.dma_done_time = 1.1
        p.cpu_done_time = 1.2
        p.release()
        q = Packet.acquire(flow_id=9, seq=0, payload_bytes=100,
                           wire_bytes=164, sent_time=2.0, thread_id=0,
                           is_retransmission=True)
        assert q is p  # recycled, not reallocated
        # ... and every slot was re-stamped.
        assert (q.flow_id, q.seq, q.payload_bytes, q.wire_bytes) == \
            (9, 0, 100, 164)
        assert q.sent_time == 2.0
        assert q.thread_id == 0
        assert q.is_retransmission is True
        assert q.ecn_marked is False
        assert q.nic_arrival_time is None
        assert q.dma_done_time is None
        assert q.cpu_done_time is None

    def test_acquire_constructs_when_pool_empty(self):
        a = Packet.acquire(flow_id=0, seq=0, payload_bytes=1,
                           wire_bytes=65, sent_time=0.0, thread_id=0)
        b = Packet.acquire(flow_id=0, seq=1, payload_bytes=1,
                           wire_bytes=65, sent_time=0.0, thread_id=0)
        assert a is not b

    def test_double_release_raises(self):
        p = pkt()
        p.release()
        with pytest.raises(SimulationError, match="double release"):
            p.release()

    def test_released_packet_host_delay_unstamped(self):
        # A recycled packet must not leak the previous life's timestamps
        # into host_delay().
        p = pkt()
        p.nic_arrival_time = 1.0
        p.cpu_done_time = 2.0
        p.release()
        q = Packet.acquire(flow_id=0, seq=0, payload_bytes=1,
                           wire_bytes=65, sent_time=0.0, thread_id=0)
        assert q is p
        with pytest.raises(SimulationError):
            q.host_delay()

    def test_pool_is_bounded(self):
        from repro.net.packet import _POOL_LIMIT
        Packet._pool.extend(pkt(seq=i) for i in range(_POOL_LIMIT))
        overflow = pkt(seq=-1)
        overflow.release()  # no room: dropped for the GC, no error
        assert len(Packet._pool) == _POOL_LIMIT
        assert overflow not in Packet._pool


class TestLink:
    def test_delivery_after_serialization_and_propagation(self):
        sim = Simulator()
        got = []
        link = Link(sim, rate_bps=100e9, prop_delay=10e-6,
                    deliver=got.append)
        p = pkt()
        arrival = link.send(p, p.wire_bytes)
        expected = 4452 * 8 / 100e9 + 10e-6
        assert arrival == pytest.approx(expected)
        sim.run()
        assert got == [p]
        assert sim.now == pytest.approx(expected)

    def test_back_to_back_sends_serialize(self):
        sim = Simulator()
        link = Link(sim, 100e9, 0.0, deliver=lambda p: None)
        a1 = link.send(pkt(0), 4452)
        a2 = link.send(pkt(1), 4452)
        assert a2 - a1 == pytest.approx(4452 * 8 / 100e9)

    def test_ordering_preserved(self):
        sim = Simulator()
        got = []
        link = Link(sim, 100e9, 5e-6, deliver=got.append)
        for i in range(5):
            link.send(pkt(i), 4452)
        sim.run()
        assert [p.seq for p in got] == list(range(5))

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0, 0.0, deliver=lambda p: None)
        with pytest.raises(ValueError):
            Link(sim, 1e9, -1.0, deliver=lambda p: None)
        link = Link(sim, 1e9, 0.0, deliver=lambda p: None)
        with pytest.raises(ValueError):
            link.send(pkt(), 0)


class TestSwitchPort:
    def make(self, rate=100e9, buffer_bytes=10**7, ecn=None):
        sim = Simulator()
        got = []
        port = SwitchPort(sim, rate, buffer_bytes, prop_delay=1e-6,
                          deliver=got.append, ecn_threshold_bytes=ecn)
        return sim, port, got

    def test_forwarding(self):
        sim, port, got = self.make()
        port.enqueue(pkt())
        sim.run()
        assert len(got) == 1
        assert sim.now == pytest.approx(4452 * 8 / 100e9 + 1e-6)

    def test_serializes_at_port_rate(self):
        sim, port, got = self.make()
        n = 100
        for i in range(n):
            port.enqueue(pkt(i))
        sim.run()
        # Last delivery at n*tx + prop.
        expected = n * 4452 * 8 / 100e9 + 1e-6
        assert sim.now == pytest.approx(expected)
        assert [p.seq for p in got] == list(range(n))

    def test_finite_buffer_drops(self):
        sim, port, got = self.make(buffer_bytes=10000)
        for i in range(5):
            port.enqueue(pkt(i))
        sim.run()
        assert port.dropped >= 1
        assert len(got) < 5

    def test_ecn_marking_above_threshold(self):
        sim, port, got = self.make(ecn=8000)
        for i in range(5):
            port.enqueue(pkt(i))
        sim.run()
        marked = [p for p in got if p.ecn_marked]
        unmarked = [p for p in got if not p.ecn_marked]
        assert marked and unmarked

    def test_no_ecn_when_disabled(self):
        sim, port, got = self.make()
        for i in range(5):
            port.enqueue(pkt(i))
        sim.run()
        assert not any(p.ecn_marked for p in got)


class TestFabric:
    """The one-receiver star: flow ``i`` rides sender ``i``."""

    def make(self, n_senders=3):
        sim = Simulator()
        delivered = []
        fabric = Fabric(sim, ExperimentConfig(), star_plan(n_senders, 1),
                        [delivered.append])
        for flow in range(n_senders):
            fabric.register_flow(flow, lambda ack: None)
        return sim, fabric, delivered

    def test_needs_a_sender(self):
        with pytest.raises(ValueError, match="at least one sender"):
            star_plan(0, 1)

    def test_end_to_end_one_way_delay(self):
        sim, fabric, delivered = self.make()
        fabric.send_packet(0, pkt())
        sim.run()
        # serialization twice (sender link + port) + one-way prop.
        tx = 4452 * 8 / 100e9
        assert sim.now == pytest.approx(10e-6 + 2 * tx)
        assert len(delivered) == 1

    def test_ack_routing_to_registered_flow(self):
        sim, fabric, _ = self.make()
        got = []
        fabric.register_flow(7, got.append)
        ack = Ack(flow_id=7, seq=1, sent_time_echo=0.0, host_delay=0.0)
        fabric.route_ack(ack, 0.0)
        sim.run()
        assert got == [ack]
        assert sim.now == pytest.approx(10e-6)

    def test_ack_arrives_one_way_delay_after_its_wire_time(self):
        sim, fabric, _ = self.make()
        got = []
        fabric.register_flow(7, lambda ack: got.append(sim.now))
        sim.run(until=1e-6)
        wire_time = 1e-6 + 0.3e-6
        fabric.route_ack(
            Ack(flow_id=7, seq=1, sent_time_echo=0.0, host_delay=0.0),
            wire_time)
        sim.run()
        # The very float a hop-by-hop schedule gives: a call of
        # one_way_delay made at the wire time.
        assert got == [wire_time + LinkConfig().one_way_delay]

    def test_ack_for_unknown_flow_raises(self):
        sim, fabric, _ = self.make()
        with pytest.raises(KeyError, match="unknown flow 99"):
            fabric.route_ack(
                Ack(flow_id=99, seq=0, sent_time_echo=0.0, host_delay=0.0),
                0.0)

    def test_duplicate_flow_registration_rejected(self):
        _, fabric, _ = self.make()
        fabric.register_flow(5, lambda a: None)
        with pytest.raises(ValueError):
            fabric.register_flow(5, lambda a: None)

    def test_incast_aggregates_at_port(self):
        sim, fabric, delivered = self.make(n_senders=3)
        for sender in range(3):
            for i in range(10):
                fabric.send_packet(sender, pkt(seq=i, flow=sender))
        sim.run()
        assert len(delivered) == 30
        assert fabric.fabric_drops() == 0
