"""Unit tests for the tracing facility."""

import pytest

from repro.sim import Simulator, Tracer
from repro.sim.tracing import TraceRecord


def test_disabled_tracer_records_nothing():
    sim = Simulator()
    tracer = Tracer(sim, enabled=False)
    tracer.emit("nic", "drop", seq=1)
    assert tracer.records == []


def test_enabled_tracer_records_with_time():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    sim.call(5e-6, tracer.emit, "nic", "drop")
    sim.run()
    (record,) = tracer.records
    assert record.time == 5e-6
    assert record.component == "nic"
    assert record.event == "drop"


def test_filter_by_component_and_event():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    tracer.emit("nic", "drop")
    tracer.emit("nic", "dma_start")
    tracer.emit("cpu", "drop")
    assert len(tracer.filter(component="nic")) == 2
    assert len(tracer.filter(event="drop")) == 2
    assert len(tracer.filter(component="nic", event="drop")) == 1


def test_max_records_cap():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True, max_records=3)
    with pytest.warns(RuntimeWarning, match="tracer ring full"):
        for i in range(10):
            tracer.emit("x", "e", i=i)
    assert len(tracer.records) == 3
    assert tracer.dropped == 7


def test_sink_receives_all_records_despite_cap():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True, max_records=1)
    seen = []
    tracer.add_sink(seen.append)
    with pytest.warns(RuntimeWarning, match="tracer ring full"):
        tracer.emit("x", "a")
        tracer.emit("x", "b")
    assert len(seen) == 2
    assert len(tracer.records) == 1


def test_record_str_format():
    record = TraceRecord(1e-6, "nic", "drop", {"seq": 3})
    text = str(record)
    assert "nic.drop" in text
    assert "seq=3" in text


def test_clear():
    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    tracer.emit("x", "a")
    tracer.clear()
    assert tracer.records == []


def test_nic_emits_trace_events_when_enabled():
    """Integration: the NIC datapath feeds the tracer."""
    import random

    from repro.core.config import HostConfig
    from repro.host import ReceiverHost
    from repro.net.packet import Packet

    sim = Simulator()
    tracer = Tracer(sim, enabled=True)
    host = ReceiverHost(sim, HostConfig(), random.Random(0),
                        tracer=tracer)
    host.attach_ack_egress(lambda ack, wire_time: None)
    host.attach_receiver(lambda p: None)
    host.deliver_packet(Packet(0, 0, 4096, 4452, 0.0, 0))
    sim.run(until=1e-4)
    assert tracer.filter(component="nic", event="dma_start")
    assert tracer.filter(component="nic", event="dma_done")
