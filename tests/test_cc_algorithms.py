"""Unit tests for the congestion-control algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SwiftConfig
from repro.net.packet import Ack
from repro.transport.cubic import CubicCC
from repro.transport.dctcp import DctcpCC
from repro.transport.hostcc import HostSignalCC
from repro.transport.swift import SwiftCC, make_cc


def ack(host_delay=5e-6, ecn=False, buffer_fraction=0.0, mem_util=0.0):
    a = Ack(flow_id=0, seq=0, sent_time_echo=0.0, host_delay=host_delay,
            ecn_echo=ecn)
    a.nic_buffer_fraction = buffer_fraction
    a.memory_utilization = mem_util
    return a


BASE_RTT = 25e-6


class TestSwift:
    def test_increase_below_targets(self):
        cc = SwiftCC(SwiftConfig(), initial_cwnd=2.0)
        before = cc.cwnd()
        cc.on_ack(BASE_RTT, ack(host_delay=5e-6), now=1e-3)
        assert cc.cwnd() > before

    def test_decrease_when_host_delay_exceeds_target(self):
        cfg = SwiftConfig()
        cc = SwiftCC(cfg, initial_cwnd=4.0)
        before = cc.cwnd()
        cc.on_ack(BASE_RTT + 300e-6, ack(host_delay=300e-6), now=1e-3)
        assert cc.cwnd() < before
        assert cc.host_triggered_decreases == 1

    def test_decrease_proportional_to_excess_and_capped(self):
        cfg = SwiftConfig(beta=0.8, max_mdf=0.5)
        cc = SwiftCC(cfg, initial_cwnd=4.0)
        cc.on_ack(BASE_RTT + 10e-3, ack(host_delay=10e-3), now=1e-3)
        # Huge excess: capped at max_mdf.
        assert cc.cwnd() == pytest.approx(4.0 * 0.5)

    def test_decrease_at_most_once_per_rtt(self):
        cc = SwiftCC(SwiftConfig(), initial_cwnd=4.0)
        cc.on_ack(BASE_RTT + 300e-6, ack(host_delay=300e-6), now=1e-3)
        mid = cc.cwnd()
        cc.on_ack(BASE_RTT + 300e-6, ack(host_delay=300e-6),
                  now=1e-3 + 1e-6)
        assert cc.cwnd() == mid  # too soon to decrease again

    def test_blind_below_host_target(self):
        # Host delay of 90 µs is under the 100 µs target: Swift keeps
        # increasing — the paper's blind spot.
        cc = SwiftCC(SwiftConfig(), initial_cwnd=2.0)
        before = cc.cwnd()
        cc.on_ack(BASE_RTT + 90e-6, ack(host_delay=90e-6), now=1e-3)
        assert cc.cwnd() > before

    def test_fabric_hold_band_neither_grows_nor_cuts(self):
        cfg = SwiftConfig(hold_threshold=0.85, flow_scaling_alpha=0.0)
        cc = SwiftCC(cfg, initial_cwnd=2.0)
        # fabric delay at 0.9 of target: hold.
        fabric_delay = 0.9 * cfg.fabric_target
        before = cc.cwnd()
        cc.on_ack(fabric_delay + 1e-6, ack(host_delay=1e-6), now=1e-3)
        assert cc.cwnd() == before

    def test_flow_scaling_raises_target_for_small_windows(self):
        cfg = SwiftConfig()
        small = SwiftCC(cfg, initial_cwnd=cfg.min_cwnd)
        large = SwiftCC(cfg, initial_cwnd=64.0)
        assert small.fabric_target() > large.fabric_target()
        assert small.fabric_target() <= (cfg.fabric_target
                                         + cfg.flow_scaling_max)

    def test_loss_cut(self):
        cfg = SwiftConfig(max_mdf=0.5)
        cc = SwiftCC(cfg, initial_cwnd=4.0)
        cc.on_loss(now=1e-3)
        assert cc.cwnd() == pytest.approx(2.0)

    def test_timeout_collapses_to_min(self):
        cfg = SwiftConfig()
        cc = SwiftCC(cfg, initial_cwnd=4.0)
        cc.on_timeout(now=1e-3)
        assert cc.cwnd() == cfg.min_cwnd

    def test_cwnd_clamped_to_bounds(self):
        cfg = SwiftConfig(min_cwnd=0.1, max_cwnd=8.0)
        cc = SwiftCC(cfg, initial_cwnd=100.0)
        assert cc.cwnd() == 8.0
        for _ in range(100):
            cc.on_timeout(now=1.0)
        assert cc.cwnd() >= 0.1


class TestDctcp:
    def test_grows_without_marks(self):
        cc = DctcpCC(SwiftConfig(), initial_cwnd=2.0)
        before = cc.cwnd()
        for i in range(5):
            cc.on_ack(BASE_RTT, ack(), now=i * 1e-4)
        assert cc.cwnd() > before

    def test_alpha_rises_with_marks_and_cuts(self):
        cc = DctcpCC(SwiftConfig(), initial_cwnd=8.0)
        for i in range(50):
            cc.on_ack(BASE_RTT, ack(ecn=True), now=i * 1e-4)
        assert cc.alpha > 0.5
        assert cc.cwnd() < 8.0

    def test_ignores_host_delay(self):
        # DCTCP is blind to host congestion: huge host delay, no ECN.
        cc = DctcpCC(SwiftConfig(), initial_cwnd=2.0)
        before = cc.cwnd()
        cc.on_ack(BASE_RTT + 10e-3, ack(host_delay=10e-3), now=1e-3)
        assert cc.cwnd() > before

    def test_loss_halves_once_per_rtt(self):
        cc = DctcpCC(SwiftConfig(), initial_cwnd=8.0)
        cc.on_loss(now=1e-3)
        assert cc.cwnd() == pytest.approx(4.0)
        cc.on_loss(now=1e-3 + 1e-6)
        assert cc.cwnd() == pytest.approx(4.0)


class TestCubic:
    def test_grows_toward_cubic_target(self):
        cc = CubicCC(SwiftConfig(), initial_cwnd=2.0)
        before = cc.cwnd()
        for i in range(20):
            cc.on_ack(BASE_RTT, ack(), now=i * 1e-3)
        assert cc.cwnd() > before

    def test_loss_applies_beta(self):
        cc = CubicCC(SwiftConfig(), initial_cwnd=10.0)
        cc.on_loss(now=1e-3)
        assert cc.cwnd() == pytest.approx(7.0)

    def test_ignores_delay_entirely(self):
        cc = CubicCC(SwiftConfig(), initial_cwnd=2.0)
        before = cc.cwnd()
        cc.on_ack(BASE_RTT + 50e-3, ack(host_delay=50e-3), now=1e-3)
        assert cc.cwnd() >= before

    def test_timeout_collapse_and_recovery_epoch(self):
        cc = CubicCC(SwiftConfig(), initial_cwnd=10.0)
        cc.on_timeout(now=1e-3)
        assert cc.cwnd() == SwiftConfig().min_cwnd
        cc.on_ack(BASE_RTT, ack(), now=2e-3)
        assert cc.cwnd() >= SwiftConfig().min_cwnd


class TestHostSignal:
    def test_sub_rtt_response_to_buffer_signal(self):
        cc = HostSignalCC(SwiftConfig(), initial_cwnd=4.0)
        before = cc.cwnd()
        cc.on_ack(BASE_RTT, ack(buffer_fraction=0.9), now=1e-3)
        assert cc.cwnd() < before
        assert cc.signal_decreases == 1
        # A second cut within the holdoff does nothing...
        mid = cc.cwnd()
        cc.on_ack(BASE_RTT, ack(buffer_fraction=0.9), now=1e-3 + 1e-6)
        assert cc.cwnd() == mid
        # ...but after the 10 µs holdoff (≪ RTT) it cuts again: sub-RTT.
        cc.on_ack(BASE_RTT, ack(buffer_fraction=0.9), now=1e-3 + 11e-6)
        assert cc.cwnd() < mid

    def test_no_signal_behaves_like_swift(self):
        swift = SwiftCC(SwiftConfig(), initial_cwnd=2.0)
        hostcc = HostSignalCC(SwiftConfig(), initial_cwnd=2.0)
        for i in range(5):
            swift.on_ack(BASE_RTT, ack(), now=i * 1e-4)
            hostcc.on_ack(BASE_RTT, ack(), now=i * 1e-4)
        assert hostcc.cwnd() == pytest.approx(swift.cwnd())

    def test_memory_saturation_suppresses_growth(self):
        cc = HostSignalCC(SwiftConfig(), initial_cwnd=2.0)
        before = cc.cwnd()
        cc.on_ack(BASE_RTT, ack(mem_util=0.99), now=1e-3)
        assert cc.cwnd() <= before


def test_make_cc_factory():
    cfg = SwiftConfig()
    assert isinstance(make_cc("swift", cfg), SwiftCC)
    assert isinstance(make_cc("dctcp", cfg), DctcpCC)
    assert isinstance(make_cc("cubic", cfg), CubicCC)
    assert isinstance(make_cc("hostcc", cfg), HostSignalCC)
    with pytest.raises(ValueError):
        make_cc("reno", cfg)


class _OracleSwift(SwiftCC):
    """SwiftCC with the builtin ``min``/``max`` forms of its clamp,
    fabric target and ACK handler: the reference the spelled-out
    comparisons must match bit for bit."""

    def _clamp(self):
        cfg = self.config
        self._cwnd = min(max(self._cwnd, cfg.min_cwnd), cfg.max_cwnd)

    def fabric_target(self):
        cfg = self.config
        scaling = min(
            cfg.flow_scaling_alpha / max(self._cwnd, cfg.min_cwnd) ** 0.5,
            cfg.flow_scaling_max,
        )
        return cfg.fabric_target + scaling

    def on_ack(self, rtt, ack, now):
        cfg = self.config
        self._srtt += 0.125 * (rtt - self._srtt)
        host_delay = ack.host_delay
        fabric_delay = max(rtt - host_delay, 0.0)
        host_ratio = host_delay / cfg.host_target
        fabric_ratio = fabric_delay / self.fabric_target()
        ratio = max(host_ratio, fabric_ratio)
        if host_ratio <= 1.0 and fabric_ratio <= cfg.hold_threshold:
            self._cwnd += cfg.additive_increase / max(self._cwnd, 1.0)
            self.increases += 1
        elif ratio <= 1.0:
            pass
        elif self._can_decrease(now):
            excess = (ratio - 1.0) / ratio
            factor = max(1.0 - cfg.beta * excess, 1.0 - cfg.max_mdf)
            self._cwnd *= factor
            self._last_decrease = now
            self.decreases += 1
            if host_ratio >= fabric_ratio:
                self.host_triggered_decreases += 1
        self._clamp()


def _swift_state(cc):
    # repr() tells -0.0 from 0.0 and compares NaN to itself.
    return tuple(repr(value) for value in (
        cc._cwnd, cc._srtt, cc._last_decrease, cc.increases,
        cc.decreases, cc.host_triggered_decreases))


_DELAY = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-6, 25e-6, 100e-6, 1e-3]),
    st.floats(min_value=0.0, max_value=2e-3))


@settings(max_examples=200, deadline=None)
@given(config=st.sampled_from([
           SwiftConfig(),
           SwiftConfig(hold_threshold=1.0, flow_scaling_max=0.0),
           SwiftConfig(beta=2.0, min_cwnd=1.0, max_cwnd=1.0)]),
       initial=st.one_of(st.sampled_from(["min", "max", 1.0]),
                         st.floats(min_value=1e-3, max_value=512.0)),
       data=st.data())
def test_swift_on_ack_matches_min_max_oracle(config, initial, data):
    """Ties included: cwnd at ``min_cwnd``, host and fabric ratios of
    exactly 1.0, and ``rtt == host_delay`` (zero fabric delay)."""
    if initial == "min":
        initial = config.min_cwnd
    elif initial == "max":
        initial = config.max_cwnd
    cc = SwiftCC(config, initial_cwnd=initial)
    oracle = _OracleSwift(config, initial_cwnd=initial)
    assert _swift_state(cc) == _swift_state(oracle)
    now = 0.0
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        kind = data.draw(st.sampled_from(
            ["free", "host_tie", "fabric_tie", "no_fabric", "at_min"]))
        host_delay = data.draw(_DELAY)
        rtt = data.draw(_DELAY)
        if kind == "host_tie":
            host_delay = config.host_target
        elif kind == "fabric_tie":
            host_delay = 0.0
            rtt = cc.fabric_target()
        elif kind == "no_fabric":
            rtt = host_delay
        elif kind == "at_min":
            cc._cwnd = oracle._cwnd = config.min_cwnd
        now += data.draw(st.sampled_from([0.0, 1e-6, 25e-6, 1e-3]))
        cc.on_ack(rtt, ack(host_delay=host_delay), now)
        oracle.on_ack(rtt, ack(host_delay=host_delay), now)
        assert _swift_state(cc) == _swift_state(oracle)
