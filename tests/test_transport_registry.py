"""Tests for the transport registry (name -> CC factory map)."""

import pytest

from repro.core.config import ExperimentConfig, SwiftConfig
from repro.transport import registry
from repro.transport.registry import available, create, register
from repro.transport.swift import SwiftCC, make_cc


def test_builtins_available_in_canonical_order():
    names = available()
    assert names[:5] == ("swift", "dctcp", "cubic", "hostcc", "timely")


def test_create_builds_each_builtin():
    for name in available():
        cc = create(name, SwiftConfig())
        assert hasattr(cc, "cwnd") and cc.cwnd() > 0


def test_create_unknown_name_lists_available():
    with pytest.raises(ValueError) as err:
        create("reno", SwiftConfig())
    msg = str(err.value)
    assert "reno" in msg and "swift" in msg


def test_make_cc_back_compat_alias():
    cc = make_cc("swift", SwiftConfig(), initial_cwnd=3.0)
    assert isinstance(cc, SwiftCC)
    assert cc.cwnd() == 3.0


def test_config_validation_reads_registry():
    with pytest.raises(ValueError, match="reno"):
        ExperimentConfig(transport="reno")


def test_register_new_protocol_and_reject_collisions():
    @register("test-proto")
    class TestProtoCC:
        def __init__(self, config, initial_cwnd=2.0):
            self._cwnd = initial_cwnd

        def cwnd(self):
            return self._cwnd

    try:
        assert "test-proto" in available()
        cc = create("test-proto", SwiftConfig(), initial_cwnd=5.0)
        assert isinstance(cc, TestProtoCC) and cc.cwnd() == 5.0
        # Registered names become valid transports end to end.
        config = ExperimentConfig(transport="test-proto")
        assert config.transport == "test-proto"
        # Same name, different factory: refused.
        with pytest.raises(ValueError, match="test-proto"):
            register("test-proto")(SwiftCC)
        # Re-registering the identical factory is an idempotent no-op.
        register("test-proto")(TestProtoCC)
    finally:
        registry._FACTORIES.pop("test-proto", None)


def test_config_rejects_unknown_transport_listing_every_name():
    with pytest.raises(ValueError) as err:
        ExperimentConfig(transport="reno")
    assert str(err.value) == (f"unknown transport 'reno'; "
                              f"expected one of {available()}")
    assert not registry.is_registered("reno")
    assert all(registry.is_registered(name) for name in available())


def test_config_accepts_a_transport_registered_at_runtime():
    assert not registry.is_registered("late-proto")
    register("late-proto")(SwiftCC)
    try:
        assert ExperimentConfig(transport="late-proto").transport \
            == "late-proto"
        with pytest.raises(ValueError) as err:
            ExperimentConfig(transport="reno")
        assert "'late-proto'" in str(err.value)
    finally:
        registry._FACTORIES.pop("late-proto", None)
    with pytest.raises(ValueError, match="late-proto"):
        ExperimentConfig(transport="late-proto")
