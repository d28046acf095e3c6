"""Tests for the RPC layer (dispatch, error propagation, loopback)."""

import pytest

from repro.net.message import Message
from repro.net.rpc import (
    LoopbackTransport,
    ServiceRegistry,
    decode_error,
    encode_error,
)
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import (
    NotFoundError,
    ProtocolError,
    RateLimitExceeded,
    ReproError,
)


@pytest.fixture()
def registry():
    reg = ServiceRegistry()
    reg.register("echo", lambda payload: payload)
    reg.register("upper", lambda payload: payload.upper())

    def fail(_payload):
        raise NotFoundError("no such thing")

    reg.register("fail", fail)
    return reg


class TestRegistry:
    def test_dispatch(self, registry):
        response = registry.dispatch(Message(1, "echo", False, b"hi"))
        assert not response.is_error
        assert response.payload == b"hi"
        assert response.message_id == 1

    def test_unknown_method(self, registry):
        response = registry.dispatch(Message(2, "nope", False, b""))
        assert response.is_error
        assert isinstance(decode_error(response.payload), ProtocolError)

    def test_double_registration_rejected(self, registry):
        with pytest.raises(ProtocolError):
            registry.register("echo", lambda p: p)

    def test_methods_listing(self, registry):
        assert registry.methods() == ["echo", "fail", "upper"]

    def test_handler_exception_becomes_error_reply(self, registry):
        response = registry.dispatch(Message(3, "fail", False, b""))
        assert response.is_error
        err = decode_error(response.payload)
        assert isinstance(err, NotFoundError)
        assert "no such thing" in str(err)


class TestErrorCodec:
    def test_known_error_roundtrip(self):
        err = decode_error(encode_error(RateLimitExceeded("slow down")))
        assert isinstance(err, RateLimitExceeded)
        assert "slow down" in str(err)

    def test_unknown_error_degrades_to_base(self):
        err = decode_error(encode_error(ValueError("odd")))
        assert type(err) is ReproError


class TestLoopback:
    def test_call(self, registry):
        client = LoopbackTransport(registry).client()
        assert client.call("upper", b"abc") == b"ABC"

    def test_error_raised_client_side(self, registry):
        client = LoopbackTransport(registry).client()
        with pytest.raises(NotFoundError):
            client.call("fail")

    def test_unknown_method_raises(self, registry):
        client = LoopbackTransport(registry).client()
        with pytest.raises(ProtocolError):
            client.call("missing")

    def test_message_hook_sees_bytes(self, registry):
        seen = []
        transport = LoopbackTransport(
            registry, on_message=lambda req, resp: seen.append((len(req), len(resp)))
        )
        transport.client().call("echo", b"payload")
        assert len(seen) == 1
        assert seen[0][0] > 0 and seen[0][1] > 0

    def test_ids_increment(self, registry):
        client = LoopbackTransport(registry).client()
        client.call("echo", b"1")
        client.call("echo", b"2")  # would fail on id mismatch


class TestCounters:
    def test_client_counts_calls_and_errors(self, registry):
        metrics = MetricsRegistry()
        client = LoopbackTransport(registry, metrics=metrics).client()
        client.call("echo", b"a")
        client.call("upper", b"b")
        with pytest.raises(NotFoundError):
            client.call("fail")
        assert metrics.value("rpc_client_requests_total") == 3
        assert metrics.value("rpc_client_errors_total") == 1
        assert metrics.value("rpc_client_errors_total", method="fail") == 1

    def test_transport_counts_messages(self, registry):
        metrics = MetricsRegistry()
        transport = LoopbackTransport(registry, metrics=metrics)
        first = transport.client()
        second = transport.client()
        first.call("echo", b"x")
        second.call("echo", b"y")
        # Every client of one transport reports on its registry.
        assert metrics.value("rpc_client_requests_total", method="echo") == 2

    def test_transport_counts_bytes_with_hook(self, registry):
        wire = []
        transport = LoopbackTransport(
            registry, on_message=lambda req, resp: wire.append((req, resp))
        )
        transport.client().call("echo", b"payload")
        [(request, response)] = wire
        assert Message.decode(request).payload == b"payload"
        assert Message.decode(response).payload == b"payload"
