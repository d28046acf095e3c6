"""Concurrency behaviour of the TCP server: worker pool, graceful
shutdown, oversize-frame guard, and the ``tcp_*`` series."""

import socket
import struct
import threading
import time

import pytest

from repro.net.message import MAX_MESSAGE_BYTES, frame, read_frame
from repro.net.rpc import ServiceRegistry
from repro.net.tcp import TcpConnection, TcpServer, _recv_exact
from repro.util.errors import ConfigurationError, ProtocolError


def make_registry(handlers=None):
    registry = ServiceRegistry()
    registry.register("echo", lambda p: p)
    for name, handler in (handlers or {}).items():
        registry.register(name, handler)
    return registry


@pytest.fixture()
def server_factory():
    """Start servers that are reliably stopped at test end."""
    servers = []

    def start(registry, **kwargs):
        server = TcpServer(registry, **kwargs)
        server.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


class TestConcurrency:
    def test_connections_served_in_parallel(self, server_factory):
        """With a 4-worker pool, 4 clients blocked inside a handler at
        the same time prove connections do not serialize behind each
        other."""
        inside = threading.Semaphore(0)
        release = threading.Event()

        def slow(payload):
            inside.release()
            assert release.wait(timeout=5.0)
            return payload

        server = server_factory(make_registry({"slow": slow}), max_workers=4)
        connections = [TcpConnection(*server.address) for _ in range(4)]
        try:
            threads = [
                threading.Thread(target=conn.client().call, args=("slow", b"x"))
                for conn in connections
            ]
            for thread in threads:
                thread.start()
            for _ in range(4):  # all four are inside the handler at once
                assert inside.acquire(timeout=5.0)
            assert server.metrics.value("tcp_in_flight_requests") == 4
            release.set()
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            release.set()
            for conn in connections:
                conn.close()

    def test_excess_connections_queue_not_fail(self, server_factory):
        """More clients than workers: a worker owns a connection until
        the client hangs up, so the surplus waits for a freed worker
        instead of erroring."""
        server = server_factory(make_registry(), max_workers=2)
        results = []

        def one_shot(i):
            connection = TcpConnection(*server.address)
            try:
                results.append(connection.client().call("echo", bytes([i])))
            finally:
                connection.close()

        threads = [
            threading.Thread(target=one_shot, args=(i,)) for i in range(5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert sorted(results) == [bytes([i]) for i in range(5)]
        assert server.metrics.value("tcp_connections_accepted_total") == 5

    def test_responses_in_request_order_per_connection(self, server_factory):
        server = server_factory(make_registry(), max_workers=4)
        connection = TcpConnection(*server.address)
        try:
            client = connection.client()
            for i in range(32):
                assert client.call("echo", bytes([i])) == bytes([i])
        finally:
            connection.close()


class TestGracefulShutdown:
    def test_drain_lets_in_flight_request_finish(self, server_factory):
        started = threading.Event()

        def slow(payload):
            started.set()
            time.sleep(0.2)
            return payload

        server = server_factory(make_registry({"slow": slow}), max_workers=2)
        connection = TcpConnection(*server.address)
        result = []
        thread = threading.Thread(
            target=lambda: result.append(connection.client().call("slow", b"done"))
        )
        thread.start()
        assert started.wait(timeout=5.0)
        server.stop(drain=True, timeout=5.0)
        thread.join(timeout=5.0)
        connection.close()
        assert result == [b"done"]

    def test_undrained_stop_drops_connections(self, server_factory):
        server = server_factory(make_registry())
        connection = TcpConnection(*server.address)
        client = connection.client()
        assert client.call("echo", b"up") == b"up"
        server.stop()
        with pytest.raises((ProtocolError, OSError)):
            client.call("echo", b"down")
        connection.close()

    def test_stop_twice_is_safe(self, server_factory):
        server = server_factory(make_registry())
        server.stop(drain=True)
        server.stop()

    def test_no_new_connections_after_stop(self, server_factory):
        server = server_factory(make_registry())
        address = server.address
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)


class TestMaxMessageSize:
    def test_oversized_frame_drops_connection(self, server_factory):
        server = server_factory(make_registry(), max_message_bytes=1024)
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            # A raw frame header announcing more than the server accepts:
            # the connection must die *without* the 2 KiB ever being read.
            sock.sendall(struct.pack(">I", 2048))
            assert sock.recv(1) == b""  # orderly close by the server
        finally:
            sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.metrics.value("tcp_oversize_drops_total") == 1:
                break
            time.sleep(0.01)
        assert server.metrics.value("tcp_oversize_drops_total") == 1

    def test_frames_at_the_limit_pass(self, server_factory):
        limit = 4096
        server = server_factory(make_registry(), max_message_bytes=limit)
        connection = TcpConnection(*server.address)
        try:
            # Leave room for the Message envelope around the payload.
            payload = b"a" * (limit - 256)
            assert connection.client().call("echo", payload) == payload
        finally:
            connection.close()

    def test_client_side_limit_unchanged(self, server_factory):
        """The per-server cap only narrows *that server's* inbound
        frames; the protocol-wide bound still applies elsewhere."""
        server = server_factory(make_registry())
        connection = TcpConnection(*server.address)
        try:
            big = b"b" * 100_000  # far over 1 KiB, far under MAX_MESSAGE_BYTES
            assert connection.client().call("echo", big) == big
        finally:
            connection.close()

    def test_read_frame_rejects_above_bound(self):
        from repro.util.errors import CorruptionError

        def take(n, state={"buf": frame(b"z" * 64)}):
            out, state["buf"] = state["buf"][:n], state["buf"][n:]
            return out

        assert read_frame(take) == b"z" * 64
        oversized = struct.pack(">I", MAX_MESSAGE_BYTES + 1)
        with pytest.raises(CorruptionError):
            read_frame(lambda n, s={"buf": oversized}: s["buf"][:n])


class TestValidationAndStats:
    def test_bad_config_rejected(self):
        registry = make_registry()
        with pytest.raises(ConfigurationError):
            TcpServer(registry, max_workers=0)
        with pytest.raises(ConfigurationError):
            TcpServer(registry, max_message_bytes=0)
        with pytest.raises(ConfigurationError):
            TcpServer(registry, max_message_bytes=MAX_MESSAGE_BYTES + 1)

    def test_stats_shape(self, server_factory):
        server = server_factory(make_registry(), max_workers=3)
        connection = TcpConnection(*server.address)
        try:
            client = connection.client()
            client.call("echo", b"one")
            client.call("echo", b"two")
            value = server.metrics.value
            assert value("tcp_connections_accepted_total") == 1
            assert value("tcp_active_connections") == 1
            assert value("tcp_requests_total") == 2
            assert value("tcp_oversize_drops_total") == 0
            assert value("tcp_max_workers") == 3
            # A request stays in flight until its response flush returns,
            # which can trail the client's read by a moment.
            deadline = time.monotonic() + 5.0
            while value("tcp_in_flight_requests") and time.monotonic() < deadline:
                time.sleep(0.001)
            assert value("tcp_in_flight_requests") == 0
        finally:
            connection.close()

    def test_recv_exact_detects_early_close(self):
        state = {"buf": b"ab"}

        class FakeSock:
            def recv(self, n):
                out, state["buf"] = state["buf"][:n], state["buf"][n:]
                return out

        with pytest.raises(ProtocolError):
            _recv_exact(FakeSock(), 4)
