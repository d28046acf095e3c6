"""TcpServer behaviour: same-socket concurrent dispatch,
idle/dead-peer drops, per-connection backpressure windows, and drain."""

import socket
import threading
import time

import pytest

from repro.net.tcp import TcpServer
from repro.net.message import Message, frame, read_frame
from repro.net.rpc import ServiceRegistry
from repro.net.tcp import TcpConnection, _recv_exact
from repro.util.errors import ConfigurationError


def make_registry(handlers=None):
    registry = ServiceRegistry()
    registry.register("echo", lambda p: p)
    for name, handler in (handlers or {}).items():
        registry.register(name, handler)
    return registry


@pytest.fixture()
def server_factory():
    servers = []

    def start(registry, **kwargs):
        server = TcpServer(registry, **kwargs)
        server.start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


def send_request(sock, message_id, method, payload=b""):
    message = Message(
        message_id=message_id, method=method, is_error=False, payload=payload
    )
    sock.sendall(frame(message.encode()))


def recv_response(sock):
    return Message.decode(read_frame(lambda n: _recv_exact(sock, n)))


class TestSameSocketConcurrency:
    def test_slow_request_does_not_block_next_on_same_socket(
        self, server_factory
    ):
        """The tentpole property: two requests pipelined down ONE socket,
        the first parked in a slow handler — the second's response comes
        back first."""
        release = threading.Event()

        def block(payload):
            assert release.wait(timeout=5.0)
            return payload

        server = server_factory(make_registry({"block": block}), max_workers=4)
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            send_request(sock, 1, "block", b"slow")
            send_request(sock, 2, "echo", b"fast")
            first = recv_response(sock)
            assert (first.message_id, first.payload) == (2, b"fast")
            release.set()
            second = recv_response(sock)
            assert (second.message_id, second.payload) == (1, b"slow")
        finally:
            release.set()
            sock.close()
        value = server.metrics.counter(
            "tcp_out_of_order_responses_total", ""
        ).value
        assert value >= 1

    def test_connection_window_applies_backpressure(self, server_factory):
        """With a window of 2, the server stops *reading* the socket at 2
        in-flight requests — the third frame sits unread until one
        completes."""
        release = threading.Event()
        entered = threading.Semaphore(0)

        def block(payload):
            entered.release()
            assert release.wait(timeout=5.0)
            return payload

        server = server_factory(
            make_registry({"block": block}),
            max_workers=8,
            connection_window=2,
        )
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            for i in range(1, 4):
                send_request(sock, i, "block", b"x")
            for _ in range(2):
                assert entered.acquire(timeout=5.0)
            # The third request must NOT be dispatched while the window
            # is full.
            assert not entered.acquire(timeout=0.3)
            assert server.stats()["in_flight_requests"] == 2
            release.set()
            # Once a slot frees, the third request dispatches after all.
            assert entered.acquire(timeout=5.0)
            for _ in range(3):
                recv_response(sock)
        finally:
            release.set()
            sock.close()


class TestDeadPeerProtection:
    def test_idle_connection_dropped_and_counted(self, server_factory):
        server = server_factory(make_registry(), idle_timeout=0.2)
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            # Send nothing: the idle read timeout must drop us.
            assert sock.recv(1) == b""
        finally:
            sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.stats()["idle_drops"] == 1:
                break
            time.sleep(0.01)
        assert server.stats()["idle_drops"] == 1

    def test_stall_mid_frame_dropped(self, server_factory):
        server = server_factory(make_registry(), idle_timeout=0.2)
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            sock.sendall((100).to_bytes(4, "big") + b"only-part")
            assert sock.recv(1) == b""
        finally:
            sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.stats()["idle_drops"] == 1:
                break
            time.sleep(0.01)
        assert server.stats()["idle_drops"] == 1

    def test_disconnect_mid_frame_is_clean(self, server_factory):
        """A peer that dies halfway through a frame must not wedge the
        server or leak the connection."""
        server = server_factory(make_registry())
        sock = socket.create_connection(server.address, timeout=5.0)
        sock.sendall((100).to_bytes(4, "big") + b"half")
        sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.stats()["active_connections"] == 0:
                break
            time.sleep(0.01)
        assert server.stats()["active_connections"] == 0
        # And the server still serves new clients.
        connection = TcpConnection(*server.address)
        try:
            assert connection.client().call("echo", b"alive") == b"alive"
        finally:
            connection.close()


class TestValidation:
    def test_bad_config_rejected(self):
        registry = make_registry()
        with pytest.raises(ConfigurationError):
            TcpServer(registry, idle_timeout=0.0)
        with pytest.raises(ConfigurationError):
            TcpServer(registry, connection_window=0)

    def test_stop_before_start_releases_port(self):
        server = TcpServer(make_registry())
        address = server.address
        server.stop()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)


class TestDrain:
    def test_drain_flushes_every_in_flight_response(self, server_factory):
        """Eight slow requests in flight on one socket when stop(drain)
        lands: all eight responses must still arrive."""
        started = threading.Semaphore(0)

        def slow(payload):
            started.release()
            time.sleep(0.2)
            return payload

        server = server_factory(make_registry({"slow": slow}), max_workers=8)
        connection = TcpConnection(*server.address)
        results = []

        def one(i):
            results.append(connection.client().call("slow", bytes([i])))

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for _ in range(8):
            assert started.acquire(timeout=5.0)
        server.stop(drain=True, timeout=10.0)
        for thread in threads:
            thread.join(timeout=5.0)
        connection.close()
        assert sorted(results) == [bytes([i]) for i in range(8)]
        assert server.stats()["in_flight_requests"] == 0
