"""TcpServer behaviour: same-socket concurrent dispatch, per-connection
backpressure windows, idle/dead-peer drops and drain; a peer that never
reads cannot starve the handler pool, per-connection threads exit with
their connection, stop() ends every server thread, and frame reads tell
a clean close from a torn frame."""

import socket
import sys
import threading
import time

import pytest

from repro.net.message import Message, frame, read_frame
from repro.net.rpc import ServiceRegistry
from repro.net.tcp import TcpConnection, TcpServer, _read_frame, _recv_exact
from repro.util.errors import ConfigurationError, ProtocolError, ReproError


def make_registry(handlers=None):
    registry = ServiceRegistry()
    registry.register("echo", lambda p: p)
    registry.register("unsendable", lambda p: len(p))
    for name, handler in (handlers or {}).items():
        registry.register(name, handler)
    return registry


@pytest.fixture()
def server_factory():
    servers = []

    def start(registry=None, **kwargs):
        server = TcpServer(registry or make_registry(), **kwargs)
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


def server_threads(port, kinds=("reader", "writer")):
    """Live threads of the server on ``port`` whose names end with one
    of ``kinds`` (``None``: every thread the server started)."""
    prefix = f"reed-tcp:{port}-"
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(prefix)
        and (kinds is None or thread.name.rsplit("-", 1)[-1] in kinds)
    ]


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class FakeSock:
    def __init__(self, data):
        self.data = data

    def recv(self, n):
        out, self.data = self.data[:n], self.data[n:]
        return out


class TestFrameReads:
    def test_close_between_frames_is_a_clean_close(self):
        with pytest.raises(ProtocolError) as raised:
            _read_frame(FakeSock(b""))
        assert str(raised.value) == "peer closed the connection"

    def test_close_inside_a_frame_reports_the_tear(self):
        torn = (10).to_bytes(4, "big") + b"abc"
        with pytest.raises(
            ProtocolError,
            match=r"^peer closed the connection mid-frame after 3 of 10 bytes$",
        ):
            _read_frame(FakeSock(torn))

    def test_close_inside_the_header_reports_the_tear(self):
        with pytest.raises(
            ProtocolError,
            match=r"^peer closed the connection mid-frame after 2 of 4 bytes$",
        ):
            _read_frame(FakeSock(b"\x00\x00"))


class TestUnsendableResponse:
    def test_fails_the_call_at_once(self, server_factory):
        """A handler result the server cannot frame comes back as an
        error reply, not as silence until the caller's timeout."""
        server = server_factory()
        connection = TcpConnection(*server.address, timeout=10.0)
        try:
            client = connection.client()
            started = time.monotonic()
            with pytest.raises(ReproError, match="has no len"):
                client.call("unsendable", b"abc")
            assert time.monotonic() - started < 5.0
            assert client.call("echo", b"still served") == b"still served"
        finally:
            connection.close()


class TestNonReadingPeer:
    def test_cannot_starve_the_handler_pool(self, server_factory):
        """A peer fills its window with 1 MiB echoes and never reads the
        responses: another connection's call must still be served, and
        the window must still bound the server's in-flight requests."""
        window = 8
        server = server_factory(max_workers=2, connection_window=window)
        hog = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # A small receive buffer makes sure the responses cannot all fit
        # in the kernel's buffers.
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        hog.settimeout(10.0)
        hog.connect(server.address)
        peaks = []
        watching = threading.Event()

        def watch():
            while not watching.is_set():
                peaks.append(server.metrics.value("tcp_in_flight_requests"))
                time.sleep(0.002)

        watcher = threading.Thread(target=watch)
        watcher.start()
        connection = None
        try:
            payload = b"\x5a" * (1 << 20)
            for i in range(1, window + 1):
                request = Message(
                    message_id=i, method="echo", is_error=False, payload=payload
                )
                hog.sendall(frame(request.encode()))
            # Every request was read; give the handlers time to finish
            # and the responses time to back up.
            assert wait_until(lambda: server.metrics.value("tcp_in_flight_requests") > 0)
            time.sleep(0.2)
            connection = TcpConnection(*server.address, timeout=2.0)
            started = time.monotonic()
            assert connection.client().call("echo", b"ping") == b"ping"
            assert time.monotonic() - started < 2.0
        finally:
            watching.set()
            watcher.join()
            hog.close()
            if connection is not None:
                connection.close()
        assert 0 < max(peaks) <= window


class TestServerThreads:
    def test_connection_threads_exit_after_close(self, server_factory):
        server = server_factory()
        port = server.address[1]
        connections = [TcpConnection(*server.address) for _ in range(100)]
        try:
            for i, connection in enumerate(connections):
                payload = i.to_bytes(2, "big")
                assert connection.client().call("echo", payload) == payload
            # One reader and one writer per connection while it is open.
            assert len(server_threads(port)) == 200
        finally:
            for connection in connections:
                connection.close()
        assert wait_until(lambda: not server_threads(port)), server_threads(port)
        assert server.metrics.value("tcp_active_connections") == 0

    def test_stop_with_a_peer_stalled_mid_frame(self):
        server = TcpServer(make_registry())  # the default 600 s idle timeout
        server.start()
        port = server.address[1]
        stalled = socket.create_connection(server.address, timeout=5.0)
        connection = TcpConnection(*server.address)
        try:
            # A served call first, so the handler pool has a thread too.
            assert connection.client().call("echo", b"x") == b"x"
            stalled.sendall((100).to_bytes(4, "big") + b"part")
            assert wait_until(lambda: server.metrics.value("tcp_active_connections") == 2)
            assert server_threads(port, kinds=None)
            started = time.monotonic()
            server.stop(timeout=2.0)
            assert time.monotonic() - started < 2.0
            assert not server_threads(port), server_threads(port)
            # Idle handler threads exit once the pool is shut down.
            assert wait_until(lambda: not server_threads(port, kinds=None), 2.0)
        finally:
            stalled.close()
            connection.close()


class TestSharedCounters:
    def test_exact_under_forced_thread_switches(self, server_factory):
        """Readers, handlers and writers of four connections update the
        server's shared counters; with the interpreter switching threads
        every microsecond, no update may be lost."""
        server = server_factory(max_workers=4, connection_window=4)
        connections = [TcpConnection(*server.address) for _ in range(4)]
        errors = []

        def hammer(index):
            client = connections[index % 4].client()
            try:
                for k in range(40):
                    payload = bytes([index, k])
                    assert client.call("echo", payload) == payload
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            for connection in connections:
                connection.close()
        assert errors == []
        assert wait_until(lambda: server.metrics.value("tcp_active_connections") == 0)
        value = server.metrics.value
        assert value("tcp_requests_total") == 16 * 40
        assert value("tcp_in_flight_requests") == 0
        assert value("tcp_queue_depth") == 0


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
            assert server.metrics.value("tcp_in_flight_requests") == 2
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
            if server.metrics.value("tcp_idle_drops_total") == 1:
                break
            time.sleep(0.01)
        assert server.metrics.value("tcp_idle_drops_total") == 1

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
            if server.metrics.value("tcp_idle_drops_total") == 1:
                break
            time.sleep(0.01)
        assert server.metrics.value("tcp_idle_drops_total") == 1

    def test_disconnect_mid_frame_is_clean(self, server_factory):
        """A peer that dies halfway through a frame must not wedge the
        server or leak the connection."""
        server = server_factory(make_registry())
        sock = socket.create_connection(server.address, timeout=5.0)
        sock.sendall((100).to_bytes(4, "big") + b"half")
        sock.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if server.metrics.value("tcp_active_connections") == 0:
                break
            time.sleep(0.01)
        assert server.metrics.value("tcp_active_connections") == 0
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
        assert server.metrics.value("tcp_in_flight_requests") == 0
