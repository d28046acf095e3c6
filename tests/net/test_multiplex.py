"""Multiplexed client connection: many threads on one socket,
out-of-order completion, bounded in-flight windows, reconnect-and-retry
of idempotent methods, and exact metrics attribution at 100 clients."""

import threading
import time

import pytest

from repro.net.rpc import LoopbackTransport, ServiceRegistry
from repro.net.retry import is_idempotent_method
from repro.net.tcp import TcpConnection, TcpServer
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError, ProtocolError


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


class TestOutOfOrderMultiplexing:
    def test_32_threads_interleave_on_one_socket(self, server_factory):
        """32 threads share ONE connection; handlers sleep a random-ish
        amount so responses come back out of order, and every thread
        must still get exactly its own payload back."""

        def jitter_echo(payload):
            # Later requests sleep less -> guaranteed reordering.
            time.sleep((payload[0] % 8) / 400.0)
            return payload

        server = server_factory(
            make_registry({"jitter": jitter_echo}), max_workers=16
        )
        connection = TcpConnection(*server.address)
        results: dict[int, bytes] = {}
        errors: list[Exception] = []
        lock = threading.Lock()

        def one(i):
            try:
                client = connection.client()
                for k in range(4):
                    payload = bytes([i, k])
                    out = client.call("jitter", payload)
                    with lock:
                        results[(i << 8) | k] = out
            except Exception as exc:  # pragma: no cover - fail loudly
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        connection.close()
        assert errors == []
        assert len(results) == 32 * 4
        for key, out in results.items():
            assert out == bytes([key >> 8, key & 0xFF])
        # The server observed genuine same-connection overlap.
        out_of_order = server.metrics.counter(
            "tcp_out_of_order_responses_total", ""
        ).value
        assert out_of_order > 0

    def test_single_connection_many_clients(self, server_factory):
        """RpcClients are cheap cursors over one shared connection; each
        keeps its own correlation ids."""
        server = server_factory(make_registry())
        metrics = MetricsRegistry()
        connection = TcpConnection(*server.address, metrics=metrics)
        try:
            clients = [connection.client() for _ in range(5)]
            for i, client in enumerate(clients):
                assert client.call("echo", bytes([i])) == bytes([i])
            assert metrics.value("rpc_client_requests_total", method="echo") == 5
        finally:
            connection.close()


class TestClientWindow:
    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            TcpConnection("127.0.0.1", 1, max_in_flight=0)

    def test_window_blocks_senders_not_buffers(self, server_factory):
        """With a 2-slot window and handlers parked, a third sender
        blocks in the window (bounded memory) instead of piling frames
        into the socket."""
        release = threading.Event()
        entered = threading.Semaphore(0)

        def block(payload):
            entered.release()
            assert release.wait(timeout=10.0)
            return payload

        server = server_factory(make_registry({"block": block}), max_workers=8)
        metrics = MetricsRegistry()
        connection = TcpConnection(*server.address, metrics=metrics, max_in_flight=2)
        results = []

        def one(i):
            results.append(connection.client().call("block", bytes([i])))

        threads = [threading.Thread(target=one, args=(i,)) for i in range(3)]
        try:
            for thread in threads:
                thread.start()
            for _ in range(2):
                assert entered.acquire(timeout=5.0)
            # Third sender is parked in the client window: its request
            # has not reached the server.
            assert not entered.acquire(timeout=0.3)
            assert metrics.value("tcp_client_in_flight_requests") == 2
            release.set()
            assert entered.acquire(timeout=5.0)
            for thread in threads:
                thread.join(timeout=10.0)
            assert sorted(results) == [bytes([i]) for i in range(3)]
        finally:
            release.set()
            connection.close()

    def test_stalled_window_times_out(self, server_factory):
        server = server_factory(make_registry())
        connection = TcpConnection(
            *server.address, max_in_flight=1, timeout=0.3
        )
        try:
            # Occupy the single window slot as a stuck call would.
            assert connection._window.acquire(timeout=1.0)
            with pytest.raises(ProtocolError, match="window stalled"):
                connection.client().call("echo", b"y")
        finally:
            connection._window.release()
            connection.close()


class TestReconnectRetry:
    def test_idempotent_predicate(self):
        assert is_idempotent_method("storage.has_many")
        assert is_idempotent_method("keystore.get_many")
        assert is_idempotent_method("metrics")
        assert is_idempotent_method("storage.file_get_many")
        assert not is_idempotent_method("storage.put_many")
        assert not is_idempotent_method("storage.file_commit")
        assert not is_idempotent_method("km.derive_batch")
        assert not is_idempotent_method("echo")

    def test_idempotent_call_survives_server_restart(self, server_factory):
        registry = make_registry({"svc.get": lambda p: b"value:" + p})
        server = server_factory(registry, max_workers=4)
        host, port = server.address
        metrics = MetricsRegistry()
        connection = TcpConnection(host, port, timeout=5.0, metrics=metrics)
        try:
            assert connection.client().call("svc.get", b"k") == b"value:k"
            server.stop()
            # Same port, fresh server: the restart the retry must ride out.
            replacement = server_factory(registry, host=host, port=port)
            assert replacement.address == (host, port)
            assert connection.client().call("svc.get", b"k") == b"value:k"
            assert metrics.value("tcp_client_reconnects_total") >= 1
        finally:
            connection.close()

    def test_non_idempotent_not_resent(self, server_factory):
        """A non-idempotent call interrupted mid-flight must surface the
        transport error, never be silently re-sent."""
        hits = []

        def record_put(payload):
            hits.append(payload)
            return b"ok"

        server = server_factory(make_registry({"svc.put": record_put}))
        connection = TcpConnection(*server.address, timeout=2.0)
        try:
            assert connection.client().call("svc.put", b"a") == b"ok"
            server.stop()
            with pytest.raises((ProtocolError, OSError)):
                connection.client().call("svc.put", b"b")
            assert hits == [b"a"]
        finally:
            connection.close()

    def test_retry_disabled_raises_immediately(self, server_factory):
        server = server_factory(make_registry({"svc.get": lambda p: p}))
        connection = TcpConnection(
            *server.address, timeout=2.0, auto_retry=False
        )
        try:
            assert connection.client().call("svc.get", b"x") == b"x"
            server.stop()
            with pytest.raises((ProtocolError, OSError)):
                connection.client().call("svc.get", b"x")
        finally:
            connection.close()

    def test_calls_after_close_rejected(self, server_factory):
        server = server_factory(make_registry())
        connection = TcpConnection(*server.address)
        client = connection.client()
        assert client.call("echo", b"x") == b"x"
        connection.close()
        with pytest.raises(ProtocolError):
            client.call("echo", b"y")


class TestExactAttribution:
    @pytest.mark.slow
    def test_100_clients_exact_metrics(self, server_factory):
        """100 concurrent clients x 5 calls: the node's counters must
        account for every request exactly, and every in-flight gauge
        must read zero after the storm."""
        metrics = MetricsRegistry()
        server = server_factory(
            make_registry(), max_workers=16, metrics=metrics
        )
        client_metrics = MetricsRegistry()
        errors = []

        def one_client(i):
            try:
                connection = TcpConnection(
                    *server.address, metrics=client_metrics
                )
                try:
                    client = connection.client()
                    for k in range(5):
                        assert client.call("echo", bytes([i, k])) == bytes([i, k])
                finally:
                    connection.close()
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(100)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if (
                metrics.value("tcp_in_flight_requests") == 0
                and metrics.value("tcp_active_connections") == 0
            ):
                break
            time.sleep(0.01)
        assert metrics.value("tcp_connections_accepted_total") == 100
        assert metrics.value("tcp_requests_total") == 100 * 5
        assert metrics.value("tcp_in_flight_requests") == 0
        assert metrics.value("tcp_active_connections") == 0
        assert metrics.value("tcp_oversize_drops_total") == 0
        assert metrics.value("tcp_idle_drops_total") == 0
        gauge = client_metrics.gauge("tcp_client_in_flight_requests", "")
        assert gauge.value == 0


class TestSharedRpcClientCounters:
    def test_legacy_counters_exact_under_contention(self):
        """The client's request and error series (which replaced its
        ``calls``/``errors`` attributes): a shared client hammered by 16
        threads must not lose increments."""
        registry = ServiceRegistry()
        registry.register("echo", lambda p: p)
        metrics = MetricsRegistry()
        client = LoopbackTransport(registry, metrics=metrics).client()

        def hammer():
            for _ in range(200):
                client.call("echo", b"x")

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert metrics.value("rpc_client_requests_total") == 16 * 200
        assert metrics.value("rpc_client_errors_total") == 0
