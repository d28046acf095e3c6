"""TCP transport for the RPC layer.

* :class:`TcpServer` — the server, defined in :mod:`repro.net.aio` and
  re-exported here: an asyncio event loop (single accept loop, one
  task per connection, handlers dispatched concurrently onto a bounded
  executor, responses written out of order as they finish).
* :class:`TcpConnection` — a **multiplexed** client connection: many
  threads share one persistent socket, each call tagged with a wire
  ``message_id`` and completed out of order by a background reader
  thread.  A bounded in-flight window applies backpressure (senders
  block instead of buffering unboundedly), keepalives detect dead
  peers, and idempotent methods are transparently retried over a fresh
  dial when the persistent connection breaks (a server restart no
  longer fails a pipeline mid-window).

The wire format is 4-byte length framing around
:class:`~repro.net.message.Message`, which carries the correlation id.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import replace

from repro.net.aio import (
    DEFAULT_CONNECTION_WINDOW,
    DEFAULT_IDLE_TIMEOUT,
    DEFAULT_MAX_WORKERS,
    TcpServer,
    tune_socket,
)
from repro.net.message import Message, frame, read_frame
from repro.net.retry import RetryPolicy, is_idempotent_method
from repro.net.rpc import RpcClient
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.util.errors import ConfigurationError, ProtocolError

#: Default client-side in-flight window: how many calls may be awaiting
#: responses on one multiplexed connection before further senders block.
DEFAULT_CLIENT_WINDOW = 64

#: Snappy reconnect policy for transparent idempotent retries: a server
#: restart is ridden out in ~100 ms of backoff, a hard outage surfaces
#: as ProtocolError after three dials.
DEFAULT_RECONNECT_POLICY = dict(attempts=3, base_delay=0.02, cap=0.25)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        piece = sock.recv(n - len(out))
        if not piece:
            raise ProtocolError("peer closed the connection mid-frame")
        out.extend(piece)
    return bytes(out)


class _Waiter:
    """One in-flight call's completion slot."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Message | None = None
        self.error: BaseException | None = None

    def resolve(self, response: Message) -> None:
        self.response = response
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class TcpConnection:
    """A multiplexed client connection; thread-safe with true concurrency.

    Many threads share the one persistent socket: each call is assigned
    a wire-level ``message_id``, sent under a short write lock, and then
    the caller blocks on its own completion slot while a background
    reader thread matches inbound responses back to callers by id —
    responses complete **out of order**, so a slow batch call no longer
    serializes the fast calls behind it.

    Flow control and fault handling:

    * at most ``max_in_flight`` calls may be outstanding; further
      senders block (bounded window backpressure) rather than buffering
      unboundedly, and give up with :class:`ProtocolError` after
      ``timeout`` seconds;
    * ``timeout`` also bounds each call's wait for its response; a
      timed-out id is simply abandoned (a late response is discarded by
      id — the stream stays consistent, unlike the old one-in-flight
      client where a timeout poisoned the framing);
    * TCP keepalives detect peers that vanished without a FIN;
    * when the connection breaks, every pending call fails, and the
      next call transparently re-dials; **idempotent** methods
      (:func:`repro.net.retry.is_idempotent_method`) that failed
      mid-flight are retried over the fresh connection under
      ``retry_policy``, so a server restart does not fail a read
      pipeline mid-window.  Non-idempotent methods still raise.

    The constructor's first four parameters match the old signature, so
    every existing call site (``TcpCluster``, the ``reed`` CLI, the
    examples) runs unmodified.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        metrics: MetricsRegistry | None = None,
        *,
        max_in_flight: int = DEFAULT_CLIENT_WINDOW,
        auto_retry: bool = True,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be at least 1")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._metrics = metrics
        self._auto_retry = auto_retry
        self._retry_policy = retry_policy or RetryPolicy(**DEFAULT_RECONNECT_POLICY)
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._window = threading.BoundedSemaphore(max_in_flight)
        self._pending: dict[int, _Waiter] = {}
        self._next_wire_id = 0
        self._generation = 0
        self._closed = False
        self._broken: BaseException | None = None
        self._reader: threading.Thread | None = None
        registry = metrics if metrics is not None else default_registry()
        self._reconnects = registry.counter(
            "tcp_client_reconnects_total",
            "Persistent connections re-dialed after a break.",
        )
        self._retries = registry.counter(
            "tcp_client_idempotent_retries_total",
            "Idempotent calls transparently retried over a fresh dial.",
        )
        self._in_flight_gauge = registry.gauge(
            "tcp_client_in_flight_requests",
            "Client calls currently awaiting a response (all connections).",
        )
        self._sock: socket.socket | None = None
        try:
            self._sock = self._dial()
        except OSError as exc:
            # A replicated deployment must be able to build clients while
            # one node is down: defer the dial, and let the first call
            # surface the failure (or succeed once the node is back).
            self._broken = exc

    # -- connection lifecycle ---------------------------------------------

    def _dial(self) -> socket.socket:
        sock = socket.create_connection((self._host, self._port), self._timeout)
        sock.settimeout(None)  # the reader blocks; call waits carry the timeout
        tune_socket(sock)
        return sock

    def _ensure_reader_locked(self) -> None:
        if self._reader is None or not self._reader.is_alive():
            self._reader = threading.Thread(
                target=self._reader_loop,
                args=(self._sock, self._generation),
                daemon=True,
                name=f"reed-mux-reader-{self._host}:{self._port}",
            )
            self._reader.start()

    def _reader_loop(self, sock: socket.socket, generation: int) -> None:
        try:
            while True:
                body = read_frame(lambda n: _recv_exact(sock, n))
                response = Message.decode(body)
                with self._lock:
                    waiter = self._pending.pop(response.message_id, None)
                # Unknown ids are discarded: they belong to calls that
                # already timed out and were abandoned.
                if waiter is not None:
                    waiter.resolve(response)
        except Exception as exc:
            self._break_connection(exc, generation)

    def _break_connection(self, cause: BaseException, generation: int) -> None:
        with self._lock:
            if generation != self._generation:
                return  # a stale reader observing its own replaced socket
            self._broken = cause
            pending = list(self._pending.values())
            self._pending.clear()
        error = ProtocolError(
            f"connection to {self._host}:{self._port} lost: {cause}"
        )
        for waiter in pending:
            waiter.fail(error)

    @staticmethod
    def _hard_close(sock: socket.socket) -> None:
        """Shutdown then close: a bare ``close()`` while the reader
        thread is blocked in ``recv`` never reaches the kernel socket
        (the in-progress syscall pins it), so no FIN is sent and the
        server would hold the connection forever.  ``shutdown`` sends
        the FIN and wakes the reader immediately."""
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _redial_locked(self) -> None:
        """Replace a broken socket (caller holds ``self._lock``)."""
        if self._sock is not None:
            self._hard_close(self._sock)
        self._sock = self._dial()  # raises OSError while the server is down
        self._generation += 1
        self._broken = None
        self._reconnects.inc()
        self._reader = None  # the old reader is stale; start a fresh one
        self._ensure_reader_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._generation += 1  # invalidate the reader's break report
            pending = list(self._pending.values())
            self._pending.clear()
        error = ProtocolError(
            f"connection to {self._host}:{self._port} closed"
        )
        for waiter in pending:
            waiter.fail(error)
        if self._sock is not None:
            self._hard_close(self._sock)

    # -- the send path -----------------------------------------------------

    def _send_once(self, request: Message) -> Message:
        if not self._window.acquire(timeout=self._timeout):
            raise ProtocolError(
                f"in-flight window stalled for {self._timeout}s "
                f"(peer {self._host}:{self._port} not draining responses)"
            )
        self._in_flight_gauge.inc()
        try:
            with self._lock:
                if self._closed:
                    raise ProtocolError(
                        f"connection to {self._host}:{self._port} closed"
                    )
                if self._broken is not None:
                    # The link died since the last call; any method may
                    # safely go out over a fresh dial because this
                    # request was never sent.
                    self._redial_locked()
                self._ensure_reader_locked()
                self._next_wire_id += 1
                wire_id = self._next_wire_id
                waiter = _Waiter()
                self._pending[wire_id] = waiter
                sock = self._sock
            encoded = frame(replace(request, message_id=wire_id).encode())
            try:
                with self._send_lock:
                    sock.sendall(encoded)
            except OSError as exc:
                with self._lock:
                    self._pending.pop(wire_id, None)
                raise ProtocolError(
                    f"send to {self._host}:{self._port} failed: {exc}"
                ) from exc
            if not waiter.event.wait(timeout=self._timeout):
                with self._lock:
                    self._pending.pop(wire_id, None)
                raise ProtocolError(
                    f"no response for {request.method!r} from "
                    f"{self._host}:{self._port} within {self._timeout}s"
                )
            if waiter.error is not None:
                raise waiter.error
            assert waiter.response is not None
            # Restore the caller's correlation id: the wire id belongs
            # to this connection, not to the RpcClient that sent it.
            return replace(waiter.response, message_id=request.message_id)
        finally:
            self._in_flight_gauge.dec()
            self._window.release()

    def _send(self, request: Message) -> Message:
        if self._auto_retry and is_idempotent_method(request.method):
            attempt = [0]

            def operation() -> Message:
                attempt[0] += 1
                if attempt[0] > 1:
                    self._retries.inc()
                return self._send_once(request)

            return self._retry_policy.run(operation)
        return self._send_once(request)

    def client(self) -> RpcClient:
        """An :class:`RpcClient` over this connection.

        Clients are cheap; many of them (on many threads) may share one
        connection and their calls interleave on the wire.
        """
        return RpcClient(self._send, metrics=self._metrics)

    def stats(self) -> dict:
        """Connection-level counters for observability."""
        with self._lock:
            return {
                "in_flight": len(self._pending),
                "reconnects": int(self._reconnects.value),
                "idempotent_retries": int(self._retries.value),
                "broken": self._broken is not None,
                "closed": self._closed,
            }


def connect(
    host: str,
    port: int,
    timeout: float = 30.0,
    metrics: MetricsRegistry | None = None,
) -> RpcClient:
    """Convenience: open a connection and return its RPC client."""
    return TcpConnection(host, port, timeout, metrics=metrics).client()


__all__ = [
    "DEFAULT_CLIENT_WINDOW",
    "DEFAULT_CONNECTION_WINDOW",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_WORKERS",
    "TcpConnection",
    "TcpServer",
    "connect",
]
