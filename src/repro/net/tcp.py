"""TCP transport for the RPC layer: 4-byte length framing around
:class:`~repro.net.message.Message`, whose ``message_id`` correlates
out-of-order responses.

* :class:`TcpServer` — one accept thread, and per connection one reader
  thread and one writer thread around a handler pool shared by all
  connections.
* :class:`TcpConnection` — a multiplexed client connection: many
  threads share one persistent socket, and idempotent calls ride out a
  server restart.

``docs/ARCHITECTURE.md`` (*Server concurrency*, *Multiplexed
connections*) describes both; the server's ``tcp_*`` series are in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.net.message import MAX_MESSAGE_BYTES, Message, frame_parts
from repro.net.retry import RetryPolicy, is_idempotent_method
from repro.net.rpc import RpcClient, ServiceRegistry, encode_error
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.util.errors import ConfigurationError, CorruptionError, ProtocolError

#: Default size of the handler pool: it bounds concurrently *executing
#: handlers*, not connections.
DEFAULT_MAX_WORKERS = 16

#: Default per-connection in-flight request window: how many requests
#: from one socket may be read and not yet flushed (queued, executing or
#: waiting for the writer) before the server stops reading that socket.
DEFAULT_CONNECTION_WINDOW = 32

#: Default idle read timeout: a connection that sends nothing for this
#: long is dropped (``tcp_idle_drops_total``).  Generous because
#: pipeline clients legitimately sit idle between operations; TCP
#: keepalives catch dead peers well before this fires.
DEFAULT_IDLE_TIMEOUT = 600.0

#: Default client-side in-flight window: how many calls may be awaiting
#: responses on one multiplexed connection before further senders block.
DEFAULT_CLIENT_WINDOW = 64

#: Snappy reconnect policy for transparent idempotent retries: a server
#: restart is ridden out in ~100 ms of backoff, a hard outage surfaces
#: as ProtocolError after three dials.
RECONNECT_POLICY = dict(attempts=3, base_delay=0.02, cap=0.25)

#: Frames up to this size are sent joined, in one ``sendall``, and read
#: with ``recv``; longer ones are sent as their parts with ``sendmsg``
#: and read into one buffer of their length.
LARGE_FRAME_BYTES = 64 * 1024

#: TCP keepalive cadence (seconds idle before probing, probe interval,
#: probes before the kernel declares the peer dead).
KEEPALIVE_IDLE = 60
KEEPALIVE_INTERVAL = 15
KEEPALIVE_COUNT = 4


def tune_socket(sock: socket.socket) -> None:
    """Low-latency + dead-peer options shared by client and server.

    ``TCP_NODELAY`` for small framed RPCs, ``SO_KEEPALIVE`` with an
    aggressive-ish cadence so a peer that vanished without a FIN (pulled
    cable, OOM-killed process) is detected in minutes, not hours.  The
    per-option constants are missing on some platforms; each is applied
    best-effort.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    except OSError:
        return
    for option, value in (
        ("TCP_KEEPIDLE", KEEPALIVE_IDLE),
        ("TCP_KEEPINTVL", KEEPALIVE_INTERVAL),
        ("TCP_KEEPCNT", KEEPALIVE_COUNT),
    ):
        if hasattr(socket, option):
            try:
                sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)
            except OSError:
                pass


def _shutdown(sock: socket.socket) -> None:
    """Send the FIN and wake every thread blocked on ``sock``.

    A bare ``close()`` while another thread is blocked in ``recv`` or
    ``accept`` never reaches the kernel socket (the in-progress syscall
    pins it), so no FIN is sent and the blocked thread sleeps on.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _hard_close(sock: socket.socket) -> None:
    _shutdown(sock)
    try:
        sock.close()
    except OSError:
        pass


def _recv_exact(sock: socket.socket, n: int, *, frame_start: bool = False) -> bytes:
    """Read exactly ``n`` bytes; EOF raises :class:`ProtocolError`.

    ``frame_start`` marks the first bytes of a frame: an EOF before any
    of them is a clean close between frames, not a torn frame.
    """
    chunks = []
    got = 0
    while got < n:
        piece = sock.recv(n - got)
        if not piece:
            if frame_start and not got:
                raise ProtocolError("peer closed the connection")
            raise ProtocolError(
                f"peer closed the connection mid-frame after {got} of {n} bytes"
            )
        chunks.append(piece)
        got += len(piece)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def _read_frame(
    sock: socket.socket, max_bytes: int = MAX_MESSAGE_BYTES
) -> bytes | bytearray:
    """One frame body; an oversized length raises before any allocation.

    A large body is received in place, into one buffer of its length.
    """
    length = int.from_bytes(_recv_exact(sock, 4, frame_start=True), "big")
    if length > max_bytes:
        raise CorruptionError(f"frame length {length} exceeds the limit")
    if length <= LARGE_FRAME_BYTES:
        return _recv_exact(sock, length)
    body = bytearray(length)
    got = 0
    with memoryview(body) as view:
        while got < length:
            received = sock.recv_into(view[got:])
            if not received:
                raise ProtocolError(
                    f"peer closed the connection mid-frame after {got} of {length} bytes"
                )
            got += received
    return body


def _send_frame(sock: socket.socket, parts: list[bytes]) -> None:
    """Write one frame given as :func:`~repro.net.message.frame_parts`.

    A large frame goes out scatter-gather, resumed after partial sends,
    so its payload is never copied into a joined frame.
    """
    if sum(map(len, parts)) <= LARGE_FRAME_BYTES:
        sock.sendall(b"".join(parts))
        return
    pending = [memoryview(part) for part in parts]
    while pending:
        sent = sock.sendmsg(pending)
        while pending and sent >= len(pending[0]):
            sent -= len(pending.pop(0))
        if sent:
            pending[0] = pending[0][sent:]


class _Connection:
    """One accepted socket and the state its reader and writer share."""

    __slots__ = ("sock", "window", "outbox", "outstanding", "seq", "threads")

    def __init__(self, sock: socket.socket, window: int) -> None:
        self.sock = sock
        #: One slot per request read and not yet flushed.
        self.window = threading.Semaphore(window)
        #: Framed responses for the writer, as their parts (``[]`` for a
        #: request that got none); ``None`` tells it the connection is done.
        self.outbox: queue.SimpleQueue[list[bytes] | None] = queue.SimpleQueue()
        #: Sequence numbers of requests not yet handed to the writer —
        #: used to detect (and count) out-of-order completions.  Guarded
        #: by the server's lock.
        self.outstanding: set[int] = set()
        self.seq = 0
        self.threads: tuple[threading.Thread, ...] = ()


class TcpServer:
    """Serves a :class:`ServiceRegistry` over TCP.

    The accept thread starts a reader and a writer thread per
    connection.  The reader decodes each frame, takes a slot of the
    connection's ``connection_window`` (a full window stops it reading,
    which backs a flooding sender up in the kernel) and submits the
    request to the ``max_workers`` handler pool, so a slow request does
    not block the next one on the same socket.  A handler hands its
    encoded response to the writer and returns to the pool: handlers
    never block on a peer's socket.  The writer flushes responses in
    completion order and only then frees their slots.  ``idle_timeout``
    is the socket timeout, dropping idle peers and frames stalled
    mid-way.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = DEFAULT_MAX_WORKERS,
        max_message_bytes: int = MAX_MESSAGE_BYTES,
        metrics: MetricsRegistry | None = None,
        idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
        connection_window: int = DEFAULT_CONNECTION_WINDOW,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError("need at least one worker")
        if max_message_bytes < 1 or max_message_bytes > MAX_MESSAGE_BYTES:
            raise ConfigurationError(
                f"max_message_bytes must be in [1, {MAX_MESSAGE_BYTES}]"
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise ConfigurationError("idle_timeout must be positive (or None)")
        if connection_window < 1:
            raise ConfigurationError("connection_window must be at least 1")
        self._registry = registry
        self._max_workers = max_workers
        self._max_message_bytes = max_message_bytes
        self._idle_timeout = idle_timeout
        self._connection_window = connection_window
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._name = f"reed-tcp:{self._listener.getsockname()[1]}"
        self._running = False
        #: Set by :meth:`stop` once draining is over: handlers still
        #: queued then skip their request instead of running it.
        self._closing = False
        self._accept_thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._conns: set[_Connection] = set()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        #: Requests handed to the pool but not yet picked up by a
        #: handler thread (the dispatch backlog inside the process).
        self._queued = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._connections_accepted = self.metrics.counter(
            "tcp_connections_accepted_total", "Connections accepted."
        )
        self._requests_served = self.metrics.counter(
            "tcp_requests_total", "Requests served (responses flushed count too)."
        )
        self._oversize_drops = self.metrics.counter(
            "tcp_oversize_drops_total",
            "Connections dropped for oversized or length-damaged frames.",
        )
        self._idle_drops = self.metrics.counter(
            "tcp_idle_drops_total",
            "Connections dropped by the idle read timeout (dead peers).",
        )
        self._active_connections = self.metrics.gauge(
            "tcp_active_connections", "Connections currently open."
        )
        self._in_flight_gauge = self.metrics.gauge(
            "tcp_in_flight_requests", "Requests read and not yet flushed."
        )
        self._queue_depth = self.metrics.gauge(
            "tcp_queue_depth",
            "Requests waiting for a free handler worker.",
        )
        self._out_of_order = self.metrics.counter(
            "tcp_out_of_order_responses_total",
            "Responses written while an earlier request on the same "
            "connection was still in flight (multiplexing at work).",
        )
        self.metrics.gauge(
            "tcp_max_workers", "Size of the handler executor."
        ).set(max_workers)
        self.metrics.gauge(
            "tcp_connection_window",
            "Per-connection in-flight request window (backpressure bound).",
        ).set(connection_window)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the handler pool and the accept thread.

        The listener is already listening, so a connect made before the
        accept thread runs waits in the kernel backlog.
        """
        self._running = True
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix=f"{self._name}-handler"
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name=f"{self._name}-accept"
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                if not self._running:
                    return
                time.sleep(0.01)  # e.g. out of descriptors: back off, retry
                continue
            if not self._running:
                # A connect raced the shutdown; drop it rather than
                # serve a stopped server.
                sock.close()
                return
            tune_socket(sock)
            sock.settimeout(self._idle_timeout)
            conn = _Connection(sock, self._connection_window)
            with self._lock:
                self._conns.add(conn)
                self._connections_accepted.inc()
                self._active_connections.set(len(self._conns))
            name = f"{self._name}-{peer[1]}"
            conn.threads = (
                threading.Thread(
                    target=self._read_loop, args=(conn, self._executor),
                    daemon=True,
                    name=f"{name}-reader",
                ),
                threading.Thread(
                    target=self._write_loop, args=(conn,), daemon=True,
                    name=f"{name}-writer",
                ),
            )
            for thread in conn.threads:
                thread.start()

    def _read_loop(self, conn: _Connection, executor: ThreadPoolExecutor) -> None:
        try:
            while self._running:
                try:
                    request = Message.decode(
                        _read_frame(conn.sock, self._max_message_bytes)
                    )
                except TimeoutError:
                    # Idle, or stalled mid-frame: a dead peer either way.
                    with self._lock:
                        self._idle_drops.inc()
                    return
                except CorruptionError:
                    # Oversized (or length-damaged) frame: dropped before
                    # the body is allocated.
                    with self._lock:
                        self._oversize_drops.inc()
                    return
                except Exception:
                    return  # disconnect, or framing damage
                # Backpressure: with ``connection_window`` requests of
                # this connection unflushed, stop reading its socket.
                conn.window.acquire()
                conn.seq += 1
                seq = conn.seq
                with self._lock:
                    self._in_flight += 1
                    self._in_flight_gauge.set(self._in_flight)
                    self._queued += 1
                    self._queue_depth.set(self._queued)
                    conn.outstanding.add(seq)
                try:
                    executor.submit(self._handle, conn, request, seq)
                except RuntimeError:
                    # The pool was shut down by a racing stop().
                    with self._lock:
                        self._queued -= 1
                        self._queue_depth.set(self._queued)
                        conn.outstanding.discard(seq)
                    conn.outbox.put([])
                    return
        finally:
            # Half-close friendliness: a client that sent its requests
            # and shut down its write side still gets every response.
            # With every slot back, every response is flushed.
            for _ in range(self._connection_window):
                conn.window.acquire()
            conn.outbox.put(None)

    def _handle(self, conn: _Connection, request: Message, seq: int) -> None:
        """Run one request on a pool thread and hand its response over."""
        with self._lock:
            self._queued -= 1
            self._queue_depth.set(self._queued)
        encoded: list[bytes] = []
        try:
            if not self._closing:
                encoded = frame_parts(self._registry.dispatch(request))
        except Exception as exc:  # noqa: BLE001 - the caller must hear of it
            # A result that cannot be sent (not bytes, or over the frame
            # limit) fails the call now instead of at the caller's timeout.
            error = Message(request.message_id, request.method, True, encode_error(exc))
            encoded = frame_parts(error)
        finally:
            with self._lock:
                conn.outstanding.discard(seq)
                if encoded:
                    # Counted before the hand-off so the served total is
                    # already visible when the client reads the response.
                    self._requests_served.inc()
                    if conn.outstanding and min(conn.outstanding) < seq:
                        self._out_of_order.inc()
            conn.outbox.put(encoded)

    def _write_loop(self, conn: _Connection) -> None:
        sock = conn.sock
        alive = True
        for encoded in iter(conn.outbox.get, None):
            if alive and encoded:
                try:
                    _send_frame(sock, encoded)
                except OSError:
                    # The peer went away (or stopped reading for
                    # ``idle_timeout``) mid-response: the stream is torn,
                    # so wake the reader; later responses are discarded.
                    alive = False
                    _shutdown(sock)
            # The slot is released only after the flush, so a drained
            # stop() has every response on the wire.
            with self._idle:
                self._in_flight -= 1
                self._in_flight_gauge.set(self._in_flight)
                self._idle.notify_all()
            conn.window.release()
        _hard_close(sock)
        with self._lock:
            self._conns.discard(conn)
            self._active_connections.set(len(self._conns))

    def stop(self, drain: bool = False, timeout: float = 5.0) -> None:
        """Stop the server.

        With ``drain=False`` (the default) every live connection is
        dropped immediately.  With ``drain=True`` the listener closes at
        once but requests already being dispatched get up to ``timeout``
        seconds to finish and flush their responses before connections
        are torn down.  Either way the connections' threads get up to
        ``timeout`` seconds to exit.
        """
        self._running = False
        _hard_close(self._listener)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
            self._accept_thread = None
        if drain:
            with self._idle:
                self._idle.wait_for(lambda: self._in_flight == 0, timeout=timeout)
        self._closing = True
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            _shutdown(conn.sock)  # wakes its reader and its writer
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        deadline = time.monotonic() + timeout
        for conn in conns:
            for thread in conn.threads:
                thread.join(max(0.0, deadline - time.monotonic()))


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
      timed-out id is simply abandoned: a late response is discarded by
      id, so the stream stays consistent;
    * TCP keepalives detect peers that vanished without a FIN;
    * when the connection breaks, every pending call fails, and the
      next call transparently re-dials; **idempotent** methods
      (:func:`repro.net.retry.is_idempotent_method`) that failed
      mid-flight are retried over the fresh connection under
      :data:`RECONNECT_POLICY`, so a server restart does not fail a read
      pipeline mid-window.  Non-idempotent methods still raise.
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
    ) -> None:
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be at least 1")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._metrics = metrics
        self._auto_retry = auto_retry
        self._retry_policy = RetryPolicy(**RECONNECT_POLICY)
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
                body = _read_frame(sock)
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

    def _redial_locked(self) -> None:
        """Replace a broken socket (caller holds ``self._lock``)."""
        if self._sock is not None:
            _hard_close(self._sock)
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
            _hard_close(self._sock)

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
            encoded = frame_parts(replace(request, message_id=wire_id))
            try:
                with self._send_lock:
                    _send_frame(sock, encoded)
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
