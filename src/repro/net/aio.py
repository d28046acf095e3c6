"""Asyncio-native multiplexed RPC server.

:class:`TcpServer` serves RPCs from an event loop: one accept
loop, one lightweight task per connection, and one dispatch task per
*request*.  Because requests are dispatched as they are read — no
worker owns a connection until its current request finishes — a slow
``chunk_get_batch`` does not block the next request on the same socket,
and 100+ concurrent clients per node stay live on a handful of threads.

Design points:

* **Blocking handlers need no rewrite.**  :class:`~repro.net.rpc.ServiceRegistry`
  handlers are ordinary synchronous callables; the server runs them on a
  bounded :class:`~concurrent.futures.ThreadPoolExecutor` (``max_workers``)
  via ``run_in_executor``.  ``max_workers`` therefore bounds *handler
  concurrency*, not connection count — the decoupling that lets one node
  hold thousands of idle connections without a thread each.
* **Out-of-order responses.**  Responses are written as their handlers
  finish, correlated by the wire-level ``message_id`` that every
  :class:`~repro.net.message.Message` already carries.  A multiplexed
  client (:class:`~repro.net.tcp.TcpConnection`) matches them back up;
  the old one-in-flight client still works because any completion order
  of a single request is in order.
* **Backpressure.**  Each connection admits at most ``connection_window``
  in-flight requests; when the window is full the server stops reading
  that socket, so a flooding sender blocks in the kernel instead of
  growing an unbounded queue server-side.
* **Dead-peer protection.**  TCP keepalives are enabled on every
  accepted socket and a configurable ``idle_timeout`` bounds how long a
  connection may sit without completing a frame; an idle or half-dead
  peer is dropped and counted in ``tcp_idle_drops_total``.
* **Graceful drain.**  ``stop(drain=True)`` closes the listener at once
  but gives every in-flight request up to ``timeout`` seconds to finish
  and flush its response.

The metrics surface is the ``tcp_*`` and ``aio_*`` series documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.net.message import MAX_MESSAGE_BYTES, Message, frame
from repro.net.rpc import ServiceRegistry
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError

#: Default size of the handler executor: it bounds concurrently
#: *executing handlers*, not connections.
DEFAULT_MAX_WORKERS = 16

#: Default per-connection in-flight request window: how many requests
#: from one socket may be dispatched (queued or executing or flushing)
#: before the server stops reading that socket.
DEFAULT_CONNECTION_WINDOW = 32

#: Default idle read timeout: a connection that completes no frame for
#: this long is dropped (``tcp_idle_drops_total``).  Generous because
#: pipeline clients legitimately sit idle between operations; TCP
#: keepalives catch dead peers well before this fires.
DEFAULT_IDLE_TIMEOUT = 600.0

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


class _Connection:
    """Per-connection server state, touched only on the event loop."""

    __slots__ = ("writer", "write_lock", "window", "tasks", "outstanding", "_seq")

    def __init__(self, writer: asyncio.StreamWriter, window: int) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.window = asyncio.Semaphore(window)
        self.tasks: set[asyncio.Task] = set()
        #: Sequence numbers of requests read but not yet responded to —
        #: used to detect (and count) out-of-order completions.
        self.outstanding: set[int] = set()
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq


class TcpServer:
    """Serves a :class:`ServiceRegistry` on an asyncio event loop.

    The deployment server: 100+ concurrent clients per node stay live on
    one accept loop plus ``max_workers`` handler threads, with
    per-connection request windows, idle-read timeouts, and TCP
    keepalives (``idle_timeout`` / ``connection_window``).

    The loop runs on a dedicated background thread, so the public API
    (:meth:`start`, :meth:`stop`, :meth:`stats`) is synchronous.  See
    the module docstring for the architecture.
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
        self._running = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._aserver: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._conns: set[_Connection] = set()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        #: Requests handed to the executor but not yet picked up by a
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
            "tcp_in_flight_requests", "Requests currently being dispatched."
        )
        self._queue_depth = self.metrics.gauge(
            "tcp_queue_depth",
            "Requests waiting for a free handler worker.",
        )
        self._out_of_order = self.metrics.counter(
            "aio_out_of_order_responses_total",
            "Responses written while an earlier request on the same "
            "connection was still in flight (multiplexing at work).",
        )
        self.metrics.gauge(
            "tcp_max_workers", "Size of the handler executor."
        ).set(max_workers)
        self.metrics.gauge(
            "aio_connection_window",
            "Per-connection in-flight request window (backpressure bound).",
        ).set(connection_window)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def stats(self) -> dict:
        """Server-side counters for observability.

        The snapshot is taken under the mutation lock so it is
        internally consistent.
        """
        with self._lock:
            return {
                "connections_accepted": int(self._connections_accepted.value),
                "active_connections": len(self._conns),
                "in_flight_requests": self._in_flight,
                "queued_connections": self._queued,
                "requests_served": int(self._requests_served.value),
                "oversize_drops": int(self._oversize_drops.value),
                "idle_drops": int(self._idle_drops.value),
                "max_workers": self._max_workers,
            }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the event loop (and its accept loop) on a background thread."""
        self._running = True
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="reed-aio"
        )
        self._thread = threading.Thread(
            target=self._run_loop, daemon=True, name="reed-aio-loop"
        )
        self._thread.start()
        self._started.wait(timeout=5.0)

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
            # Cancel whatever the teardown left running (blocked reads on
            # aborted connections, executor waits) and let it unwind.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            except Exception:
                pass
            loop.close()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        self._aserver = await asyncio.start_server(
            self._handle_connection, sock=self._listener
        )
        self._started.set()
        await self._stop_event.wait()
        # Teardown: close every live connection.  ``close()`` flushes
        # buffered responses (a drained stop already waited for them to
        # be written) before sending FIN.
        writers = [conn.writer for conn in list(self._conns)]
        for writer in writers:
            try:
                writer.close()
            except Exception:
                pass
        if writers:
            await asyncio.wait(
                [asyncio.ensure_future(w.wait_closed()) for w in writers],
                timeout=1.0,
            )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self._running:
            # A connect raced the shutdown; drop it rather than serve a
            # stopped server.
            writer.close()
            return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            tune_socket(sock)
        conn = _Connection(writer, self._connection_window)
        with self._lock:
            self._conns.add(conn)
            self._connections_accepted.inc()
            self._active_connections.set(len(self._conns))
        try:
            await self._read_loop(conn, reader)
        finally:
            # Half-close friendliness: a client that sent its requests
            # and shut down its write side still gets every response.
            if conn.tasks:
                try:
                    await asyncio.wait(list(conn.tasks))
                except asyncio.CancelledError:
                    pass  # loop teardown: bookkeeping below must still run
            with self._lock:
                self._conns.discard(conn)
                self._active_connections.set(len(self._conns))
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_frame_body(self, reader: asyncio.StreamReader, n: int) -> bytes:
        if self._idle_timeout is None:
            return await reader.readexactly(n)
        return await asyncio.wait_for(
            reader.readexactly(n), timeout=self._idle_timeout
        )

    async def _read_loop(
        self, conn: _Connection, reader: asyncio.StreamReader
    ) -> None:
        loop = asyncio.get_running_loop()
        while self._running:
            try:
                header = await self._read_frame_body(reader, 4)
            except asyncio.TimeoutError:
                with self._lock:
                    self._idle_drops.inc()
                return
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return  # disconnect
            length = int.from_bytes(header, "big")
            if length > self._max_message_bytes:
                # Oversized (or length-damaged) frame: drop the
                # connection before attempting the allocation.
                with self._lock:
                    self._oversize_drops.inc()
                return
            try:
                body = await self._read_frame_body(reader, length)
            except asyncio.TimeoutError:
                # Stalled mid-frame: a dead peer, not an idle one, but
                # the same remedy.
                with self._lock:
                    self._idle_drops.inc()
                return
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            try:
                request = Message.decode(body)
            except Exception:
                return  # framing damage: drop the connection
            # Backpressure: when this connection already has
            # ``connection_window`` requests in flight, stop reading its
            # socket until one completes.
            await conn.window.acquire()
            with self._lock:
                self._in_flight += 1
                self._in_flight_gauge.set(self._in_flight)
            seq = conn.next_seq()
            conn.outstanding.add(seq)
            task = loop.create_task(self._dispatch(conn, request, seq))
            conn.tasks.add(task)
            task.add_done_callback(conn.tasks.discard)

    def _run_handler(self, request: Message) -> Message:
        with self._lock:
            self._queued -= 1
            self._queue_depth.set(self._queued)
        return self._registry.dispatch(request)

    async def _dispatch(self, conn: _Connection, request: Message, seq: int) -> None:
        loop = asyncio.get_running_loop()
        try:
            with self._lock:
                self._queued += 1
                self._queue_depth.set(self._queued)
            try:
                response = await loop.run_in_executor(
                    self._executor, self._run_handler, request
                )
            except RuntimeError:  # executor torn down by a racing stop()
                with self._lock:
                    self._queued -= 1
                    self._queue_depth.set(self._queued)
                return
            encoded = frame(response.encode())
            async with conn.write_lock:
                out_of_order = any(s < seq for s in conn.outstanding)
                with self._lock:
                    # Counted before the flush so the served total is
                    # already visible when the client reads the response.
                    self._requests_served.inc()
                    if out_of_order:
                        self._out_of_order.inc()
                conn.writer.write(encoded)
                await conn.writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            pass  # peer went away mid-response
        finally:
            conn.outstanding.discard(seq)
            conn.window.release()
            with self._idle:
                self._in_flight -= 1
                self._in_flight_gauge.set(self._in_flight)
                self._idle.notify_all()

    def stop(self, drain: bool = False, timeout: float = 5.0) -> None:
        """Stop the server.

        With ``drain=False`` (the default) every live connection is
        dropped immediately.  With ``drain=True`` the listener closes at
        once but requests already being dispatched get up to ``timeout``
        seconds to finish and flush their responses before connections
        are torn down.
        """
        self._running = False
        loop = self._loop
        if loop is None:
            # Never started: just release the port.
            try:
                self._listener.close()
            except OSError:
                pass
            return
        closed = threading.Event()

        def _close_listener() -> None:
            try:
                if self._aserver is not None:
                    self._aserver.close()
            finally:
                closed.set()

        if not loop.is_closed():
            try:
                loop.call_soon_threadsafe(_close_listener)
                closed.wait(timeout=2.0)
            except RuntimeError:
                pass  # the loop shut down under us
        if drain:
            with self._idle:
                self._idle.wait_for(lambda: self._in_flight == 0, timeout=timeout)
        if not loop.is_closed() and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=max(timeout, 5.0))
            self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        try:
            self._listener.close()
        except OSError:
            pass
