"""A small synchronous RPC layer.

A :class:`ServiceRegistry` maps method names to handlers (payload bytes
in, payload bytes out).  Library exceptions raised by handlers are
serialized by class name and re-raised as the *same class* on the
client, so e.g. a :class:`RateLimitExceeded` from the key manager
travels through TCP intact and the client's back-off logic does not care
whether the key manager is local or remote.

Both ends are instrumented through :mod:`repro.obs`: the registry
records server-side ``rpc_requests_total`` / ``rpc_handler_seconds`` per
method, and every :class:`RpcClient` records per-method latency and
payload bytes.  Registries are injectable so each node of a
:class:`~repro.core.cluster.TcpCluster` exposes its own series; the
process default registry is used otherwise.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from contextlib import nullcontext

from repro.net.message import Message
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import Tracer, current_trace_context, default_tracer
from repro.util import errors
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ProtocolError, ReproError

#: A handler maps the request payload to the reply payload.  A large
#: request's payload arrives as a read-only ``memoryview`` of the frame
#: received in place; it is copied to ``bytes`` first unless the handler
#: has a true ``reads_views`` attribute (the service codec's handlers).
Handler = Callable[[bytes], bytes]

#: Exception classes allowed to cross the wire by name.
_WIRE_ERRORS: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        errors.ReproError,
        errors.ConfigurationError,
        errors.IntegrityError,
        errors.CorruptionError,
        errors.AccessDeniedError,
        errors.KeyManagerError,
        errors.RateLimitExceeded,
        errors.StorageError,
        errors.NotFoundError,
        errors.ProtocolError,
    )
}


def encode_error(exc: Exception) -> bytes:
    name = type(exc).__name__ if type(exc).__name__ in _WIRE_ERRORS else "ReproError"
    return Encoder().text(name).text(str(exc)).done()


def decode_error(payload: bytes) -> ReproError:
    dec = Decoder(payload)
    name = dec.text()
    message = dec.text()
    dec.expect_end()
    return _WIRE_ERRORS.get(name, ReproError)(message)


class ServiceRegistry:
    """Method-name → handler dispatch table shared by all transports.

    Dispatch is metered: every request bumps
    ``rpc_requests_total{method=...}`` and records handler wall time in
    ``rpc_handler_seconds{method=...}`` on ``metrics`` (the process
    default registry unless a per-node registry is injected).  ``clock``
    is injectable for deterministic tests.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.perf_counter,
        tracer: Tracer | None = None,
    ) -> None:
        self._handlers: dict[str, Handler] = {}
        self._clock = clock
        #: Handler spans for propagated trace contexts land here; a
        #: cluster injects the node's tracer so the span carries the
        #: node name, otherwise the process default is used.
        self._tracer = tracer
        self.metrics = metrics if metrics is not None else default_registry()
        self._requests = self.metrics.counter(
            "rpc_requests_total",
            "RPC requests dispatched, by method.",
            labelnames=("method",),
        )
        self._errors = self.metrics.counter(
            "rpc_errors_total",
            "RPC requests that produced an error reply, by method.",
            labelnames=("method",),
        )
        self._handler_seconds = self.metrics.histogram(
            "rpc_handler_seconds",
            "Server-side handler wall time, by method.",
            labelnames=("method",),
        )
        self._request_bytes = self.metrics.counter(
            "rpc_request_payload_bytes_total",
            "Request payload bytes received, by method.",
            labelnames=("method",),
        )
        self._response_bytes = self.metrics.counter(
            "rpc_response_payload_bytes_total",
            "Response payload bytes produced, by method.",
            labelnames=("method",),
        )

    @property
    def tracer(self) -> Tracer:
        """The tracer handler spans land on (the process default unless
        one was injected)."""
        return self._tracer if self._tracer is not None else default_tracer()

    def register(self, method: str, handler: Handler) -> None:
        if method in self._handlers:
            raise ProtocolError(f"method {method!r} registered twice")
        self._handlers[method] = handler

    def methods(self) -> list[str]:
        return sorted(self._handlers)

    def dispatch(self, request: Message) -> Message:
        """Run a handler, converting exceptions into error replies."""
        method = request.method
        self._requests.labels(method=method).inc()
        self._request_bytes.labels(method=method).inc(len(request.payload))
        handler = self._handlers.get(method)
        if handler is None:
            self._errors.labels(method=method).inc()
            return Message(
                message_id=request.message_id,
                method=method,
                is_error=True,
                payload=encode_error(ProtocolError(f"unknown method {method!r}")),
            )
        # A request carrying trace context gets a handler span continuing
        # the caller's trace (the distributed half of the span tree);
        # untraced requests stay span-free, exactly as before.  The
        # handler runs outside the caller's attribution scope, as it does
        # on a server thread, so an in-process dispatch counts nothing
        # its caller's stub has not already counted.
        if request.trace_id:
            span = self.tracer.remote_span(
                f"rpc.{method}", request.trace_id, request.parent_span_id
            )
        else:
            span = nullcontext()
        started = self._clock()
        payload = request.payload
        if not isinstance(payload, bytes) and not getattr(handler, "reads_views", False):
            payload = bytes(payload)
        try:
            with span, obs_scope.using(None):
                payload = handler(payload)
        except Exception as exc:  # noqa: BLE001 - faults must cross the wire
            self._handler_seconds.labels(method=method).observe(
                self._clock() - started
            )
            self._errors.labels(method=method).inc()
            return Message(
                message_id=request.message_id,
                method=method,
                is_error=True,
                payload=encode_error(exc),
            )
        self._handler_seconds.labels(method=method).observe(self._clock() - started)
        self._response_bytes.labels(method=method).inc(len(payload))
        return Message(
            message_id=request.message_id,
            method=method,
            is_error=False,
            payload=payload,
        )


class RpcClient:
    """Client over any transport that can round-trip a :class:`Message`.

    ``send`` is a callable mapping a request Message to a response
    Message; transports provide it (direct dispatch for in-memory, framed
    sockets for TCP).
    """

    def __init__(
        self,
        send: Callable[[Message], Message],
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._send = send
        self._next_id = 0
        self._lock = threading.Lock()
        self._clock = clock
        self.metrics = metrics if metrics is not None else default_registry()
        self._requests = self.metrics.counter(
            "rpc_client_requests_total",
            "Client-side RPC round trips issued, by method.",
            labelnames=("method",),
        )
        self._client_errors = self.metrics.counter(
            "rpc_client_errors_total",
            "Client-side RPC calls that raised, by method.",
            labelnames=("method",),
        )
        self._latency = self.metrics.histogram(
            "rpc_client_seconds",
            "Client-observed round-trip latency, by method.",
            labelnames=("method",),
        )
        self._request_bytes = self.metrics.counter(
            "rpc_client_request_bytes_total",
            "Request payload bytes sent, by method.",
            labelnames=("method",),
        )
        self._response_bytes = self.metrics.counter(
            "rpc_client_response_bytes_total",
            "Response payload bytes received, by method.",
            labelnames=("method",),
        )

    def call(self, method: str, payload: bytes = b"") -> bytes:
        """The reply payload: ``bytes``, or a read-only ``memoryview`` for
        a large reply received in place over TCP."""
        with self._lock:
            self._next_id += 1
            message_id = self._next_id
        # Stamp the active span's trace context (empty outside a span)
        # onto the request, so the server's handler span joins this
        # operation's trace.
        trace_id, parent_span_id = current_trace_context()
        request = Message(
            message_id=message_id,
            method=method,
            is_error=False,
            payload=payload,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
        )
        self._requests.labels(method=method).inc()
        self._request_bytes.labels(method=method).inc(len(payload))
        started = self._clock()
        try:
            response = self._send(request)
        except Exception:
            self._latency.labels(method=method).observe(self._clock() - started)
            self._client_errors.labels(method=method).inc()
            raise
        self._latency.labels(method=method).observe(self._clock() - started)
        if response.message_id != message_id:
            self._client_errors.labels(method=method).inc()
            raise ProtocolError(
                f"response id {response.message_id} does not match request {message_id}"
            )
        if response.is_error:
            self._client_errors.labels(method=method).inc()
            raise decode_error(response.payload)
        self._response_bytes.labels(method=method).inc(len(response.payload))
        return response.payload


class LoopbackTransport:
    """Zero-copy in-process transport: dispatch straight into a registry.

    An optional ``on_message(request_bytes, response_bytes)`` hook
    receives the encoded bytes that *would* have crossed the network
    (the zero-copy path without a hook never serializes).
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        on_message=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._registry = registry
        self._on_message = on_message
        self._metrics = metrics

    def client(self) -> RpcClient:
        def send(request: Message) -> Message:
            response = self._registry.dispatch(request)
            if self._on_message is not None:
                self._on_message(request.encode(), response.encode())
            return response

        return RpcClient(send, metrics=self._metrics)
