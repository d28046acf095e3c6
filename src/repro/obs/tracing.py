"""Span-based tracing for the chunk→key→CAONT→stub→store pipeline.

A :class:`Tracer` hands out :class:`Span` context managers::

    tracer = Tracer(registry)
    with tracer.span("upload") as root:
        with tracer.span("upload.key_derive", chunks=128):
            ...

Every finished span records its wall time into the registry histogram
``span_seconds{span="upload.key_derive"}``, so latency distributions
fall out of tracing for free; the span objects additionally link into an
in-memory tree (parent/children) kept in a bounded ring of recent root
traces for the ``reed top`` view and for tests.

Distributed context: every span carries a ``trace_id`` (shared by the
whole logical operation), its own ``span_id``, and its parent's
``parent_span_id``.  The active span lives in a
:class:`contextvars.ContextVar` — the same mechanism as
:mod:`repro.obs.scope` — so work handed to a pipeline worker under
``contextvars.copy_context()`` keeps its place in the trace, and the
RPC layer can stamp the active context onto outgoing requests
(:func:`current_trace_context`).  A server that receives such a request
opens a :meth:`Tracer.remote_span`: locally a root (it lands in this
tracer's ring), but annotated with the propagated ids so
:mod:`repro.obs.propagate` can splice it back under the client span
that caused it.  Plain ``threading.Thread`` workers still start fresh
roots — each thread begins with an empty context.

Slow-span sampling: any finished span whose duration reaches
:data:`SLOW_THRESHOLD` is recorded (as a plain dict, trace ids included) in
a bounded ring served by ``reed slow`` — the "what was slow lately and
in which trace" view.

The clock is injectable: ``Tracer(clock=sim_clock)`` lets a
deterministic test drive span timings from a
:class:`~repro.util.clock.SimClock` instead of ``time.perf_counter`` and
pin exact durations on the same span names and histograms as a real
run.  ``time.time`` supplies the absolute ``start_time``/``end_time``
stamps used for cross-node merge ordering; an injected ``clock``
doubles as the wall clock, keeping simulated traces fully
deterministic.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Callable
from contextvars import ContextVar

from repro.obs.metrics import MetricsRegistry, default_registry

#: Histogram recording every span's duration, labeled by span name.
SPAN_HISTOGRAM = "span_seconds"

#: Completed root traces retained per tracer.
TRACE_RING = 32

#: Slow-span sampling threshold (seconds) and ring size.
SLOW_THRESHOLD = 0.1
SLOW_RING = 64

#: The active span for the current context (shared across tracers so the
#: RPC layer can read it without knowing which tracer opened it; span
#: *parenting* still checks tracer ownership, so two tracers in one
#: context do not adopt each other's spans).
_ACTIVE_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_obs_active_span", default=None
)


def _new_id() -> str:
    """A 64-bit random hex id (trace and span ids)."""
    return os.urandom(8).hex()


def current_trace_context() -> tuple[str, str]:
    """``(trace_id, span_id)`` of the active span, or ``("", "")``.

    The injection point for trace propagation: the RPC client stamps
    this onto outgoing requests so server-side handler spans join the
    caller's trace.
    """
    span = _ACTIVE_SPAN.get()
    if span is None:
        return ("", "")
    return (span.trace_id, span.span_id)


class Span:
    """One timed operation; a node in a trace tree."""

    __slots__ = (
        "name", "attributes", "parent", "children",
        "start_time", "end_time", "error",
        "trace_id", "span_id", "parent_span_id", "node",
        "start_wall", "end_wall", "owner",
    )

    def __init__(
        self,
        name: str,
        attributes: dict,
        parent: "Span | None",
        trace_id: str | None = None,
        parent_span_id: str | None = None,
        node: str | None = None,
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.parent = parent
        self.children: list[Span] = []
        self.start_time: float = 0.0
        self.end_time: float | None = None
        self.error: str | None = None
        self.span_id = _new_id()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        else:
            self.trace_id = trace_id or _new_id()
            self.parent_span_id = parent_span_id or ""
        self.node = node
        #: The tracer that created this span (parenting is per tracer;
        #: set by the tracer right after construction).
        self.owner: object | None = None
        #: Absolute (wall-clock) timestamps — comparable across nodes,
        #: unlike the monotonic ``start_time``/``end_time`` pair that
        #: feeds ``duration``.
        self.start_wall: float = 0.0
        self.end_wall: float | None = None

    @property
    def duration(self) -> float | None:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def tree(self) -> dict:
        """This span and its subtree as plain dicts (JSON-friendly).

        ``start_time``/``end_time`` are the absolute wall-clock stamps
        (cross-node merge ordering needs comparable timestamps); the
        monotonic pair stays internal to :attr:`duration`.
        """
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "node": self.node,
            "attributes": dict(self.attributes),
            "start_time": self.start_wall,
            "end_time": self.end_wall,
            "duration": self.duration,
            "error": self.error,
            "children": [child.tree() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, duration={self.duration})"


def format_trace(span: Span, indent: str = "") -> str:
    """Render a span tree as an indented text block."""
    duration = span.duration
    timing = f"{duration * 1000:.3f} ms" if duration is not None else "open"
    attrs = (
        " " + " ".join(f"{k}={v}" for k, v in span.attributes.items())
        if span.attributes
        else ""
    )
    flag = " !" + span.error if span.error else ""
    lines = [f"{indent}{span.name} [{timing}]{attrs}{flag}"]
    for child in span.children:
        lines.append(format_trace(child, indent + "  "))
    return "\n".join(lines)


class _SpanHandle:
    """Context manager binding one span to one tracer activation."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = self._tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.span.error = type(exc).__name__
        self._tracer._pop(self.span, self._token)


class Tracer:
    """Creates spans, records their durations, keeps recent root traces.

    ``node`` names the process/service this tracer observes (e.g.
    ``storage-0``); every span it creates carries the name, which is how
    merged cross-node traces attribute handler spans to shard nodes.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
        node: str | None = None,
    ) -> None:
        self._metrics = metrics if metrics is not None else default_registry()
        self._clock = clock if clock is not None else time.perf_counter
        # An injected (e.g. simulated) clock doubles as the wall clock so
        # deterministic traces get deterministic absolute stamps.
        self._wall_clock = time.time if clock is None else clock
        self._histogram = self._metrics.histogram(
            SPAN_HISTOGRAM, "Span wall time by span name.", labelnames=("span",)
        )
        self.node = node
        self._lock = threading.Lock()
        self._recent: deque[Span] = deque(maxlen=TRACE_RING)
        self._slow: deque[dict] = deque(maxlen=SLOW_RING)

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attributes) -> _SpanHandle:
        """A context manager for one timed operation.

        The parent is the active span *of this tracer* in the current
        context; a span another tracer opened is not adopted (its trace
        context still propagates over RPC — see
        :func:`current_trace_context`).
        """
        span = Span(name, attributes, self._open_parent(), node=self.node)
        span.owner = self
        return _SpanHandle(self, span)

    def _open_parent(self) -> Span | None:
        active = _ACTIVE_SPAN.get()
        parent = active if active is not None and active.owner is self else None
        while parent is not None and parent.end_time is not None:
            # A finished span cannot adopt new children (a context that
            # outlived its span — generator pipelines); climb to the
            # nearest still-open ancestor.
            parent = parent.parent
        return parent

    def remote_span(
        self, name: str, trace_id: str, parent_span_id: str, **attributes
    ) -> _SpanHandle:
        """A span continuing a trace propagated from another process.

        Locally a root (it lands in this tracer's ring and the local
        active-span context nests under it), but stamped with the
        caller's ``trace_id``/``parent_span_id`` so the propagate merger
        can splice it back under the originating client span.
        """
        span = Span(
            name,
            attributes,
            None,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
            node=self.node,
        )
        span.owner = self
        return _SpanHandle(self, span)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span over ``[start, end]`` of :attr:`clock`
        under the active span, without making it active.

        For work timed in pieces between other work on one thread (the
        chunker, interleaved with the upload loop), where a span per
        piece would be too many.
        """
        span = Span(name, {}, self._open_parent(), node=self.node)
        span.owner = self
        to_wall = self._wall_clock() - self._clock()
        span.start_time, span.end_time = start, end
        span.start_wall, span.end_wall = start + to_wall, end + to_wall
        if span.parent is not None:
            span.parent.children.append(span)
        self._finish(span)

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    def _push(self, span: Span):
        if span.parent is not None:
            span.parent.children.append(span)
        token = _ACTIVE_SPAN.set(span)
        span.start_time = self._clock()
        span.start_wall = self._wall_clock()
        return token

    def _pop(self, span: Span, token) -> None:
        span.end_time = self._clock()
        span.end_wall = self._wall_clock()
        try:
            _ACTIVE_SPAN.reset(token)
        except ValueError:
            # The span was entered in a different context than it exited
            # in (generator-driven pipelines); restore the parent
            # explicitly instead of via the stale token.
            _ACTIVE_SPAN.set(span.parent)
        self._finish(span)

    def _finish(self, span: Span) -> None:
        """Record a closed span: histogram, ring of roots, slow ring."""
        duration = span.duration or 0.0
        self._histogram.labels(span=span.name).observe(duration)
        record_slow = duration >= SLOW_THRESHOLD
        if span.parent is None or record_slow:
            with self._lock:
                if span.parent is None:
                    self._recent.append(span)
                if record_slow:
                    self._slow.append(
                        {
                            "name": span.name,
                            "trace_id": span.trace_id,
                            "span_id": span.span_id,
                            "parent_span_id": span.parent_span_id,
                            "node": span.node,
                            "start_time": span.start_wall,
                            "duration": duration,
                            "attributes": dict(span.attributes),
                            "error": span.error,
                        }
                    )

    # -- inspection --------------------------------------------------------

    def current_span(self) -> Span | None:
        """The active span in this context, if this tracer created it."""
        active = _ACTIVE_SPAN.get()
        if active is not None and active.owner is self:
            return active
        return None

    def recent_traces(self) -> list[Span]:
        """Completed root spans, oldest first (bounded ring)."""
        with self._lock:
            return list(self._recent)

    def last_trace(self) -> Span | None:
        with self._lock:
            return self._recent[-1] if self._recent else None

    def slow_spans(self) -> list[dict]:
        """Threshold-sampled slow spans, oldest first (bounded ring)."""
        with self._lock:
            return list(self._slow)


#: Process-wide tracer over the default registry — components that are
#: not handed a tracer share this one, so their spans land in the same
#: ``span_seconds`` histogram a scrape of the default registry exports.
_DEFAULT_TRACER = Tracer()


def default_tracer() -> Tracer:
    return _DEFAULT_TRACER


def reset_default_tracer() -> Tracer:
    """Replace the process default tracer (tests only — pairs with
    :func:`~repro.obs.metrics.reset_default_registry`)."""
    global _DEFAULT_TRACER
    _DEFAULT_TRACER = Tracer()
    return _DEFAULT_TRACER
