"""Spans measured from outside the program (source **P**).

A traced run wraps timing proxies around the three collaborators a
:class:`~repro.core.client.REEDClient` is given — ``key_client``,
``storage`` and ``keystore`` — and records one span per public call:
name, start, end, the operation that caused it and the thread it ran on.
Spans stay in memory and are written out when the run ends.  Tracing
inside ``src/`` is a later issue; nothing here touches the program.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass

#: Proxy layer + method → the per-layer metric group the call's time is
#: charged to.  Methods of ``storage`` not named here are metadata calls.
_STORAGE_GROUPS = {
    "chunk_put_many": "core.system.chunk_put",
    "chunk_put_batch": "core.system.chunk_put",
    "chunk_get_batch": "core.system.chunk_get",
    "chunk_release_batch": "core.system.release",
    "gc_run": "storage.gc.run",
    "gc_status": "storage.gc.run",
}
GROUPS = (
    "mle.derive",
    "core.system.chunk_put",
    "core.system.chunk_get",
    "core.system.meta",
    "core.system.release",
    "storage.keystore",
    "storage.gc.run",
)


def group_of(layer: str, name: str) -> str:
    if layer == "mle":
        return "mle.derive"
    if layer == "storage.keystore":
        return "storage.keystore"
    return _STORAGE_GROUPS.get(name, "core.system.meta")


@dataclass(frozen=True)
class Span:
    id: int
    #: The span that caused this one; ``None`` for an operation's root.
    parent: int | None
    #: Identifier shared by every span of one client operation.
    op: int
    layer: str
    name: str
    start: float
    end: float
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span sink shared by every probe of one run."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(
        self,
        layer: str,
        name: str,
        start: float,
        end: float,
        op: int,
        parent: int | None,
        span_id: int | None = None,
    ) -> None:
        with self._lock:
            self._spans.append(
                Span(
                    id=span_id if span_id is not None else next(self._ids),
                    parent=parent,
                    op=op,
                    layer=layer,
                    name=name,
                    start=start,
                    end=end,
                    thread=threading.get_ident(),
                )
            )

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {**header, "spans": [asdict(span) for span in self.spans()]}, handle
            )


class _SpanProxy:
    """Forwards everything to ``target``; times each public call.

    The client probes its collaborators with ``getattr`` (optional batch
    methods, ``supports_attribution``), so attribute access must behave
    exactly like the target's.
    """

    def __init__(self, target, layer: str, probe: "ClientProbe") -> None:
        self.__dict__.update(_target=target, _layer=layer, _probe=probe)

    def __getattr__(self, name: str):
        attr = getattr(self._target, name)
        if name.startswith("_") or not callable(attr):
            return attr
        layer, probe = self._layer, self._probe

        def timed(*args, **kwargs):
            op = probe.op
            if op is None:
                return attr(*args, **kwargs)
            start = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                probe.log.add(layer, name, start, time.perf_counter(), op, op)

        # Later lookups find the wrapper without coming through here.
        self.__dict__[name] = timed
        return timed


class ClientProbe:
    """The proxies around one client, and the operation it is running.

    A closed-loop client runs one operation at a time, so the operation
    id lives here rather than in a context variable: the client hands
    work to its own ship/prefetch threads, which would not inherit one.
    """

    def __init__(self, client, log: SpanLog) -> None:
        self.log = log
        #: Root span id of the operation in flight; ``None`` outside the
        #: measured phase, when calls pass through untimed.
        self.op: int | None = None
        client.key_client = _SpanProxy(client.key_client, "mle", self)
        client.storage = _SpanProxy(client.storage, "core.system", self)
        client.keystore = _SpanProxy(client.keystore, "storage.keystore", self)


# -- analysis -----------------------------------------------------------------


@dataclass(frozen=True)
class OpBreakdown:
    """Where one operation's caller thread spent its wall time."""

    op: int
    wall: float
    #: Caller thread blocked inside proxied calls.
    blocked: float
    #: Caller thread between proxied calls: the client's own work
    #: (chunking, CAONT, stubs, ABE, key regression, glue) plus waiting
    #: on its helper threads — ``core.client`` self time.
    other: float


def op_breakdown(root: Span, children: list[Span]) -> OpBreakdown:
    """Split ``root``'s wall time by walking its caller-thread timeline.

    ``blocked`` and ``other`` are summed independently (span durations
    vs. the gaps between them), so ``blocked + other == wall`` only
    holds when the spans neither overlap nor spill outside the
    operation — which :func:`additivity_error` checks.
    """
    own = sorted(
        (span for span in children if span.thread == root.thread),
        key=lambda span: span.start,
    )
    blocked = sum(span.seconds for span in own)
    other = 0.0
    cursor = root.start
    for span in own:
        other += max(0.0, span.start - cursor)
        cursor = max(cursor, span.end)
    other += max(0.0, root.end - cursor)
    return OpBreakdown(op=root.op, wall=root.seconds, blocked=blocked, other=other)


def additivity_error(breakdown: OpBreakdown) -> float:
    """``|blocked + other − wall| ÷ wall`` for one operation."""
    if breakdown.wall <= 0:
        return 0.0
    return abs(breakdown.blocked + breakdown.other - breakdown.wall) / breakdown.wall


def store_overlap_share(roots: list[Span], by_op: dict[int, list[Span]]) -> float | None:
    """``1 − blocked ÷ busy`` of chunk puts across upload operations.

    ``busy`` is the time the ship thread spends inside chunk puts.  The
    caller thread drains the pipeline right before ``flush``, so from
    outside its wait is visible as the stretch from the start of the
    last chunk put to the start of the caller's next proxied call; waits
    for a full pipeline mid-file cannot be seen and count as overlapped,
    which makes this an upper bound.
    """
    busy = 0.0
    blocked = 0.0
    for root in roots:
        children = by_op.get(root.op, [])
        puts = [
            span
            for span in children
            if group_of(span.layer, span.name) == "core.system.chunk_put"
        ]
        if not puts:
            continue
        busy += sum(span.seconds for span in puts)
        last = max(puts, key=lambda span: span.start)
        if last.thread == root.thread:
            # Unpipelined client: every put blocks the caller in full.
            blocked += sum(span.seconds for span in puts)
            continue
        resumed = min(
            (
                span.start
                for span in children
                if span.thread == root.thread and span.start >= last.start
            ),
            default=root.end,
        )
        blocked += min(last.seconds, max(0.0, resumed - last.start))
    if busy <= 0:
        return None
    return 1.0 - blocked / busy


def group_by_op(spans: list[Span]) -> tuple[list[Span], dict[int, list[Span]]]:
    """Root spans in start order, and each operation's child spans."""
    roots = sorted(
        (span for span in spans if span.parent is None), key=lambda span: span.start
    )
    by_op: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_op.setdefault(span.op, []).append(span)
    return roots, by_op


def layer_table(spans: list[Span], wall: float) -> list[tuple[str, float, float, int]]:
    """``(group, busy seconds, share of wall, calls)`` per proxied group."""
    busy: dict[str, float] = dict.fromkeys(GROUPS, 0.0)
    calls: dict[str, int] = dict.fromkeys(GROUPS, 0)
    for span in spans:
        if span.parent is None:
            continue
        group = group_of(span.layer, span.name)
        busy[group] += span.seconds
        calls[group] += 1
    return [
        (group, busy[group], busy[group] / wall if wall > 0 else 0.0, calls[group])
        for group in GROUPS
    ]
