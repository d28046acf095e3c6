"""Per-operation counter attribution scopes.

The problem this solves: :class:`~repro.core.client.REEDClient.upload`
used to report its share of the key client's lifetime counters by
reading them before and after the upload (``getattr(..., 0)`` diffing).
With two uploads running concurrently on a shared client, each upload's
diff swallowed the other's increments — the counts cross-contaminated.

An :class:`AttributionScope` fixes that: the instrumented components
(:class:`~repro.mle.server_aided.ServerAidedKeyClient`,
:class:`~repro.storage.sharding.ShardedStorageService`) call
:func:`add` at the same sites where they bump their registry counters,
and whichever operation is active *in the current context* collects the
delta.  Scopes live in a :class:`contextvars.ContextVar`, so concurrent
uploads — whether on different threads or interleaved on one — each see
exactly their own increments.  Work a scope owner hands to another
thread keeps its attribution by running under
``contextvars.copy_context()`` (the upload pipeline does this for its
ship worker).

Scopes nest: an inner scope's increments also propagate to enclosing
scopes, so a group operation can wrap several uploads and read the
rolled-up totals.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar

_CURRENT: ContextVar["AttributionScope | None"] = ContextVar(
    "repro_obs_scope", default=None
)


class AttributionScope:
    """A bag of named counter deltas for one logical operation."""

    __slots__ = ("_lock", "_counts", "_parent")

    def __init__(self, parent: "AttributionScope | None" = None) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, float] = {}
        self._parent = parent

    def add(self, name: str, amount: float = 1.0) -> None:
        # The same scope object may receive adds from several threads
        # (pipelined upload stages), hence the lock.
        with self._lock:
            self._counts[name] = self._counts.get(name, 0.0) + amount
        if self._parent is not None:
            self._parent.add(name, amount)

    def get(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._counts.get(name, default)

    def get_int(self, name: str) -> int:
        return int(self.get(name))

    def counts(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counts)


def add(name: str, amount: float = 1.0) -> None:
    """Record ``amount`` against the active scope (no-op outside one)."""
    scope = _CURRENT.get()
    if scope is not None:
        scope.add(name, amount)


def current() -> AttributionScope | None:
    return _CURRENT.get()


@contextmanager
def attribution():
    """Open a scope for one logical operation; yields the scope."""
    scope = AttributionScope(parent=_CURRENT.get())
    token = _CURRENT.set(scope)
    try:
        yield scope
    finally:
        _CURRENT.reset(token)


@contextmanager
def using(scope: AttributionScope):
    """Install an *existing* scope as the active one for a block.

    :func:`attribution` covers the common case — one ``with`` block, one
    operation.  Generator-driven pipelines cannot use it: a ContextVar
    set inside a generator body leaks into whatever context the caller
    resumes the generator from.  Such code creates the scope object
    explicitly and wraps each contiguous (non-yielding) stretch of work
    — including closures handed to worker threads — in ``using(scope)``,
    so every increment lands in the operation's scope and nothing leaks
    past a ``yield``.
    """
    token = _CURRENT.set(scope)
    try:
        yield scope
    finally:
        _CURRENT.reset(token)
