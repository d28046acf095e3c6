"""Retry policy for RPC calls.

Transient faults — a dropped TCP connection, a server restarting, a
timeout — surface as :class:`ProtocolError`/:class:`OSError` from the
transport.  Only the reads and info calls listed in
:data:`IDEMPOTENT_METHOD_SUFFIXES` are retried: repeating one changes
nothing on the server.  Writes are not retried, because they are not
idempotent: a repeated ``storage.put_many`` counts each chunk's
reference twice, and a repeated ``storage.release`` drops a reference
twice (ROADMAP item 18).  After a fault, whether a write landed is unknown, so the fault
reaches the caller.

:class:`RetryPolicy` implements capped exponential backoff;
:class:`~repro.net.tcp.TcpConnection` runs every request whose method
passes :func:`is_idempotent_method` through it, reconnecting between
attempts.  Library errors that represent *semantic* failures (NotFound,
AccessDenied, Integrity, RateLimit — which has its own backoff
protocol) are never retried here.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.util.errors import ConfigurationError, ProtocolError, ReproError

#: Exception types considered transient (safe to retry).
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (ProtocolError, OSError)

#: Wire-method name suffixes (the part after the service prefix, e.g.
#: ``storage.has_many`` → ``has_many``) that are safe to retry blind on a
#: broken connection: pure reads plus side-effect-free info calls.  No
#: write is listed (see the module docstring).
IDEMPOTENT_METHOD_SUFFIXES: frozenset[str] = frozenset(
    {
        "has_many",
        "get",
        "get_many",
        "recipe_get_many",
        "recipe_list",
        "file_get_many",
        "chunk_list",
        "refcounts",
        "stub_list",
        "gc_status",
        "public_key",
        "backoff_hint",
        "metrics",
    }
)


def is_idempotent_method(method: str) -> bool:
    """True when ``method`` may be transparently retried after a
    reconnect (see :data:`IDEMPOTENT_METHOD_SUFFIXES`)."""
    return method.rsplit(".", 1)[-1] in IDEMPOTENT_METHOD_SUFFIXES


class RetryPolicy:
    """Capped exponential backoff: ``base * 2^attempt``, up to ``cap``."""

    def __init__(
        self,
        attempts: int = 4,
        base_delay: float = 0.05,
        cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("need at least one attempt")
        if base_delay < 0 or cap < 0:
            raise ConfigurationError("delays must be non-negative")
        self.attempts = attempts
        self.base_delay = base_delay
        self.cap = cap
        self._sleep = sleep

    def delay(self, attempt: int) -> float:
        return min(self.cap, self.base_delay * (2**attempt))

    def run(self, operation: Callable[[], bytes]) -> bytes:
        """Run ``operation``, retrying transient failures."""
        last: BaseException | None = None
        for attempt in range(self.attempts):
            try:
                return operation()
            except TRANSIENT_ERRORS as exc:
                last = exc
                if attempt + 1 < self.attempts:
                    self._sleep(self.delay(attempt))
            except ReproError:
                raise  # semantic failure: never retry
        raise ProtocolError(
            f"operation failed after {self.attempts} attempts: {last}"
        ) from last

