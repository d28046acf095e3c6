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

import random
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
    """Capped exponential backoff: ``base * 2^attempt``, up to ``cap``.

    ``jitter`` spreads the capped delay uniformly over
    ``[delay * (1 - jitter), delay]`` so a fleet of clients retrying the
    same outage does not stampede the server in lockstep.  The jitter
    source is injectable (``rng``) so tests can seed it and assert the
    exact delay sequence.
    """

    def __init__(
        self,
        attempts: int = 4,
        base_delay: float = 0.05,
        cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        jitter: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError("need at least one attempt")
        if base_delay < 0 or cap < 0:
            raise ConfigurationError("delays must be non-negative")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError("jitter must be a fraction in [0, 1]")
        self.attempts = attempts
        self.base_delay = base_delay
        self.cap = cap
        self.jitter = jitter
        self._rng = rng or random.Random()
        self._sleep = sleep

    def delay(self, attempt: int) -> float:
        delay = min(self.cap, self.base_delay * (2**attempt))
        if self.jitter:
            delay *= 1.0 - self.jitter * self._rng.random()
        return delay

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

