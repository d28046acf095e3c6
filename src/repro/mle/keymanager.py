"""The REED key manager (DupLESS-style server-aided MLE key generation).

The key manager holds a system-wide RSA keypair (the paper uses 1024-bit
RSA, Section V-A).  Clients send *blinded* chunk fingerprints in batches;
the key manager answers each with a blind RSA signature — one private-key
operation per chunk — without ever learning the fingerprints (oblivious
key generation, Section III-B).

To slow online brute-force attacks from compromised clients, requests are
rate-limited per client with a token bucket (Section II-A).  The manager
also keeps per-client accounting used by the evaluation harness.

Signing is the one CPU-heavy step of an upload that the client cannot
parallelise for itself.  Each signature is one private RSA operation:
three exponentiations on OpenSSL's Montgomery kernel
(:mod:`repro.crypto.modexp`, about 0.15 ms for a 1024-bit three-prime
key), which run without the GIL, but the reductions, conversions and
CRT recombination around them hold it.  So every admitted batch, a small
file's few values included, is signed in contiguous spans on worker
*processes*
(:class:`~repro.util.spanpool.SpanPool`).  Workers receive the private
key once, when they start; per batch only blinded values go out and
signatures come back.  Admission — size cap, domain check, rate limit —
happens on the handler thread before any worker sees a value; after it,
the handler thread only hands off and waits.  It signs a batch itself
only where no second process can help: a single value (nothing to
split), a one-worker host, a host without process pools, and the redo
of a batch whose worker died (after which the pool stays off processes).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.crypto import blindrsa
from repro.crypto.drbg import RandomSource
from repro.crypto.rsa import DEFAULT_KEY_BITS, RSAPrivateKey, RSAPublicKey, generate_keypair
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import Tracer, default_tracer
from repro.util.errors import ConfigurationError, RateLimitExceeded
from repro.util.spanpool import SpanPool
from repro.util.tokenbucket import TokenBucket

#: Default per-client sustained request rate (chunk keys per second).
#: Generous enough for legitimate backup workloads (the paper's key
#: manager saturates around 1600 signatures/s) while bounding brute force.
DEFAULT_RATE_LIMIT = 8192.0

#: Default burst: one maximum-size batch.
DEFAULT_BURST = 16384.0

#: Worker processes only: the key installed when the worker started.
_SIGNING_KEY: RSAPrivateKey | None = None


def _hold_signing_key(private_key: RSAPrivateKey) -> None:
    global _SIGNING_KEY
    _SIGNING_KEY = private_key


def _sign_span(blinded_values: list[int]) -> list[int]:
    """Worker entry point: sign one span with the key held since start-up."""
    return [_SIGNING_KEY.apply(value) for value in blinded_values]


@dataclass
class ClientQuota:
    """Per-client rate-limit state and accounting."""

    bucket: TokenBucket
    requests: int = 0
    rejected: int = 0


@dataclass
class KeyManagerStats:
    """Counters exposed for the evaluation harness."""

    clients: int = 0
    signatures: int = 0
    batches: int = 0
    rejected: int = 0
    busy_seconds: float = 0.0


class KeyManager:
    """Transport-agnostic key-manager core.

    The networked deployment wraps this class behind an RPC service
    (:mod:`repro.net.rpc`); tests and single-process experiments call it
    directly.
    """

    def __init__(
        self,
        private_key: RSAPrivateKey | None = None,
        key_bits: int = DEFAULT_KEY_BITS,
        rate_limit: float = DEFAULT_RATE_LIMIT,
        burst: float = DEFAULT_BURST,
        rng: RandomSource | None = None,
        clock=time.monotonic,
    ) -> None:
        if private_key is None:
            private_key = generate_keypair(key_bits, rng=rng)
        self._private_key = private_key
        self._rate_limit = rate_limit
        self._burst = burst
        self._clock = clock
        self._quotas: dict[str, ClientQuota] = {}
        self._lock = threading.Lock()
        self.stats = KeyManagerStats()
        self._signers = SpanPool(
            initializer=_hold_signing_key, initargs=(private_key,)
        )
        self.observe_on(default_registry(), default_tracer())

    def observe_on(self, metrics: MetricsRegistry, tracer: Tracer) -> None:
        """Report signing telemetry on ``metrics`` / ``tracer``.

        The process defaults until the node that serves this manager
        binds its own (:func:`~repro.core.service.register_key_manager`),
        so the series show up in that node's scrape.
        """
        self._tracer = tracer
        self._sign_batches = metrics.counter(
            "km_sign_batches_total",
            "Admitted signing batches, by where they were signed "
            "(parallel: on worker processes; serial: on the handler thread).",
            labelnames=("mode",),
        )

    def close(self) -> None:
        """Reap the signing workers (they restart on the next batch)."""
        self._signers.close()

    @property
    def public_key(self) -> RSAPublicKey:
        """The system-wide public key clients blind against."""
        return self._private_key.public

    def _quota_for(self, client_id: str) -> ClientQuota:
        with self._lock:
            quota = self._quotas.get(client_id)
            if quota is None:
                quota = ClientQuota(
                    bucket=TokenBucket(self._rate_limit, self._burst, clock=self._clock)
                )
                self._quotas[client_id] = quota
                self.stats.clients += 1
            return quota

    def sign_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        """Sign a batch of blinded fingerprints for ``client_id``.

        Raises :class:`RateLimitExceeded` when the client's token bucket
        cannot cover the batch; the client is expected to back off (the
        batch is all-or-nothing so partial progress never leaks through
        the limiter).  An oversize batch or one with a value outside
        ``[0, n)`` is refused before the limiter and costs no tokens.
        """
        if not blinded_values:
            return []
        if len(blinded_values) > self._burst:
            raise ConfigurationError(
                f"batch of {len(blinded_values)} exceeds the maximum batch "
                f"size {int(self._burst)}"
            )
        blindrsa.require_in_domain(self._private_key.n, blinded_values)
        quota = self._quota_for(client_id)
        if not quota.bucket.try_take(len(blinded_values)):
            quota.rejected += len(blinded_values)
            self.stats.rejected += len(blinded_values)
            raise RateLimitExceeded(
                f"client {client_id!r} exceeded the key-generation rate limit"
            )
        started = self._clock()
        with self._tracer.span("km.sign", values=len(blinded_values)):
            signatures, on_workers = self._signers.map_spans_where(
                blinded_values, self._sign_here, _sign_span
            )
        elapsed = self._clock() - started
        self._sign_batches.labels(mode="parallel" if on_workers else "serial").inc()
        with self._lock:
            quota.requests += len(blinded_values)
            self.stats.signatures += len(blinded_values)
            self.stats.batches += 1
            self.stats.busy_seconds += elapsed
        return signatures

    def _sign_here(self, blinded_values: list[int]) -> list[int]:
        sign = self._private_key.apply
        return [sign(value) for value in blinded_values]

    def seconds_until_allowed(self, client_id: str, batch_size: int) -> float:
        """Back-off hint: seconds until a batch of ``batch_size`` is allowed."""
        return self._quota_for(client_id).bucket.seconds_until(batch_size)

    def client_stats(self, client_id: str) -> dict[str, int]:
        quota = self._quota_for(client_id)
        return {"requests": quota.requests, "rejected": quota.rejected}
