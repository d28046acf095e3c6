"""The REED key manager (DupLESS-style server-aided MLE key generation).

The key manager holds a system-wide RSA keypair (the paper uses 1024-bit
RSA, Section V-A).  Clients send *blinded* chunk fingerprints in batches;
the key manager answers each with a blind RSA signature — one private-key
operation per chunk — without ever learning the fingerprints (oblivious
key generation, Section III-B).

To slow online brute-force attacks from compromised clients, requests are
rate-limited per client with a token bucket (Section II-A).  What the
manager signed and refused, per client, is on the registry that
:meth:`KeyManager.observe_on` binds (``km_*`` series), so a scrape of
the key-manager node answers it.

Signing is the one CPU-heavy step of an upload that the client cannot
parallelise for itself.  Each signature is one private RSA operation:
three exponentiations on OpenSSL's Montgomery kernel
(:mod:`repro.crypto.modexp`, about 0.15 ms for a 1024-bit three-prime
key), which release the GIL while they run.  So a batch of two values or
more is cut into one contiguous span per signer *thread* and the
signatures are reassembled in order.  Admission — size cap, domain
check, rate limit — happens on the handler thread before any signer sees
a value.  A single value (nothing to split), and any batch on a one-CPU
host, is signed on the handler thread itself.  The private key never
leaves the key manager's process.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.crypto import blindrsa
from repro.crypto.drbg import RandomSource
from repro.crypto.rsa import DEFAULT_KEY_BITS, RSAPrivateKey, RSAPublicKey, generate_keypair
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.util.errors import ConfigurationError, RateLimitExceeded
from repro.util.tokenbucket import TokenBucket

#: Default per-client sustained request rate (chunk keys per second).
#: Generous enough for legitimate backup workloads (the paper's key
#: manager saturates around 1600 signatures/s) while bounding brute force.
DEFAULT_RATE_LIMIT = 8192.0

#: Default burst: one maximum-size batch.
DEFAULT_BURST = 16384.0

#: Upper bound on the signer threads; a host with fewer CPUs gets fewer.
MAX_SIGNER_THREADS = 8


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
        #: One rate-limit bucket per client seen.
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self._threads = max(1, min(os.cpu_count() or 1, MAX_SIGNER_THREADS))
        # Threads start on the first split batch and need no reaping: an
        # idle pool's threads exit when the manager is collected or the
        # interpreter exits.
        self._signers = (
            ThreadPoolExecutor(self._threads, thread_name_prefix="reed-km-sign")
            if self._threads > 1
            else None
        )
        # A registry of its own until the manager is served: binding the
        # process default here would leave empty ``km_*`` families in the
        # scrape of every client process that also serves a manager.
        own = MetricsRegistry()
        self.observe_on(own, Tracer(metrics=own))

    def observe_on(self, metrics: MetricsRegistry, tracer: Tracer) -> None:
        """Report signing telemetry on ``metrics`` / ``tracer``.

        Bound once, where the manager is served: the node registry of
        :func:`~repro.core.service.register_key_manager`, or the process
        defaults for an in-process system
        (:func:`~repro.core.system.build_system`).
        """
        self._tracer = tracer
        self._sign_batches = metrics.counter(
            "km_sign_batches_total",
            "Admitted signing batches, by where they were signed "
            "(parallel: split over the signer threads; serial: on the handler thread).",
            labelnames=("mode",),
        )
        self._signatures = metrics.counter(
            "km_signatures_total",
            "Blind signatures issued, by client.",
            labelnames=("client",),
        )
        self._rejected = metrics.counter(
            "km_rejected_total",
            "Blinded values refused by the rate limiter, by client.",
            labelnames=("client",),
        )
        self._clients = metrics.gauge(
            "km_clients", "Clients with a rate-limit bucket."
        )
        with self._lock:
            for client_id in self._buckets:
                self._publish_client_locked(client_id)

    def _publish_client_locked(self, client_id: str) -> None:
        """Count a client and give its series a sample (at zero until
        it signs or is refused), so a scrape lists every client seen."""
        self._signatures.labels(client=client_id)
        self._rejected.labels(client=client_id)
        self._clients.set(len(self._buckets))

    @property
    def public_key(self) -> RSAPublicKey:
        """The system-wide public key clients blind against."""
        return self._private_key.public

    def _bucket_for(self, client_id: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client_id)
            if bucket is None:
                bucket = TokenBucket(self._rate_limit, self._burst, clock=self._clock)
                self._buckets[client_id] = bucket
                self._publish_client_locked(client_id)
            return bucket

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
        if not self._bucket_for(client_id).try_take(len(blinded_values)):
            self._rejected.labels(client=client_id).inc(len(blinded_values))
            raise RateLimitExceeded(
                f"client {client_id!r} exceeded the key-generation rate limit"
            )
        with self._tracer.span("km.sign", values=len(blinded_values)):
            parallel = self._signers is not None and len(blinded_values) >= 2
            if parallel:
                size = -(-len(blinded_values) // self._threads)
                spans = [
                    blinded_values[start : start + size]
                    for start in range(0, len(blinded_values), size)
                ]
                signatures = [
                    signature
                    for span in self._signers.map(self._sign, spans)
                    for signature in span
                ]
            else:
                signatures = self._sign(blinded_values)
        self._sign_batches.labels(mode="parallel" if parallel else "serial").inc()
        self._signatures.labels(client=client_id).inc(len(signatures))
        return signatures

    def _sign(self, blinded_values: list[int]) -> list[int]:
        sign = self._private_key.apply
        return [sign(value) for value in blinded_values]

    def seconds_until_allowed(self, client_id: str, batch_size: int) -> float:
        """Back-off hint: seconds until a batch of ``batch_size`` is allowed."""
        return self._bucket_for(client_id).seconds_until(batch_size)
