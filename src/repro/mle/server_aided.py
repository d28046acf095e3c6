"""Client side of server-aided MLE key generation.

For every chunk fingerprint the client runs the blind-RSA OPRF with the
key manager (Section V-A):

    blind -> send batch -> unblind -> verify -> hash into the MLE key

with three performance measures from Section V-B layered on top:

* **batching** — up to ``batch_size`` per-chunk requests per round trip
  (the paper finds the key manager saturates around batch size 256);
* **caching** — an LRU fingerprint→key cache consulted first;
* **deduplication within a request** — repeated fingerprints in one call
  cost a single OPRF evaluation.

The key-manager *channel* is pluggable: a direct in-process call for
tests and experiments, or an RPC stub over TCP (:mod:`repro.net`).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import Protocol

from repro.crypto import blindrsa
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.rsa import RSAPublicKey
from repro.mle.cache import MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.util.errors import ConfigurationError, KeyManagerError, RateLimitExceeded

#: Default number of per-chunk key requests batched per round trip
#: (Section V-B / Experiment A.1).
DEFAULT_BATCH_SIZE = 256

#: Bounded retries when the key manager rate-limits us.
DEFAULT_MAX_RETRIES = 8


class KeyManagerChannel(Protocol):
    """Transport abstraction over the key manager."""

    def public_key(self) -> RSAPublicKey:
        """Fetch the system-wide RSA public key."""
        ...

    def sign_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        """Submit one batch of blinded values; returns blind signatures."""
        ...

    def backoff_hint(self, client_id: str, batch_size: int) -> float:
        """Seconds to wait before a batch of this size will be admitted."""
        ...


class LocalKeyManagerChannel:
    """Directly invokes an in-process :class:`KeyManager` (no network)."""

    def __init__(self, manager: KeyManager) -> None:
        self._manager = manager

    def public_key(self) -> RSAPublicKey:
        return self._manager.public_key

    def sign_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        return self._manager.sign_batch(client_id, blinded_values)

    def derive_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        return self._manager.derive_batch(client_id, blinded_values)

    def backoff_hint(self, client_id: str, batch_size: int) -> float:
        return self._manager.seconds_until_allowed(client_id, batch_size)


class ServerAidedKeyClient:
    """Obtains MLE keys from the key manager via the blind-RSA OPRF.

    Reports per-operation deltas through :mod:`repro.obs.scope`, so
    callers can attribute counters to one upload without diffing
    lifetime totals.
    """

    def __init__(
        self,
        channel: KeyManagerChannel,
        client_id: str,
        cache: MLEKeyCache | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        rng: RandomSource | None = None,
        sleep: Callable[[float], None] = time.sleep,
        max_retries: int = DEFAULT_MAX_RETRIES,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch size must be at least 1")
        self._channel = channel
        self._client_id = client_id
        #: Public so a pipelined caller can size its key windows: how many
        #: evaluations one round trip carries, and which fingerprints
        #: would be served without one (``fingerprint in cache``).
        self.cache = cache
        self.batch_size = batch_size
        self._rng = rng or SYSTEM_RANDOM
        self._sleep = sleep
        self._max_retries = max_retries
        self._public_key: RSAPublicKey | None = None
        #: OPRF evaluations actually performed (cache misses), for stats.
        self.oprf_evaluations = 0
        #: Requests answered from the cache.
        self.cache_hits = 0
        #: sign-batch RPCs issued to the key manager (including attempts
        #: rejected by rate limiting — they did cross the wire).
        self.round_trips = 0
        # The per-instance integers above stay the exact per-client
        # record; every bump is mirrored into the registry (process
        # totals, labeled by client) and the active attribution scope
        # (per-upload deltas — see repro.obs.scope).
        self._clock = clock
        self.metrics = metrics if metrics is not None else default_registry()
        labels = {"client": client_id}
        self._m_oprf = self.metrics.counter(
            "key_oprf_evaluations_total",
            "Blind-RSA OPRF evaluations paid for, by client.",
            labelnames=("client",),
        ).labels(**labels)
        self._m_hits = self.metrics.counter(
            "key_cache_hits_total",
            "MLE-key requests answered from the client-side cache.",
            labelnames=("client",),
        ).labels(**labels)
        self._m_trips = self.metrics.counter(
            "key_round_trips_total",
            "Key-manager RPCs issued (rate-limited attempts included).",
            labelnames=("client",),
        ).labels(**labels)
        self._m_rate_limited = self.metrics.counter(
            "key_rate_limited_total",
            "Key-manager RPCs rejected by rate limiting.",
            labelnames=("client",),
        ).labels(**labels)
        self._m_rpc_seconds = self.metrics.histogram(
            "key_rpc_seconds",
            "Latency of one key-manager batch round trip.",
            labelnames=("client",),
        ).labels(**labels)

    @property
    def public_key(self) -> RSAPublicKey:
        if self._public_key is None:
            self._public_key = self._channel.public_key()
        return self._public_key

    def clear_cache(self) -> None:
        if self.cache is not None:
            self.cache.clear()

    def stats(self) -> dict:
        """Counters for observability: OPRF work, cache wins, RPC trips.

        Includes the LRU cache's own :meth:`~repro.mle.cache.MLEKeyCache.stats`
        under ``"cache"`` when a cache is attached.

        .. deprecated:: the registry series (``key_oprf_evaluations_total``
           et al. on :attr:`metrics`, labeled by client) are the
           canonical source; this dict remains as a per-instance view.
        """
        data = {
            "oprf_evaluations": self.oprf_evaluations,
            "cache_hits": self.cache_hits,
            "round_trips": self.round_trips,
        }
        if self.cache is not None:
            data["cache"] = self.cache.stats()
        return data

    # ------------------------------------------------------------------

    def _send_with_backoff(self, blinded: list[int], rpc=None) -> list[int]:
        if rpc is None:
            rpc = self._channel.sign_batch
        for attempt in range(self._max_retries + 1):
            started = self._clock()
            try:
                self.round_trips += 1
                self._m_trips.inc()
                obs_scope.add("key_round_trips")
                result = rpc(self._client_id, blinded)
                self._m_rpc_seconds.observe(self._clock() - started)
                return result
            except RateLimitExceeded:
                self._m_rpc_seconds.observe(self._clock() - started)
                self._m_rate_limited.inc()
                if attempt == self._max_retries:
                    raise
                delay = self._channel.backoff_hint(self._client_id, len(blinded))
                # Nudge past the boundary to avoid a refill race.
                self._sleep(max(delay, 1e-4) * 1.05)
        raise AssertionError("unreachable")

    def _fetch_batch(self, fingerprints: list[bytes], rpc=None) -> list[bytes]:
        """One OPRF round trip for up to ``batch_size`` fingerprints."""
        public_key = self.public_key
        blinded_values, states = blindrsa.blind_many(
            public_key, fingerprints, self._rng
        )
        signatures = self._send_with_backoff(blinded_values, rpc)
        if len(signatures) != len(blinded_values):
            raise KeyManagerError(
                f"key manager returned {len(signatures)} signatures for "
                f"{len(blinded_values)} requests"
            )
        keys = []
        for state, signature in zip(states, signatures):
            unblinded = blindrsa.unblind(public_key, state, signature)
            keys.append(blindrsa.signature_to_key(unblinded, public_key.byte_size))
        self.oprf_evaluations += len(keys)
        self._m_oprf.inc(len(keys))
        obs_scope.add("key_oprf_evaluations", len(keys))
        return keys

    def _resolve(self, fingerprints: Sequence[bytes], rpc=None) -> list[bytes]:
        """Cache-first, deduplicated, batched key resolution."""
        results: dict[bytes, bytes] = {}
        missing: list[bytes] = []
        seen: set[bytes] = set()
        for fp in fingerprints:
            if fp in seen:
                continue
            seen.add(fp)
            cached = self.cache.get(fp) if self.cache is not None else None
            if cached is not None:
                results[fp] = cached
                self.cache_hits += 1
                self._m_hits.inc()
                obs_scope.add("key_cache_hits")
            else:
                missing.append(fp)
        for start in range(0, len(missing), self.batch_size):
            batch = missing[start : start + self.batch_size]
            for fp, key in zip(batch, self._fetch_batch(batch, rpc)):
                results[fp] = key
                if self.cache is not None:
                    self.cache.put(fp, key)
        return [results[fp] for fp in fingerprints]

    def get_keys(self, fingerprints: Sequence[bytes]) -> list[bytes]:
        """Return MLE keys for ``fingerprints`` (order-preserving).

        Cache hits and duplicate fingerprints within the call are served
        without extra OPRF evaluations.  This is the per-batch reference
        path over the legacy ``km.sign_batch`` RPC; uploads use
        :meth:`derive_keys`, which produces bit-identical keys.
        """
        return self._resolve(fingerprints)

    def derive_keys(self, fingerprints: Sequence[bytes]) -> list[bytes]:
        """Batched whole-file key derivation (order-preserving).

        Blinds, ships, and unblinds a whole file's chunk fingerprints
        through the ``km.derive_batch`` RPC: the cache is consulted
        before anything touches the wire, duplicate fingerprints cost
        one evaluation, and the misses travel in at most
        ``ceil(misses / batch_size)`` round trips (one, for any file up
        to ``batch_size`` unique chunks).  Falls back to the legacy
        ``sign_batch`` RPC when the channel predates ``derive_batch``.
        Keys are bit-identical to :meth:`get_keys` — unblinding strips
        the only randomness, so both paths hash the same RSA signature.
        """
        rpc = getattr(self._channel, "derive_batch", None)
        return self._resolve(fingerprints, rpc)

    def get_key(self, fingerprint: bytes) -> bytes:
        return self.get_keys([fingerprint])[0]
