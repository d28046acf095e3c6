"""Client side of server-aided MLE key generation.

For every chunk fingerprint the client runs the blind-RSA OPRF with the
key manager (Section V-A):

    blind -> send batch -> unblind -> verify -> hash into the MLE key

split in two — :meth:`ServerAidedKeyClient.blind`, which makes no RPC,
and :meth:`~ServerAidedKeyClient.finish`, the rest — so that a pipelined
caller can blind one key window while the key manager signs the last.
Three performance measures from Section V-B are layered on top:

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
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
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

    def derive_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
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

    def derive_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        return self._manager.sign_batch(client_id, blinded_values)

    def backoff_hint(self, client_id: str, batch_size: int) -> float:
        return self._manager.seconds_until_allowed(client_id, batch_size)


@dataclass
class PendingKeys:
    """One key request between :meth:`ServerAidedKeyClient.blind` and
    :meth:`ServerAidedKeyClient.finish`."""

    #: The request as given, repeats included: the order keys come back in.
    fingerprints: tuple[bytes, ...]
    #: Keys known already (cache hits); ``finish`` adds the rest.
    keys: dict[bytes, bytes]
    #: Awaited fingerprints, looked up in the cache by ``finish``.
    deferred: list[bytes]
    #: One ``(fingerprints, blinded values, blinding states)`` per round trip.
    batches: list[tuple[list[bytes], list[int], list[blindrsa.BlindingState]]]


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
        # Every count goes to the registry (process totals, labeled by
        # client) and to the active attribution scope (one operation's
        # deltas — see repro.obs.scope).
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

    # ------------------------------------------------------------------

    def _send_with_backoff(self, blinded: list[int]) -> list[int]:
        for attempt in range(self._max_retries + 1):
            started = self._clock()
            try:
                self._m_trips.inc()
                obs_scope.add("key_round_trips")
                result = self._channel.derive_batch(self._client_id, blinded)
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

    def blind(
        self, fingerprints: Sequence[bytes], awaited: Collection[bytes] = ()
    ) -> PendingKeys:
        """The client's first OPRF step for ``fingerprints``; no RPC.

        Consults the cache, drops repeated fingerprints and blinds the
        misses, ``batch_size`` to a slice: every blinding factor is drawn
        here, in order.  ``awaited`` names fingerprints whose keys an
        earlier, unfinished request will put in the cache: unless cached
        already, they are looked up by :meth:`finish` instead of blinded.
        """
        keys: dict[bytes, bytes] = {}
        deferred: list[bytes] = []
        missing: list[bytes] = []
        for fp in dict.fromkeys(fingerprints):
            cached = self.cache.get(fp) if self.cache is not None else None
            if cached is not None:
                keys[fp] = cached
                self._count_hit()
            elif fp in awaited and self.cache is not None:
                deferred.append(fp)
            else:
                missing.append(fp)
        batches = []
        for start in range(0, len(missing), self.batch_size):
            batch = missing[start : start + self.batch_size]
            blinded, states = blindrsa.blind_many(self.public_key, batch, self._rng)
            batches.append((batch, blinded, states))
        return PendingKeys(tuple(fingerprints), keys, deferred, batches)

    def finish(self, pending: PendingKeys) -> list[bytes]:
        """The rest of the OPRF: the keys of ``pending.fingerprints``.

        Ships each blinded slice through ``km.derive_batch``, one round
        trip apiece, then unblinds and verifies it before the next goes
        out, so no request follows a forged response.  A deferred
        fingerprint whose key has left the cache by now is evaluated
        here.
        """
        keys = pending.keys
        late = []
        for fp in pending.deferred:
            cached = self.cache.get(fp)
            if cached is not None:
                keys[fp] = cached
                self._count_hit()
            else:
                late.append(fp)
        public_key = self.public_key
        for batch, blinded, states in pending.batches:
            signatures = self._send_with_backoff(blinded)
            if len(signatures) != len(blinded):
                raise KeyManagerError(
                    f"key manager returned {len(signatures)} signatures for "
                    f"{len(blinded)} requests"
                )
            for fp, state, signature in zip(batch, states, signatures):
                unblinded = blindrsa.unblind(public_key, state, signature)
                key = blindrsa.signature_to_key(unblinded, public_key.byte_size)
                keys[fp] = key
                if self.cache is not None:
                    self.cache.put(fp, key)
            self._m_oprf.inc(len(batch))
            obs_scope.add("key_oprf_evaluations", len(batch))
        if late:
            keys.update(zip(late, self.finish(self.blind(late))))
        return [keys[fp] for fp in pending.fingerprints]

    def derive_keys(self, fingerprints: Sequence[bytes]) -> list[bytes]:
        """Return MLE keys for ``fingerprints`` (order-preserving).

        Blinds, ships, and unblinds a whole file's chunk fingerprints
        through the ``km.derive_batch`` RPC: the cache is consulted
        before anything touches the wire, duplicate fingerprints cost
        one evaluation, and the misses travel in at most
        ``ceil(misses / batch_size)`` round trips (one, for any file up
        to ``batch_size`` unique chunks).  Unblinding strips the only
        randomness, so the keys do not depend on the batching.
        """
        return self.finish(self.blind(fingerprints))

    def _count_hit(self) -> None:
        self._m_hits.inc()
        obs_scope.add("key_cache_hits")
