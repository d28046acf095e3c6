"""Client-side read cache over trimmed packages, keyed by fingerprint.

Deduplicated storage has read locality by construction: the same trimmed
package backs every file that contains the chunk, so a client restoring
several related files (or the same file twice) re-fetches identical
bytes.  :class:`ChunkCache` keeps recently fetched trimmed packages in a
byte-budgeted LRU (:class:`~repro.util.lru.LRUCache`), letting the
download pipeline serve repeats without a ``chunk_get_batch`` round
trip.  Only *trimmed packages* are cached — they are ciphertext under
the MLE key, so the cache holds nothing a stolen client disk would not
already reveal; plaintext never lands here.

Hit/miss/eviction counts go to the metrics registry
(``chunk_cache_*`` series) and to the active
:class:`~repro.obs.scope.AttributionScope`, so per-download cache
efficiency is exact even with concurrent downloads on a shared client.
"""

from __future__ import annotations

from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.util.lru import LRUCache

#: Default capacity when a client enables the cache without a budget.
DEFAULT_CHUNK_CACHE_BYTES = 64 * 1024 * 1024


class ChunkCache:
    """Byte-budgeted LRU of trimmed packages with registry-backed metrics."""

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CHUNK_CACHE_BYTES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._cache: LRUCache[bytes, bytes] = LRUCache(
            capacity_bytes, size_of=len
        )
        registry = metrics if metrics is not None else default_registry()
        self._hits = registry.counter(
            "chunk_cache_hits_total",
            "Chunk fetches served from the client read cache.",
        )
        self._misses = registry.counter(
            "chunk_cache_misses_total",
            "Chunk fetches that missed the client read cache.",
        )
        self._evictions = registry.counter(
            "chunk_cache_evictions_total",
            "Trimmed packages evicted from the client read cache.",
        )
        self._used_bytes = registry.gauge(
            "chunk_cache_bytes",
            "Bytes of trimmed packages resident in the client read cache.",
        )
        self._capacity_gauge = registry.gauge(
            "chunk_cache_capacity_bytes",
            "Configured byte budget of the client read cache.",
        )
        self._capacity_gauge.set(capacity_bytes)

    @property
    def capacity_bytes(self) -> int:
        return self._cache.capacity

    @property
    def used_bytes(self) -> int:
        return self._cache.used

    def get(self, fingerprint: bytes) -> bytes | None:
        """Look up a trimmed package; counts a hit or a miss."""
        data = self._cache.get(fingerprint)
        if data is None:
            self._misses.inc()
            obs_scope.add("chunk_cache_misses")
        else:
            self._hits.inc()
            obs_scope.add("chunk_cache_hits")
        return data

    def put(self, fingerprint: bytes, data: bytes) -> None:
        """Insert a trimmed package, evicting LRU entries as needed."""
        evicted = self._cache.put(fingerprint, data)
        if evicted:
            self._evictions.inc(evicted)
        self._used_bytes.set(self._cache.used)

    def clear(self) -> None:
        self._cache.clear()
        self._used_bytes.set(0)
