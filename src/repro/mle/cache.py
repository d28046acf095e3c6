"""Client-side MLE key cache.

Adjacent backups of the same file system share most chunks, so the REED
client keeps a byte-budgeted LRU cache (512 MB by default, Section V-B)
mapping chunk fingerprints to the MLE keys already obtained from the key
manager.  Cache hits skip the OPRF round trip entirely — this is what
turns the second upload in Experiment A.3 from key-generation-bound into
network-bound.

The paper notes (and Experiment B.2 relies on) the cache being cleared
between users so different users never share one client's cache.
"""

from __future__ import annotations

from repro.crypto.hashing import DIGEST_SIZE
from repro.util.lru import LRUCache
from repro.util.units import MiB

#: Default cache budget (paper Section V-B).
DEFAULT_CACHE_BYTES = 512 * MiB

#: Approximate per-entry footprint: fingerprint + key.
ENTRY_BYTES = 2 * DIGEST_SIZE


class MLEKeyCache:
    """LRU fingerprint → MLE-key cache with a byte budget."""

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self._cache: LRUCache[bytes, bytes] = LRUCache(
            capacity_bytes, size_of=lambda _key: ENTRY_BYTES
        )

    def get(self, fingerprint: bytes) -> bytes | None:
        return self._cache.get(fingerprint)

    def put(self, fingerprint: bytes, mle_key: bytes) -> None:
        self._cache.put(fingerprint, mle_key)

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, fingerprint: bytes) -> bool:
        """Membership without touching recency."""
        return fingerprint in self._cache
