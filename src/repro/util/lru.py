"""A byte-budgeted least-recently-used cache.

REED clients keep a 512 MB LRU cache of recently generated MLE keys
(Section V-B, "Caching"): adjacent backup uploads share most chunks, so
cached keys avoid round trips to the key manager.  The cache is budgeted
in *bytes*, not entries, mirroring the paper's configuration.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

from repro.util.errors import ConfigurationError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Thread-safe LRU cache with a byte budget.

    ``size_of`` maps a value to its byte cost (defaults to treating each
    entry as one byte, i.e. an entry-count budget).  When an insertion
    pushes the total cost over ``capacity``, least-recently-used entries
    are evicted until the cache fits.
    """

    def __init__(
        self,
        capacity: int,
        size_of: Callable[[V], int] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("LRU capacity must be positive")
        self._capacity = capacity
        self._size_of = size_of or (lambda _value: 1)
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: K) -> V | None:
        """Return the cached value and mark it most recently used."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: K, value: V) -> int:
        """Insert or refresh an entry, evicting LRU entries as needed;
        returns the number of entries evicted."""
        cost = self._size_of(value)
        if cost > self._capacity:
            # An oversized value can never fit; caching it would evict
            # everything for no benefit.
            return 0
        evicted = 0
        with self._lock:
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._used -= existing[1]
            self._entries[key] = (value, cost)
            self._used += cost
            while self._used > self._capacity:
                _old_key, (_old_value, old_cost) = self._entries.popitem(last=False)
                self._used -= old_cost
                evicted += 1
        return evicted

    def pop(self, key: K) -> V | None:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._used -= entry[1]
            return entry[0]

    def clear(self) -> None:
        """Drop all entries (the trace experiment clears per-user caches)."""
        with self._lock:
            self._entries.clear()
            self._used = 0
