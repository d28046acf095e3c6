"""Tests for the MLE key cache."""

from repro.mle.cache import DEFAULT_CACHE_BYTES, ENTRY_BYTES, MLEKeyCache
from repro.util.units import MiB


class TestMleCache:
    def test_put_get(self):
        cache = MLEKeyCache(1 << 16)
        cache.put(b"\x01" * 32, b"\xaa" * 32)
        assert cache.get(b"\x01" * 32) == b"\xaa" * 32

    def test_miss(self):
        assert MLEKeyCache(1 << 16).get(b"\x00" * 32) is None

    def test_default_is_512mb(self):
        assert DEFAULT_CACHE_BYTES == 512 * MiB

    def test_byte_budgeted_eviction(self):
        capacity = 10 * ENTRY_BYTES
        cache = MLEKeyCache(capacity)
        for i in range(15):
            cache.put(bytes([i]) * 32, bytes([i]) * 32)
        assert len(cache) == 10
        assert cache.get(bytes([0]) * 32) is None  # evicted
        assert cache.get(bytes([14]) * 32) is not None

    def test_clear(self):
        cache = MLEKeyCache(1 << 16)
        cache.put(b"\x01" * 32, b"\x02" * 32)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(b"\x01" * 32) is None
