"""Tests for the byte-budgeted LRU cache."""

import threading

import pytest

from repro.util.errors import ConfigurationError
from repro.util.lru import LRUCache


class TestBasics:
    def test_put_get(self):
        cache = LRUCache(10)
        cache.put("a", 1)
        assert cache.get("a") == 1

    def test_miss_returns_none(self):
        cache = LRUCache(10)
        assert cache.get("missing") is None

    def test_contains(self):
        cache = LRUCache(10)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache

    def test_overwrite_updates_value(self):
        cache = LRUCache(10)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)


class TestEviction:
    def test_lru_order(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.get("a")  # refresh a
        cache.put("d", 4)  # evicts b
        assert "b" not in cache
        assert all(k in cache for k in ("a", "c", "d"))

    def test_byte_budget(self):
        cache = LRUCache(100, size_of=len)
        cache.put("x", b"a" * 60)
        cache.put("y", b"b" * 60)  # pushes total to 120 > 100 -> evict x
        assert "x" not in cache
        assert cache.used == 60

    def test_oversized_value_not_cached(self):
        cache = LRUCache(100, size_of=len)
        cache.put("big", b"a" * 200)
        assert "big" not in cache
        assert cache.used == 0

    def test_overwrite_adjusts_budget(self):
        cache = LRUCache(100, size_of=len)
        cache.put("x", b"a" * 80)
        cache.put("x", b"a" * 10)
        assert cache.used == 10

    def test_eviction_counter(self):
        cache = LRUCache(2)
        assert [cache.put(key, key) for key in "abc"] == [0, 0, 1]
        assert LRUCache(4, size_of=len).put("big", "x" * 5) == 0  # never fits


class TestOps:
    def test_pop(self):
        cache = LRUCache(10)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a") is None
        assert cache.used == 0

    def test_clear(self):
        cache = LRUCache(10)
        for i in range(5):
            cache.put(i, i)
        cache.clear()
        assert len(cache) == 0
        assert cache.used == 0

    def test_thread_safety_smoke(self):
        cache = LRUCache(64)
        errors = []

        def worker(tag):
            try:
                for i in range(500):
                    cache.put((tag, i % 80), i)
                    cache.get((tag, (i + 1) % 80))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.used <= 64
