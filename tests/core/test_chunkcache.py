"""Unit tests for the client-side trimmed-package read cache."""

from __future__ import annotations

from repro.core.chunkcache import ChunkCache
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry


def test_hit_miss_and_metrics():
    metrics = MetricsRegistry()
    cache = ChunkCache(1024, metrics=metrics)
    assert cache.get(b"a" * 32) is None
    cache.put(b"a" * 32, b"x" * 100)
    assert cache.get(b"a" * 32) == b"x" * 100
    assert metrics.value("chunk_cache_hits_total") == 1
    assert metrics.value("chunk_cache_misses_total") == 1
    assert metrics.value("chunk_cache_bytes") == 100
    assert metrics.value("chunk_cache_capacity_bytes") == 1024
    assert cache.used_bytes == 100
    assert cache.capacity_bytes == 1024


def test_lru_eviction_reported_once():
    metrics = MetricsRegistry()
    cache = ChunkCache(250, metrics=metrics)
    for index in range(4):
        cache.put(bytes([index]) * 32, bytes([index]) * 100)
    # 4 × 100 bytes into a 250-byte budget: two entries survive.
    assert metrics.value("chunk_cache_evictions_total") == 2
    assert cache.used_bytes == 200
    assert cache.get(bytes([0]) * 32) is None  # evicted (oldest)
    assert cache.get(bytes([3]) * 32) == bytes([3]) * 100


def test_scope_attribution():
    cache = ChunkCache(1024, metrics=MetricsRegistry())
    cache.put(b"k" * 32, b"v" * 10)
    with obs_scope.attribution() as scope:
        cache.get(b"k" * 32)
        cache.get(b"absent" + b"\x00" * 26)
    assert scope.get_int("chunk_cache_hits") == 1
    assert scope.get_int("chunk_cache_misses") == 1
    # Outside the scope nothing is attributed (registry still counts).
    cache.get(b"k" * 32)
    assert scope.get_int("chunk_cache_hits") == 1


def test_oversized_value_not_cached():
    metrics = MetricsRegistry()
    cache = ChunkCache(50, metrics=metrics)
    cache.put(b"big" * 11, b"x" * 100)
    assert cache.get(b"big" * 11) is None
    assert cache.used_bytes == 0


def test_clear_resets_gauge():
    metrics = MetricsRegistry()
    cache = ChunkCache(1024, metrics=metrics)
    cache.put(b"k" * 32, b"v" * 64)
    cache.clear()
    assert metrics.value("chunk_cache_bytes") == 0
    assert cache.get(b"k" * 32) is None


def test_stats_passthrough():
    metrics = MetricsRegistry()
    cache = ChunkCache(1024, metrics=metrics)
    cache.put(b"k" * 32, b"v" * 8)
    assert metrics.value("chunk_cache_bytes") == cache.used_bytes == 8
    assert metrics.value("chunk_cache_capacity_bytes") == cache.capacity_bytes == 1024
