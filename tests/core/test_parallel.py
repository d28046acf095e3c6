"""Tests for the parallel chunk-transform pool."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.parallel import ChunkTransformPool, _registry_spec
from repro.core.schemes import get_scheme
from repro.crypto.cipher import get_cipher
from repro.util.errors import ConfigurationError


def _inputs(count, size=2048, seed=0):
    chunks = [bytes([(seed + i + j) % 256 for j in range(size)]) for i in range(count)]
    keys = [bytes([(seed + i) % 256] * 32) for i in range(count)]
    return chunks, keys


class TestDefaults:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ChunkTransformPool(get_scheme("enhanced"), workers=0)


class TestRegistrySpec:
    def test_registry_scheme_is_reconstructible(self):
        scheme = get_scheme("enhanced", cipher=get_cipher("aes256"))
        assert _registry_spec(scheme) == ("enhanced", "aes256", scheme.stub_size)

    def test_custom_cipher_is_not(self):
        class WeirdCipher(type(get_cipher("hashctr"))):
            name = "hashctr"  # lies about its registry name

        scheme = get_scheme("basic", cipher=WeirdCipher())
        assert _registry_spec(scheme) is None


class TestSerialPath:
    def test_single_worker_runs_serial(self):
        scheme = get_scheme("enhanced")
        pool = ChunkTransformPool(scheme, workers=1)
        chunks, keys = _inputs(4)
        got = pool.encrypt(chunks, keys)
        assert got == [scheme.encrypt_chunk(c, k) for c, k in zip(chunks, keys)]
        assert pool.serial_batches == 1 and pool.parallel_batches == 0
        pool.close()

    def test_small_batches_stay_serial(self):
        scheme = get_scheme("enhanced")
        pool = ChunkTransformPool(scheme, workers=4)
        chunks, keys = _inputs(3, size=100)  # well under min_parallel_bytes
        pool.encrypt(chunks, keys)
        assert pool.serial_batches == 1
        assert pool._executor is None  # never spawned workers
        pool.close()

    def test_mismatched_lengths_rejected(self):
        pool = ChunkTransformPool(get_scheme("enhanced"), workers=1)
        with pytest.raises(ConfigurationError):
            pool.encrypt([b"x" * 100], [])


class TestProcessPath:
    def test_process_pool_matches_serial(self):
        scheme = get_scheme("enhanced")
        with ChunkTransformPool(scheme, workers=2, min_parallel_bytes=0) as pool:
            chunks, keys = _inputs(7)
            got = pool.encrypt(chunks, keys)
            assert got == [scheme.encrypt_chunk(c, k) for c, k in zip(chunks, keys)]
            assert pool.parallel_batches == 1

    def test_order_preserved_across_spans(self):
        scheme = get_scheme("basic", cipher=get_cipher("aes256"))
        with ChunkTransformPool(scheme, workers=3, min_parallel_bytes=0) as pool:
            chunks, keys = _inputs(10, size=512, seed=7)
            got = pool.encrypt(chunks, keys)
            for package, chunk, key in zip(got, chunks, keys):
                assert package == scheme.encrypt_chunk(chunk, key)

    def test_pool_restarts_after_close(self):
        scheme = get_scheme("enhanced")
        pool = ChunkTransformPool(scheme, workers=2, min_parallel_bytes=0)
        chunks, keys = _inputs(4)
        first = pool.encrypt(chunks, keys)
        pool.close()
        assert pool.encrypt(chunks, keys) == first
        pool.close()


class TestThreadFallback:
    def test_custom_scheme_uses_threads(self):
        class WeirdCipher(type(get_cipher("hashctr"))):
            name = "not-registered"

        scheme = get_scheme("enhanced", cipher=WeirdCipher())
        with ChunkTransformPool(scheme, workers=2, min_parallel_bytes=0) as pool:
            chunks, keys = _inputs(4)
            got = pool.encrypt(chunks, keys)
            assert got == [scheme.encrypt_chunk(c, k) for c, k in zip(chunks, keys)]
            assert isinstance(pool._executor, ThreadPoolExecutor)

    def test_use_processes_false_forces_threads(self):
        scheme = get_scheme("enhanced")
        with ChunkTransformPool(
            scheme, workers=2, use_processes=False, min_parallel_bytes=0
        ) as pool:
            chunks, keys = _inputs(4)
            pool.encrypt(chunks, keys)
            assert isinstance(pool._executor, ThreadPoolExecutor)
