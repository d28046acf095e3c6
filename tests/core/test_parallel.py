"""Tests for the client's chunk transform."""

import pytest

from repro.core.parallel import ChunkTransformPool
from repro.core.schemes import get_scheme
from repro.core.stubs import decrypt_stub_file, encrypt_stub_file, reencrypt_stub_file
from repro.util.errors import ConfigurationError


def _inputs(count, size=2048, seed=0):
    chunks = [bytes([(seed + i + j) % 256 for j in range(size)]) for i in range(count)]
    keys = [bytes([(seed + i) % 256] * 32) for i in range(count)]
    return chunks, keys


class TestSerialPath:
    def test_single_worker_runs_serial(self):
        # The chunk transform runs in the calling process: exactly the scheme.
        scheme = get_scheme("enhanced")
        with ChunkTransformPool(scheme) as pool:
            chunks, keys = _inputs(4)
            got = pool.encrypt(chunks, keys)
            assert got == [scheme.encrypt_chunk(c, k) for c, k in zip(chunks, keys)]
            trimmed, stubs = [p.trimmed_package for p in got], [p.stub for p in got]
            assert pool.decrypt(trimmed, stubs) == chunks

    def test_mismatched_lengths_rejected(self):
        pool = ChunkTransformPool(get_scheme("enhanced"))
        with pytest.raises(ConfigurationError):
            pool.encrypt([b"x" * 100], [])
        with pytest.raises(ConfigurationError):
            pool.decrypt([b"x" * 100], [])


class TestProcessPath:
    def test_order_preserved_across_spans(self):
        scheme = get_scheme("basic")
        pool = ChunkTransformPool(scheme)
        chunks, keys = _inputs(10, size=512, seed=7)
        got = pool.encrypt(chunks, keys)
        for package, chunk, key in zip(got, chunks, keys):
            assert package == scheme.encrypt_chunk(chunk, key)


class TestStubSize:
    def test_custom_stub_size_transforms_and_rekeys(self):
        """A 128-byte stub scheme transforms, and its stub file re-encrypts
        under a caller's nonce, keeping the stub size."""
        scheme = get_scheme("enhanced", stub_size=128)
        pool = ChunkTransformPool(scheme)
        chunks, keys = _inputs(4)
        got = pool.encrypt(chunks, keys)
        assert {len(p.stub) for p in got} == {128}
        trimmed, stubs = [p.trimmed_package for p in got], [p.stub for p in got]
        assert pool.decrypt(trimmed, stubs) == chunks

        old, new, nonce = bytes(32), bytes([1]) * 32, bytes([3]) * 16
        stub_file = encrypt_stub_file(old, stubs, stub_size=128, nonce=bytes(16))
        rekeyed = reencrypt_stub_file(old, new, stub_file, nonce=nonce)
        assert rekeyed == encrypt_stub_file(new, stubs, stub_size=128, nonce=nonce)
        assert decrypt_stub_file(new, rekeyed) == stubs
