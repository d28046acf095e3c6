"""Tests for the client's chunk transforms and rekey worker pools."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.parallel import ChunkTransformPool, RekeyPool
from repro.core.schemes import get_scheme
from repro.core.stubs import decrypt_stub_file, encrypt_stub_file
from repro.crypto.drbg import HmacDrbg
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.util.errors import ConfigurationError


def _inputs(count, size=2048, seed=0):
    chunks = [bytes([(seed + i + j) % 256 for j in range(size)]) for i in range(count)]
    keys = [bytes([(seed + i) % 256] * 32) for i in range(count)]
    return chunks, keys


class TestDefaults:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            RekeyPool(workers=0)


def _stub_items(count, stub_size=64):
    """``count`` re-encryptions of one stub file, each with its nonce."""
    stubs = [bytes([n]) * stub_size for n in range(8)]
    old, new = bytes(32), bytes([1]) * 32
    stub_file = encrypt_stub_file(old, stubs, stub_size=stub_size, nonce=bytes(16))
    return [(stub_file, old, new, bytes([n]) * 16) for n in range(count)], stubs


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

    def test_small_batches_stay_serial(self):
        items, _stubs = _stub_items(3)  # well under min_parallel_bytes
        pool = RekeyPool(workers=4)
        pool.reencrypt(items)
        assert pool.serial_batches == 1
        assert pool._executor is None  # never spawned workers
        pool.close()

    def test_mismatched_lengths_rejected(self):
        pool = ChunkTransformPool(get_scheme("enhanced"))
        with pytest.raises(ConfigurationError):
            pool.encrypt([b"x" * 100], [])
        with pytest.raises(ConfigurationError):
            pool.decrypt([b"x" * 100], [])


class TestProcessPath:
    def test_process_pool_matches_serial(self):
        items, stubs = _stub_items(5)
        with RekeyPool(workers=2, min_parallel_bytes=0) as pool:
            rekeyed = pool.reencrypt(items)
            assert rekeyed == pool._reencrypt_serial(items)
            assert pool.parallel_batches == 1
        assert all(decrypt_stub_file(bytes([1]) * 32, blob) == stubs for blob in rekeyed)

    def test_order_preserved_across_spans(self):
        scheme = get_scheme("basic")
        pool = ChunkTransformPool(scheme)
        chunks, keys = _inputs(10, size=512, seed=7)
        got = pool.encrypt(chunks, keys)
        for package, chunk, key in zip(got, chunks, keys):
            assert package == scheme.encrypt_chunk(chunk, key)

    def test_pool_restarts_after_close(self):
        items, _stubs = _stub_items(4)
        pool = RekeyPool(workers=2, min_parallel_bytes=0)
        first = pool.reencrypt(items)
        pool.close()
        assert pool.reencrypt(items) == first
        assert pool.parallel_batches == 2
        pool.close()


class TestWorkerSpec:
    def test_stub_size_travels_to_workers(self):
        """A 128-byte stub scheme transforms in-process and rekeys on the
        rekey workers exactly as in-process."""
        scheme = get_scheme("enhanced", stub_size=128)
        pool = ChunkTransformPool(scheme)
        chunks, keys = _inputs(4)
        got = pool.encrypt(chunks, keys)
        assert {len(p.stub) for p in got} == {128}
        trimmed, stubs = [p.trimmed_package for p in got], [p.stub for p in got]
        assert pool.decrypt(trimmed, stubs) == chunks

        old, new = bytes(32), bytes([1]) * 32
        stub_file = encrypt_stub_file(old, stubs, stub_size=128, nonce=bytes(16))
        items = [(stub_file, old, new, bytes([n]) * 16) for n in range(3)]
        with RekeyPool(workers=2, min_parallel_bytes=0) as pool:
            rekeyed = pool.reencrypt(items)
            assert pool.parallel_batches == 1
            assert rekeyed == pool._reencrypt_serial(items)
        assert all(decrypt_stub_file(new, blob) == stubs for blob in rekeyed)


@pytest.fixture()
def keyreg_owner(rsa_512):
    return KeyRegressionOwner(private_key=rsa_512, rng=HmacDrbg(b"rekey-pool"))


def _states(owner, count):
    states = [owner.initial_state()]
    for _ in range(count - 1):
        states.append(owner.wind(states[-1]))
    return states


class TestRekeyPool:
    def test_winds_on_workers_match_in_process(self, keyreg_owner):
        states = _states(keyreg_owner, 11)
        with RekeyPool(workers=2, owner=keyreg_owner) as pool:
            wound, on_workers = pool.wind(states)
            assert wound == [keyreg_owner.wind(s) for s in states]
            assert on_workers and pool.parallel_batches == 1
            assert isinstance(pool._executor, ProcessPoolExecutor)

    def test_three_prime_winds_on_workers_match_and_unwind(self, rsa_1024):
        owner = KeyRegressionOwner(private_key=rsa_1024, rng=HmacDrbg(b"three"))
        assert len(owner.derivation_key.primes) == 3
        states = _states(owner, 9)
        with RekeyPool(workers=2, owner=owner) as pool:
            wound, on_workers = pool.wind(states)
        assert on_workers
        assert wound == [owner.wind(s) for s in states]
        member = owner.member()
        assert [member.unwind(s) for s in wound] == states
