"""Tests for the client worker pools: chunk transforms and rekeying."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.parallel import ChunkTransformPool, RekeyPool, _registry_spec
from repro.core.schemes import get_scheme
from repro.core.stubs import encrypt_stub_file
from repro.crypto.cipher import DEFAULT_CIPHER, get_cipher
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
            ChunkTransformPool(get_scheme("enhanced"), workers=0)


class TestRegistrySpec:
    def test_registry_scheme_is_reconstructible(self):
        scheme = get_scheme("enhanced", cipher=get_cipher("aes256"))
        assert _registry_spec(scheme) == ("enhanced", "aes256", scheme.stub_size)

    def test_custom_cipher_is_not(self):
        class WeirdCipher(type(get_cipher())):
            name = DEFAULT_CIPHER  # lies about its registry name

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


class _UnregisteredCipher(type(get_cipher())):
    name = "not-registered"


class TestInProcessFallback:
    def test_custom_scheme_runs_in_process(self):
        """A scheme no fresh process can rebuild never starts workers:
        every batch runs whole in the caller's process."""
        scheme = get_scheme("enhanced", cipher=_UnregisteredCipher())
        with ChunkTransformPool(scheme, workers=2, min_parallel_bytes=0) as pool:
            chunks, keys = _inputs(4)
            got = pool.encrypt(chunks, keys)
            assert got == [scheme.encrypt_chunk(c, k) for c, k in zip(chunks, keys)]
            assert pool.decrypt([p.trimmed_package for p in got], [p.stub for p in got]) == chunks
            assert pool._executor is None
            assert (pool.parallel_batches, pool.serial_batches) == (0, 2)


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

    def test_unregistered_cipher_keeps_stubs_home_not_winds(self, keyreg_owner):
        """Winds run on processes whatever the stub cipher is; stub files
        under a cipher a fresh process cannot rebuild stay in-process."""
        cipher = _UnregisteredCipher()
        states = _states(keyreg_owner, 4)
        old, new = bytes(32), bytes([1]) * 32
        stub_file = encrypt_stub_file(
            old, [bytes(64)] * 20_000, cipher=cipher, nonce=bytes(16)
        )
        with RekeyPool(cipher=cipher, workers=2, owner=keyreg_owner) as pool:
            assert pool.wind(states) == ([keyreg_owner.wind(s) for s in states], True)
            assert isinstance(pool._executor, ProcessPoolExecutor)
            items = [(stub_file, old, new, bytes([n]) * 16) for n in range(2)]
            assert pool.reencrypt(items) == pool._reencrypt_serial(items)
            assert (pool.parallel_batches, pool.serial_batches) == (1, 1)

    def test_reader_with_unregistered_cipher_never_forks(self):
        """Without a derivation key and with a cipher no fresh process can
        rebuild, no rekey work could leave the process."""
        pool = RekeyPool(workers=2, cipher=_UnregisteredCipher())
        assert pool.use_processes is False
