"""Tests for the full re-encryption baseline — sound but expensive."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.reencrypt import EpochedConvergentEncryption
from repro.crypto.cipher import AES256CTR
from repro.crypto.hashing import sha256
from repro.util.errors import ConfigurationError

OLD = b"\x61" * 32
NEW = b"\x62" * 32


@pytest.fixture()
def epoched():
    return EpochedConvergentEncryption()


class TestEpochedCE:
    def test_dedup_within_epoch(self, epoched):
        c1, fp1 = epoched.encrypt_chunk(OLD, b"chunk")
        c2, fp2 = epoched.encrypt_chunk(OLD, b"chunk")
        assert c1 == c2
        assert fp1 == fp2

    def test_dedup_breaks_across_epochs(self, epoched):
        """The paper's core objection: renewing the derivation function
        makes identical chunks stop deduplicating."""
        c_old, fp_old = epoched.encrypt_chunk(OLD, b"chunk")
        c_new, fp_new = epoched.encrypt_chunk(NEW, b"chunk")
        assert c_old != c_new
        assert fp_old != fp_new

    @given(st.binary(min_size=1, max_size=1024))
    def test_keys_depend_on_epoch_and_chunk(self, chunk):
        epoched = EpochedConvergentEncryption()
        assert epoched.chunk_key(OLD, chunk) != epoched.chunk_key(NEW, chunk)
        assert epoched.chunk_key(OLD, chunk) != epoched.chunk_key(OLD, chunk + b"x")


class TestFullReencryption:
    def chunks(self, epoched, n=8, size=1000):
        plain = [bytes([i]) * size for i in range(n)]
        stored = []
        for chunk in plain:
            ciphertext, _ = epoched.encrypt_chunk(OLD, chunk)
            stored.append((ciphertext, sha256(chunk)))
        return plain, stored

    def test_reencrypt_roundtrip(self, epoched):
        plain, stored = self.chunks(epoched)
        renewed, cost = epoched.reencrypt_all(OLD, NEW, stored)
        assert cost.chunks == len(plain)
        for chunk, (ciphertext, _fp) in zip(plain, renewed):
            key = epoched.chunk_key(NEW, chunk)
            assert AES256CTR.deterministic_decrypt(key, ciphertext) == chunk

    def test_cost_is_full_data_movement(self, epoched):
        _plain, stored = self.chunks(epoched, n=10, size=1000)
        _renewed, cost = epoched.reencrypt_all(OLD, NEW, stored)
        assert cost.bytes_downloaded == 10_000
        assert cost.bytes_uploaded == 10_000
        assert cost.bytes_moved == 20_000  # vs REED: 64 B/chunk * 10 = 640 B

    def test_reed_rekey_is_cheaper_by_orders_of_magnitude(self, epoched):
        _plain, stored = self.chunks(epoched, n=100, size=8192)
        _renewed, cost = epoched.reencrypt_all(OLD, NEW, stored)
        reed_bytes = 100 * 64  # stub bytes for the same file
        assert cost.bytes_moved / reed_bytes > 100

    def test_same_secret_rejected(self, epoched):
        with pytest.raises(ConfigurationError):
            epoched.reencrypt_all(OLD, OLD, [])

    def test_mismatched_key_record_rejected(self, epoched):
        ciphertext, _ = epoched.encrypt_chunk(OLD, b"real chunk")
        with pytest.raises(ConfigurationError):
            epoched.reencrypt_all(OLD, NEW, [(ciphertext, sha256(b"wrong"))])


class TestDecryptChunk:
    def test_roundtrip_with_key_record(self, epoched):
        chunk = b"payload" * 20
        ciphertext, _fp = epoched.encrypt_chunk(OLD, chunk)
        assert epoched.decrypt_chunk(OLD, sha256(chunk), ciphertext) == chunk

    def test_wrong_epoch_detected(self, epoched):
        chunk = b"payload" * 20
        ciphertext, _fp = epoched.encrypt_chunk(OLD, chunk)
        with pytest.raises(ConfigurationError):
            epoched.decrypt_chunk(NEW, sha256(chunk), ciphertext)
