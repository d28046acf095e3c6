"""Tests for the AES-256-CTR cipher ``E(.)`` every construction uses."""

import pytest

from repro.crypto import streamcipher
from repro.crypto.cipher import AES256CTR
from repro.util.errors import ConfigurationError

KEY = bytes(range(32))


class TestCipherContract:
    def test_randomized_roundtrip(self):
        nonce = b"\x05" * AES256CTR.nonce_size
        ct = AES256CTR.encrypt(KEY, nonce, b"hello world")
        assert AES256CTR.decrypt(KEY, nonce, ct) == b"hello world"

    def test_deterministic_roundtrip(self):
        ct = AES256CTR.deterministic_encrypt(KEY, b"dedup me")
        assert ct == AES256CTR.deterministic_encrypt(KEY, b"dedup me")
        assert AES256CTR.deterministic_decrypt(KEY, ct) == b"dedup me"

    def test_mask_matches_deterministic_zero_block(self):
        # The AONT identity: M XOR G(K) with G(K) = E(K, S), S all zeros,
        # is the deterministic encryption of M.
        message = bytes(range(100))
        mask = AES256CTR.deterministic_encrypt(KEY, bytes(100))
        assert AES256CTR.deterministic_encrypt(KEY, message) == bytes(
            a ^ b for a, b in zip(message, mask)
        )
        assert AES256CTR.deterministic_encrypt(KEY, message) == AES256CTR.encrypt(
            KEY, streamcipher.ZERO_IV, message
        )

    def test_mask_deterministic_and_sized(self):
        for n in (0, 1, 33, 256):
            mask = AES256CTR.deterministic_encrypt(KEY, bytes(n))
            assert len(mask) == n
            assert mask == AES256CTR.deterministic_encrypt(KEY, bytes(n))

    def test_key_size_enforced(self):
        with pytest.raises(ConfigurationError):
            AES256CTR.deterministic_encrypt(b"short", b"data")
        with pytest.raises(ConfigurationError):
            AES256CTR.encrypt(b"short", b"\x05" * AES256CTR.nonce_size, b"data")

    def test_ciphertext_length_preserved(self):
        for n in (0, 1, 100, 1000):
            assert len(AES256CTR.deterministic_encrypt(KEY, b"x" * n)) == n


@pytest.mark.parametrize("nonce", [b"", b"\x08" * 8], ids=["empty", "8-byte"])
def test_aes256ctr_rejects_wrong_nonce_size(nonce):
    # An empty nonce must not fall back to the deterministic (zero) IV.
    with pytest.raises(ConfigurationError):
        AES256CTR.encrypt(KEY, nonce, b"stub file")
    with pytest.raises(ConfigurationError):
        AES256CTR.decrypt(KEY, nonce, b"stub file")
