"""Tests for the SymmetricCipher interface and registry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cipher import (
    DEFAULT_CIPHER,
    available_ciphers,
    get_cipher,
)
from repro.util.errors import ConfigurationError

KEY = bytes(range(32))
ALL_CIPHERS = available_ciphers()


class TestRegistry:
    def test_available(self):
        assert "aes256" in ALL_CIPHERS
        assert "hashctr" in ALL_CIPHERS

    def test_default(self):
        assert get_cipher().name == DEFAULT_CIPHER

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_cipher("rot13")

    def test_singletons(self):
        assert get_cipher("aes256") is get_cipher("aes256")


@pytest.mark.parametrize("name", ALL_CIPHERS)
class TestCipherContract:
    """Every registered cipher must satisfy the same contract."""

    def test_randomized_roundtrip(self, name):
        cipher = get_cipher(name)
        nonce = b"\x05" * cipher.nonce_size
        ct = cipher.encrypt(KEY, nonce, b"hello world")
        assert cipher.decrypt(KEY, nonce, ct) == b"hello world"

    def test_deterministic_roundtrip(self, name):
        cipher = get_cipher(name)
        ct = cipher.deterministic_encrypt(KEY, b"dedup me")
        assert ct == cipher.deterministic_encrypt(KEY, b"dedup me")
        assert cipher.deterministic_decrypt(KEY, ct) == b"dedup me"

    def test_mask_matches_deterministic_zero_block(self, name):
        # The AONT identity: G(K) = E(K, S) with S all zeros.
        cipher = get_cipher(name)
        assert cipher.mask(KEY, 100) == cipher.deterministic_encrypt(
            KEY, b"\x00" * 100
        )

    def test_mask_deterministic_and_sized(self, name):
        cipher = get_cipher(name)
        for n in (0, 1, 33, 256):
            mask = cipher.mask(KEY, n)
            assert len(mask) == n
            assert mask == cipher.mask(KEY, n)

    def test_key_size_enforced(self, name):
        cipher = get_cipher(name)
        with pytest.raises(ConfigurationError):
            cipher.deterministic_encrypt(b"short", b"data")

    def test_ciphertext_length_preserved(self, name):
        cipher = get_cipher(name)
        for n in (0, 1, 100, 1000):
            assert len(cipher.deterministic_encrypt(KEY, b"x" * n)) == n


@pytest.mark.parametrize("nonce", [b"", b"\x08" * 8], ids=["empty", "8-byte"])
def test_hashctr_rejects_wrong_nonce_size(nonce):
    # An empty nonce would otherwise return the deterministic (mask) stream.
    cipher = get_cipher("hashctr")
    with pytest.raises(ConfigurationError):
        cipher.encrypt(KEY, nonce, b"stub file")
    with pytest.raises(ConfigurationError):
        cipher.decrypt(KEY, nonce, b"stub file")


@given(st.binary(max_size=300))
def test_ciphers_are_distinct_constructions(data):
    """AES-CTR and HashCTR must not accidentally produce the same stream."""
    if data:
        a = get_cipher("aes256").deterministic_encrypt(KEY, data)
        b = get_cipher("hashctr").deterministic_encrypt(KEY, data)
        assert a != b
