"""Tests for the SHAKE-256 cipher ``E(.)`` every construction uses."""

import pytest

from repro.crypto.cipher import SHAKE256
from repro.util.errors import ConfigurationError

KEY = bytes(range(32))


class TestCipherContract:
    def test_randomized_roundtrip(self):
        nonce = b"\x05" * SHAKE256.nonce_size
        ct = SHAKE256.encrypt(KEY, nonce, b"hello world")
        assert SHAKE256.decrypt(KEY, nonce, ct) == b"hello world"

    def test_deterministic_roundtrip(self):
        ct = SHAKE256.deterministic_encrypt(KEY, b"dedup me")
        assert ct == SHAKE256.deterministic_encrypt(KEY, b"dedup me")
        assert SHAKE256.deterministic_decrypt(KEY, ct) == b"dedup me"

    def test_mask_matches_deterministic_zero_block(self):
        # The AONT identity: G(K) = E(K, S) with S all zeros.
        assert SHAKE256.mask(KEY, 100) == SHAKE256.deterministic_encrypt(
            KEY, b"\x00" * 100
        )

    def test_mask_deterministic_and_sized(self):
        for n in (0, 1, 33, 256):
            mask = SHAKE256.mask(KEY, n)
            assert len(mask) == n
            assert mask == SHAKE256.mask(KEY, n)

    def test_key_size_enforced(self):
        with pytest.raises(ConfigurationError):
            SHAKE256.deterministic_encrypt(b"short", b"data")
        with pytest.raises(ConfigurationError):
            SHAKE256.encrypt(b"short", b"\x05" * SHAKE256.nonce_size, b"data")

    def test_ciphertext_length_preserved(self):
        for n in (0, 1, 100, 1000):
            assert len(SHAKE256.deterministic_encrypt(KEY, b"x" * n)) == n


@pytest.mark.parametrize("nonce", [b"", b"\x08" * 8], ids=["empty", "8-byte"])
def test_shake256_rejects_wrong_nonce_size(nonce):
    # An empty nonce would otherwise return the deterministic (mask) stream.
    with pytest.raises(ConfigurationError):
        SHAKE256.encrypt(KEY, nonce, b"stub file")
    with pytest.raises(ConfigurationError):
        SHAKE256.decrypt(KEY, nonce, b"stub file")
