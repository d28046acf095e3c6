"""Tests for the layered-encryption baseline — including the documented
weakness REED fixes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.layered import LayeredEncryption, WrappedKey, rekey_bytes_moved
from repro.crypto.cipher import AES256CTR
from repro.crypto.drbg import HmacDrbg
from repro.util.errors import IntegrityError

MASTER = b"\x51" * 32
NEW_MASTER = b"\x52" * 32
MLE_KEY = b"\x53" * 32


@pytest.fixture()
def layered():
    return LayeredEncryption()


class TestRoundTrip:
    @given(st.binary(min_size=1, max_size=2048))
    def test_encrypt_decrypt(self, chunk):
        layered = LayeredEncryption()
        ciphertext, _fp, wrapped = layered.encrypt_chunk(
            chunk, MLE_KEY, MASTER, HmacDrbg(b"n")
        )
        assert layered.decrypt_chunk(ciphertext, wrapped, MASTER) == chunk

    def test_dedup_preserved(self, layered):
        """Deterministic ciphertexts: the baseline does deduplicate."""
        c1, fp1, _ = layered.encrypt_chunk(b"chunk", MLE_KEY, MASTER, HmacDrbg(b"a"))
        c2, fp2, _ = layered.encrypt_chunk(b"chunk", MLE_KEY, MASTER, HmacDrbg(b"b"))
        assert c1 == c2
        assert fp1 == fp2

    def test_wrapped_key_roundtrip(self, layered):
        wrapped = layered.wrap_key(MLE_KEY, MASTER, HmacDrbg(b"n"))
        assert WrappedKey.decode(wrapped.encode()) == wrapped
        assert layered.unwrap_key(wrapped, MASTER) == MLE_KEY


class TestRekeying:
    def test_rekey_rewraps_without_touching_ciphertext(self, layered):
        chunk = b"data" * 100
        ciphertext, _fp, wrapped = layered.encrypt_chunk(
            chunk, MLE_KEY, MASTER, HmacDrbg(b"n")
        )
        rewrapped = layered.rekey_wrapped(wrapped, MASTER, NEW_MASTER, HmacDrbg(b"m"))
        # Old master is dead, new one works, ciphertext identical.
        with pytest.raises(IntegrityError):
            layered.unwrap_key(rewrapped, MASTER)
        assert layered.decrypt_chunk(ciphertext, rewrapped, NEW_MASTER) == chunk

    def test_rekey_cost_is_per_key_not_per_byte(self, layered):
        wrapped = layered.wrap_key(MLE_KEY, MASTER, HmacDrbg(b"n"))
        # 8 GB file at 8 KB chunks: ~1M wrapped keys of ~90 B.
        moved = rekey_bytes_moved(1_048_576, wrapped.size)
        assert moved < 128 * 1024 * 1024  # far below the 8 GB payload


class TestDocumentedWeakness:
    def test_leaked_mle_key_survives_rekey(self, layered):
        """The reason REED exists: after any number of master-key
        rotations, an adversary holding the chunk's MLE key still
        decrypts the stored ciphertext directly."""
        chunk = b"sensitive genome segment " * 40
        ciphertext, _fp, wrapped = layered.encrypt_chunk(
            chunk, MLE_KEY, MASTER, HmacDrbg(b"n")
        )
        for i in range(5):  # rotate the master key five times
            new_master = bytes([i]) * 32
            wrapped = layered.rekey_wrapped(
                wrapped, MASTER if i == 0 else bytes([i - 1]) * 32, new_master
            )
        # Adversary with the leaked MLE key ignores the wrapping entirely.
        recovered = AES256CTR.deterministic_decrypt(MLE_KEY, ciphertext)
        assert recovered == chunk

    def test_reed_does_not_have_this_weakness(self):
        """Contrast: REED's enhanced scheme with the stub withheld (it
        was re-encrypted under a new file key) resists the same attack."""
        from repro.core.schemes import get_scheme

        scheme = get_scheme("enhanced")
        chunk = b"sensitive genome segment " * 40
        split = scheme.encrypt_chunk(chunk, MLE_KEY)
        attempted = scheme.cipher.deterministic_decrypt(
            MLE_KEY, split.trimmed_package
        )
        assert attempted != chunk[: len(attempted)]


class TestTampering:
    def test_tampered_wrap_detected(self, layered):
        wrapped = layered.wrap_key(MLE_KEY, MASTER, HmacDrbg(b"n"))
        bad = WrappedKey(
            nonce=wrapped.nonce,
            body=wrapped.body[:-1] + bytes([wrapped.body[-1] ^ 1]),
            mac=wrapped.mac,
        )
        with pytest.raises(IntegrityError):
            layered.unwrap_key(bad, MASTER)
