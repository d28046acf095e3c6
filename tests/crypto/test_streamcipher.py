"""Tests for the AES-256-CTR kernel behind ``E(.)``."""

import hashlib
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import streamcipher
from repro.util.errors import ConfigurationError

KEY = bytes(range(32))
IV = bytes(range(16))
# Deterministic uses have no nonce (the all-zero IV); randomized ones a 16-byte one.
NONCES = (b"", b"\x10" * 16)
# Empty, one byte, three tails inside the ninth block, one enhanced-scheme 8 KiB payload.
LENGTHS = (0, 1, 135, 136, 137, 8224)
# The SHAKE-256 digest (16 bytes) of each (nonce length, length) keystream.
# AES-256-CTR is the format-3 cipher: a changed pin is a format revision.
KEYSTREAM_PINS = {
    (0, 0): "46b9dd2b0ba88d13233b3feb743eeb24",
    (0, 1): "70549d185c6af5cadded4931c0fa8fea",
    (0, 135): "60300c9c0eaef98e636a0e2d5a5a4f86",
    (0, 136): "003735ea74ac69729a2214368c116d6e",
    (0, 137): "514d33dd12f7f67f47c21b679a651d4e",
    (0, 8224): "f975411035d9b78d19bd5c9d6f9c2adc",
    (16, 0): "46b9dd2b0ba88d13233b3feb743eeb24",
    (16, 1): "9f78897cbc7b68c2c6a6cdca113c6e98",
    (16, 135): "f289142752921e9f70d5d4d2e8126757",
    (16, 136): "6c65ff3410b0426f6262f5a0a8b1cf97",
    (16, 137): "33ee6534be55980df6de33601ae03eec",
    (16, 8224): "4199dc56d21fdf0a715fd5af4a22ca23",
}

# NIST SP 800-38A, F.5.5 CTR-AES256.Encrypt (F.5.6 decrypts the same).
NIST_KEY = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
)
NIST_COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
NIST_CIPHERTEXT = bytes.fromhex(
    "601ec313775789a5b7a7f504bbf3d228"
    "f443e3ca4d62b59aca84e990cacaf5c5"
    "2b0930daa23de94ce87017ba2d84988d"
    "dfc9c58db67aada613c2dd08457941a6"
)


class TestKeystream:
    """The keystream is the encryption of zeros."""

    def test_construction_pinned(self):
        # AES-256-CTR from the IV as a 128-bit big-endian counter.
        keystream = streamcipher.encrypt(NIST_KEY, NIST_COUNTER, bytes(64))
        assert bytes(a ^ b for a, b in zip(keystream, NIST_PLAINTEXT)) == (
            NIST_CIPHERTEXT
        )

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("nonce", NONCES, ids=lambda nonce: f"nonce{len(nonce)}")
    def test_matches_shake_256(self, length, nonce):
        # The keystream matches the SHAKE-256 digest pinned for it.
        keystream = streamcipher.encrypt(KEY, nonce or streamcipher.ZERO_IV, bytes(length))
        assert len(keystream) == length
        assert hashlib.shake_256(keystream).hexdigest(16) == (
            KEYSTREAM_PINS[len(nonce), length]
        )

    def test_length_exact(self):
        for n in (0, 1, 15, 16, 17, 31, 32, 33, 100, 8224):
            assert len(streamcipher.encrypt(KEY, IV, bytes(n))) == n

    def test_prefix_property(self):
        assert streamcipher.encrypt(KEY, IV, bytes(100))[:50] == (
            streamcipher.encrypt(KEY, IV, bytes(50))
        )

    def test_nonce_separates(self):
        assert streamcipher.encrypt(KEY, b"a" * 16, bytes(64)) != (
            streamcipher.encrypt(KEY, b"b" * 16, bytes(64))
        )

    def test_key_size_enforced(self):
        for key in (b"", b"short", bytes(16), bytes(33)):
            with pytest.raises(ConfigurationError, match="32 bytes"):
                streamcipher.encrypt(key, IV, b"data")

    def test_iv_size_enforced(self):
        for iv in (b"", bytes(8), bytes(17)):
            with pytest.raises(ConfigurationError, match="16 bytes"):
                streamcipher.encrypt(KEY, iv, b"data")

    def test_negative_length_rejected(self):
        # 2**31 bytes would reach EVP_EncryptUpdate's C int as a negative
        # length; the kernel refuses it before any C call.
        class LongBytes(bytes):
            def __len__(self):
                return 1 << 31

        with pytest.raises(ConfigurationError, match="at most"):
            streamcipher.encrypt(KEY, IV, LongBytes(b"x"))


class TestEncryptInto:
    """``encrypt_into`` writes ``encrypt``'s output into a caller's buffer."""

    def test_nist_block_in_place_and_out_of_place(self):
        block = bytearray(NIST_PLAINTEXT)
        streamcipher.encrypt_into(NIST_KEY, NIST_COUNTER, block, block)
        assert block == NIST_CIPHERTEXT
        out = bytearray(len(NIST_PLAINTEXT))
        streamcipher.encrypt_into(NIST_KEY, NIST_COUNTER, NIST_PLAINTEXT, out)
        assert out == NIST_CIPHERTEXT

    @given(data=st.binary(max_size=3000), head=st.integers(0, 40), tail=st.integers(0, 40))
    def test_in_place_equals_out_of_place(self, data, head, tail):
        # On a slice of a larger buffer, as the chunk-window engine runs
        # it; the bytes around the slice stay as they were.
        expected = streamcipher.encrypt(KEY, IV, data)
        window = bytearray(b"\xaa" * head + data + b"\x55" * tail)
        piece = memoryview(window)[head : head + len(data)]
        streamcipher.encrypt_into(KEY, IV, piece, piece)
        assert window == b"\xaa" * head + expected + b"\x55" * tail
        for source in (data, bytearray(data), memoryview(data)):
            out = bytearray(len(data))
            streamcipher.encrypt_into(KEY, IV, source, out)
            assert out == expected

    def test_wrong_length_out_refused_before_any_call(self, monkeypatch):
        monkeypatch.setattr(streamcipher, "_prepare", _no_c_call)
        for size in (0, 15, 17):
            with pytest.raises(ConfigurationError, match=f"output has {size} bytes"):
                streamcipher.encrypt_into(KEY, IV, bytes(16), bytearray(size))

    def test_read_only_out_refused_before_any_call(self, monkeypatch):
        monkeypatch.setattr(streamcipher, "_prepare", _no_c_call)
        for out in (bytes(16), memoryview(bytearray(16)).toreadonly()):
            with pytest.raises(ConfigurationError, match="writable"):
                streamcipher.encrypt_into(KEY, IV, bytes(16), out)

    def test_negative_length_rejected(self, monkeypatch):
        # As for encrypt: 2**31 bytes would reach the C int as a negative
        # length, and nothing of that size is allocated to find out.
        class LongBytes(bytes):
            def __len__(self):
                return 1 << 31

        monkeypatch.setattr(streamcipher, "_prepare", _no_c_call)
        with pytest.raises(ConfigurationError, match="at most"):
            streamcipher.encrypt_into(KEY, IV, LongBytes(b"x"), bytearray(1))

    def test_key_and_iv_sizes_enforced(self):
        out = bytearray(4)
        with pytest.raises(ConfigurationError, match="32 bytes"):
            streamcipher.encrypt_into(bytes(16), IV, b"data", out)
        with pytest.raises(ConfigurationError, match="16 bytes"):
            streamcipher.encrypt_into(KEY, bytes(8), b"data", out)
        assert out == bytes(4)


def _no_c_call(*args):
    raise AssertionError("reached libcrypto")


class TestKnownAnswers:
    """NIST SP 800-38A F.5.5 and F.5.6, also cut inside a block."""

    def test_nist_ctr_aes256_encrypt(self):
        assert streamcipher.encrypt(NIST_KEY, NIST_COUNTER, NIST_PLAINTEXT) == (
            NIST_CIPHERTEXT
        )

    def test_nist_ctr_aes256_decrypt(self):
        assert streamcipher.decrypt(NIST_KEY, NIST_COUNTER, NIST_CIPHERTEXT) == (
            NIST_PLAINTEXT
        )

    @pytest.mark.parametrize("length", [1, 15, 17, 33, 63])
    def test_unaligned_tail(self, length):
        # A message that ends inside a block uses a prefix of its keystream.
        assert streamcipher.encrypt(
            NIST_KEY, NIST_COUNTER, NIST_PLAINTEXT[:length]
        ) == NIST_CIPHERTEXT[:length]

    def test_context_reused_after_a_tail(self):
        # A call that ended mid-block leaves no state for the next one.
        streamcipher.encrypt(NIST_KEY, NIST_COUNTER, NIST_PLAINTEXT[:7])
        assert streamcipher.encrypt(NIST_KEY, NIST_COUNTER, NIST_PLAINTEXT) == (
            NIST_CIPHERTEXT
        )

    def test_input_longer_than_one_update_refused(self, monkeypatch):
        # EVP_EncryptUpdate takes its length as a C int.
        monkeypatch.setattr(streamcipher, "_MAX_LENGTH", 63)
        with pytest.raises(ConfigurationError, match="at most 63 bytes"):
            streamcipher.encrypt(NIST_KEY, NIST_COUNTER, NIST_PLAINTEXT)
        assert streamcipher.encrypt(NIST_KEY, NIST_COUNTER, NIST_PLAINTEXT[:63]) == (
            NIST_CIPHERTEXT[:63]
        )


class TestAgainstCryptography:
    @settings(deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        iv=st.one_of(
            st.binary(min_size=16, max_size=16),
            st.just(b"\xff" * 16),  # the counter wraps to zero
            st.just(streamcipher.ZERO_IV),
        ),
        data=st.binary(max_size=3000),
    )
    def test_matches_cryptography(self, key, iv, data):
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        oracle = ciphers.Cipher(ciphers.algorithms.AES(key), ciphers.modes.CTR(iv))
        assert streamcipher.encrypt(key, iv, data) == oracle.encryptor().update(data)


class TestEncryption:
    @given(st.binary(max_size=2000))
    def test_roundtrip(self, data):
        assert streamcipher.decrypt(KEY, IV, streamcipher.encrypt(KEY, IV, data)) == data

    @given(st.binary(max_size=500))
    def test_deterministic_roundtrip(self, data):
        zero = streamcipher.ZERO_IV
        ct = streamcipher.encrypt(KEY, zero, data)
        assert streamcipher.encrypt(KEY, zero, data) == ct
        assert streamcipher.decrypt(KEY, zero, ct) == data

    def test_distinct_keys_distinct_streams(self):
        zeros = bytes(64)
        assert streamcipher.encrypt(KEY, IV, zeros) != streamcipher.encrypt(
            bytes(reversed(KEY)), IV, zeros
        )

    def test_accepts_bytes_like(self):
        data = bytes(range(100))
        assert streamcipher.encrypt(KEY, IV, bytearray(data)) == (
            streamcipher.encrypt(KEY, IV, data)
        )


def test_four_threads_on_one_key():
    # Each thread has its own cipher context; none sees another's counter.
    messages = [bytes([index]) * (4096 + 17 * index) for index in range(4)]
    expected = [streamcipher.encrypt(KEY, IV, message) for message in messages]
    results = [[] for _ in messages]
    barrier = threading.Barrier(len(messages))

    def run(slot):
        barrier.wait(timeout=60)
        for _ in range(200):
            results[slot].append(streamcipher.encrypt(KEY, IV, messages[slot]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(messages))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for slot, got in enumerate(results):
        assert got == [expected[slot]] * 200
