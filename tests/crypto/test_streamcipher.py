"""Tests for the SHAKE-256 stream cipher."""

import hashlib
import importlib
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import streamcipher
from repro.util.errors import ConfigurationError

KEY = bytes(range(32))
NONCES = (b"", b"\x10" * 16)
# Around SHAKE-256's 136-byte rate, plus one enhanced-scheme 8 KiB payload.
LENGTHS = (0, 1, 135, 136, 137, 8224)
# The ciphers pass an empty or a 16-byte nonce; the keystream takes any.
ORACLE_NONCES = (b"", b"\x08" * 8, b"\x10" * 16, bytes(range(48)))
# Around 128 KiB, where the format-1 (HashCTR) keystream's counter table ended.
TABLE_EDGE_LENGTHS = (131_071, 131_072, 131_073, 131_104)


@pytest.fixture(params=["builtin", "hashlib"])
def constructor(request):
    """The oracle's SHAKE-256: CPython's own Keccak, or hashlib's (OpenSSL when linked)."""
    if request.param == "builtin":
        return importlib.import_module("_sha3").shake_256
    return hashlib.shake_256


def oracle_keystream(constructor, key: bytes, length: int, nonce: bytes = b"") -> bytes:
    """The construction spelled out on a given SHAKE-256 implementation."""
    return constructor(key + nonce).digest(length)


class TestKeystream:
    def test_construction_pinned(self):
        # The keystream is SHAKE-256(key || nonce) cut to length.
        expected = hashlib.shake_256(KEY + NONCES[1]).digest(32)
        assert streamcipher.keystream(KEY, 32, NONCES[1]) == expected

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("nonce", NONCES, ids=lambda nonce: f"nonce{len(nonce)}")
    def test_matches_shake_256(self, length, nonce):
        expected = hashlib.shake_256(KEY + nonce).digest(length)
        assert streamcipher.keystream(KEY, length, nonce) == expected

    def test_length_exact(self):
        for n in (0, 1, 31, 32, 33, 100):
            assert len(streamcipher.keystream(KEY, n)) == n

    def test_prefix_property(self):
        assert streamcipher.keystream(KEY, 100)[:50] == streamcipher.keystream(KEY, 50)

    def test_nonce_separates(self):
        assert streamcipher.keystream(KEY, 64, b"a") != streamcipher.keystream(
            KEY, 64, b"b"
        )

    def test_key_size_enforced(self):
        with pytest.raises(ConfigurationError):
            streamcipher.keystream(b"short", 16)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            streamcipher.keystream(KEY, -1)


class TestAgainstOracle:
    # The fixture only picks the oracle, so sharing it across examples is fine.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        nonce=st.sampled_from(ORACLE_NONCES),
        length=st.integers(min_value=0, max_value=140_000),
    )
    def test_matches_oracle(self, constructor, key, nonce, length):
        assert streamcipher.keystream(key, length, nonce) == oracle_keystream(
            constructor, key, length, nonce
        )

    @pytest.mark.parametrize("length", TABLE_EDGE_LENGTHS)
    @pytest.mark.parametrize(
        "nonce", ORACLE_NONCES, ids=lambda nonce: f"nonce{len(nonce)}"
    )
    def test_counter_table_edge(self, constructor, length, nonce):
        # SHAKE-256 has no counter table: the stream has no seam at the old edge.
        assert streamcipher.keystream(KEY, length, nonce) == oracle_keystream(
            constructor, KEY, length, nonce
        )

    def test_concurrent_callers_past_table_edge(self, constructor):
        # Eight threads at once, alternating the nonce-free and the nonced stream.
        calls = [(131_104 + 4096 * i, NONCES[i % 2]) for i in range(8)]
        results = [None] * len(calls)
        barrier = threading.Barrier(len(calls))

        def draw(slot):
            length, nonce = calls[slot]
            barrier.wait(timeout=60)
            results[slot] = streamcipher.keystream(KEY, length, nonce)

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(calls))]
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
        for (length, nonce), got in zip(calls, results):
            assert got == oracle_keystream(constructor, KEY, length, nonce)


class TestEncryption:
    @given(st.binary(max_size=2000))
    def test_roundtrip(self, data):
        nonce = b"\x07" * 16
        assert streamcipher.decrypt(
            KEY, nonce, streamcipher.encrypt(KEY, nonce, data)
        ) == data

    @given(st.binary(max_size=500))
    def test_deterministic_roundtrip(self, data):
        ct = streamcipher.deterministic_encrypt(KEY, data)
        assert streamcipher.deterministic_encrypt(KEY, data) == ct
        assert streamcipher.deterministic_decrypt(KEY, ct) == data

    def test_distinct_keys_distinct_streams(self):
        other = bytes(reversed(KEY))
        data = b"\x00" * 64
        assert streamcipher.deterministic_encrypt(
            KEY, data
        ) != streamcipher.deterministic_encrypt(other, data)
