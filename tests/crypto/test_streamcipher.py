"""Tests for the HashCTR stream cipher."""

import hashlib
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import streamcipher
from repro.util.errors import ConfigurationError

KEY = bytes(range(32))
NONCES = (b"", b"\x08" * 8, b"\x10" * 16, bytes(range(48)))
# Around the end of the precomputed counter table (4,096 blocks = 128 KiB).
TABLE_EDGE_LENGTHS = (131_071, 131_072, 131_073, 131_104)


def oracle_keystream(key: bytes, length: int, nonce: bytes = b"") -> bytes:
    """The construction spelled out: one fresh SHA-256 per counter block."""
    blocks = (length + 31) // 32
    out = bytearray()
    for counter in range(blocks):
        out.extend(hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest())
    return bytes(out[:length])


@pytest.fixture(params=["builtin", "hashlib"])
def constructor(request, monkeypatch):
    """Run a test with the built-in SHA-256 type and with the fallback."""
    if request.param == "hashlib":
        monkeypatch.setattr(streamcipher, "_sha256", hashlib.sha256)
    return request.param


class TestKeystream:
    def test_construction_pinned(self):
        # Block i is SHA-256(key || nonce || counter_be64): pin block 0.
        expected = hashlib.sha256(KEY + (0).to_bytes(8, "big")).digest()
        assert streamcipher.keystream(KEY, 32) == expected

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
    # The fixture only picks the constructor, so sharing it across examples is fine.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        nonce=st.sampled_from(NONCES),
        length=st.integers(min_value=0, max_value=140_000),
    )
    def test_matches_oracle(self, constructor, key, nonce, length):
        assert streamcipher.keystream(key, length, nonce) == oracle_keystream(
            key, length, nonce
        )

    @pytest.mark.parametrize("length", TABLE_EDGE_LENGTHS)
    @pytest.mark.parametrize("nonce", NONCES, ids=lambda nonce: f"nonce{len(nonce)}")
    def test_counter_table_edge(self, constructor, length, nonce):
        assert streamcipher.keystream(KEY, length, nonce) == oracle_keystream(
            KEY, length, nonce
        )

    def test_concurrent_callers_past_table_edge(self, constructor):
        # Eight threads at once, alternating the nonce-free and the nonced stream.
        calls = [(131_104 + 4096 * i, NONCES[2 * (i % 2)]) for i in range(8)]
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
            assert got == oracle_keystream(KEY, length, nonce)


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
