"""Tests for CTR mode and deterministic MLE encryption."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import modes
from repro.crypto.aes import AES
from repro.util.errors import ConfigurationError

KEY = bytes(range(32))
NONCE = b"\x01" * 8
KEY_SIZES = (16, 24, 32)


class TestKeystream:
    def test_length_exact(self):
        for n in (0, 1, 15, 16, 17, 100):
            assert len(modes.ctr_keystream(KEY, NONCE, n)) == n

    def test_prefix_property(self):
        long = modes.ctr_keystream(KEY, NONCE, 64)
        short = modes.ctr_keystream(KEY, NONCE, 40)
        assert long[:40] == short

    def test_nonce_separates_streams(self):
        a = modes.ctr_keystream(KEY, b"\x00" * 8, 32)
        b = modes.ctr_keystream(KEY, b"\x01" * 8, 32)
        assert a != b

    def test_bad_nonce(self):
        with pytest.raises(ConfigurationError):
            modes.ctr_keystream(KEY, b"short", 16)

    def test_bad_key(self):
        with pytest.raises(ConfigurationError):
            modes.ctr_keystream(KEY[:20], NONCE, 16)

    def test_sbox_keystream_vector(self):
        # NIST SP 800-38A CTR-AES256 with our nonce layout differs; instead
        # pin the construction: first block is E(K, nonce || 0).
        first = modes.ctr_keystream(KEY, NONCE, 16)
        assert first == AES(KEY).encrypt_block(NONCE + b"\x00" * 8)


class TestEngines:
    """The numpy keystream must be byte-identical to the reference, for
    every AES key size and for runs both under and over one slab."""

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 100, 1000, 4096])
    def test_engines_match_reference(self, length):
        for key_size in KEY_SIZES:
            key = bytes(range(key_size))
            assert modes.ctr_keystream(
                key, NONCE, length
            ) == modes.ctr_keystream_reference(key, NONCE, length), key_size

    @given(
        st.sampled_from(KEY_SIZES).flatmap(
            lambda size: st.binary(min_size=size, max_size=size)
        ),
        st.binary(min_size=8, max_size=8),
        st.integers(min_value=0, max_value=600),
    )
    def test_differential_random(self, key, nonce, length):
        assert modes.ctr_keystream(
            key, nonce, length
        ) == modes.ctr_keystream_reference(key, nonce, length)

    def test_engines_match_for_192_bit_keys(self):
        key = bytes(range(24))
        assert modes.ctr_keystream(
            key, NONCE, 333
        ) == modes.ctr_keystream_reference(key, NONCE, 333)

    def test_numpy_slab_boundary(self):
        """A keystream longer than one numpy slab continues the counter
        across the slab edge and ends on a partial block."""
        aes = AES(KEY)
        slab = modes._NUMPY_SLAB_BLOCKS
        length = (slab + 3) * 16 + 5
        stream = modes.ctr_keystream(KEY, NONCE, length)
        assert len(stream) == length
        for block in (slab - 1, slab, slab + 1):
            expected = aes.encrypt_block(NONCE + block.to_bytes(8, "big"))
            assert stream[16 * block : 16 * (block + 1)] == expected, block
        tail = aes.encrypt_block(NONCE + (slab + 3).to_bytes(8, "big"))
        assert stream[-5:] == tail[:5]


class TestCtr:
    @given(st.binary(max_size=500))
    def test_roundtrip(self, data):
        ct = modes.ctr_encrypt(KEY, NONCE, data)
        assert modes.ctr_decrypt(KEY, NONCE, ct) == data

    @given(st.binary(min_size=1, max_size=200))
    def test_ciphertext_differs_from_plaintext(self, data):
        # With overwhelming probability for a PRF keystream.
        assert modes.ctr_encrypt(KEY, NONCE, data) != data


class TestDeterministic:
    @given(st.binary(max_size=300))
    def test_deterministic(self, data):
        a = modes.deterministic_encrypt(KEY, data)
        b = modes.deterministic_encrypt(KEY, data)
        assert a == b

    @given(st.binary(max_size=300))
    def test_roundtrip(self, data):
        ct = modes.deterministic_encrypt(KEY, data)
        assert modes.deterministic_decrypt(KEY, ct) == data

    def test_key_separates(self):
        data = b"same message"
        k2 = bytes(reversed(KEY))
        assert modes.deterministic_encrypt(KEY, data) != modes.deterministic_encrypt(
            k2, data
        )
