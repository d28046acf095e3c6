"""AES validated against the FIPS-197 appendix vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import modes
from repro.crypto.aes import AES, INV_SBOX, SBOX, T0, T1, T2, T3, encryption_schedule
from repro.util.errors import ConfigurationError

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
KEY_128 = bytes(range(16))
KEY_192 = bytes(range(24))
KEY_256 = bytes(range(32))

# FIPS-197 Appendix C known-answer vectors.
FIPS_VECTORS = [
    (KEY_128, "69c4e0d86a7b0430d8cdb78070b4c55a"),
    (KEY_192, "dda97ca4864cdfe06eaf70a0ec0d7191"),
    (KEY_256, "8ea2b7ca516745bfeafc49904b496089"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key,expected", FIPS_VECTORS)
    def test_fips197_encrypt(self, key, expected):
        assert AES(key).encrypt_block(PLAINTEXT).hex() == expected

    @pytest.mark.parametrize("key,expected", FIPS_VECTORS)
    def test_fips197_decrypt(self, key, expected):
        assert AES(key).decrypt_block(bytes.fromhex(expected)) == PLAINTEXT

    def test_appendix_b_vector(self):
        # FIPS-197 Appendix B worked example.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert AES(key).encrypt_block(pt).hex() == "3925841d02dc09fbdc118597196a0b32"


class TestSbox:
    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_sbox(self):
        assert all(INV_SBOX[SBOX[x]] == x for x in range(256))

    def test_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16


class TestRoundTrip:
    @given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
    def test_encrypt_decrypt(self, block, key_size):
        key = bytes(range(key_size))
        aes = AES(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    @given(st.binary(min_size=16, max_size=16))
    def test_different_keys_differ(self, block):
        c1 = AES(b"\x00" * 32).encrypt_block(block)
        c2 = AES(b"\x01" + b"\x00" * 31).encrypt_block(block)
        assert c1 != c2


def ttable_block(key: bytes, block: bytes) -> bytes:
    """One block through the numpy T-table rounds of the CTR engine: the
    block's halves are the counter block's nonce and counter."""
    words, rounds = encryption_schedule(key)
    return modes._ctr_slab_numpy(
        words, rounds, int.from_bytes(block[:8], "big"), int.from_bytes(block[8:], "big"), 1
    ).tobytes()


class TestTtablePath:
    """The T-table rounds the CTR engine runs must be indistinguishable
    from the reference ``encrypt_block`` (which stays as the oracle) at
    any counter block, not only the low counters a keystream reaches."""

    @pytest.mark.parametrize("key,expected", FIPS_VECTORS)
    def test_fips197_encrypt_fast(self, key, expected):
        assert ttable_block(key, PLAINTEXT).hex() == expected

    def test_appendix_b_vector_fast(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert ttable_block(key, pt).hex() == "3925841d02dc09fbdc118597196a0b32"

    @given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
    def test_differential_vs_reference(self, block, key_size):
        key = bytes(range(key_size))
        assert ttable_block(key, block) == AES(key).encrypt_block(block)

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=32, max_size=32))
    def test_differential_random_keys(self, block, key):
        assert ttable_block(key, block) == AES(key).encrypt_block(block)

    def test_tables_consistent_with_sbox(self):
        # T1/T2/T3 are byte rotations of T0; T0's third byte is the raw
        # S-box output (coefficient 1 of the MixColumns column).
        for x in range(256):
            t = T0[x]
            assert (t >> 8) & 0xFF == SBOX[x]
            assert T1[x] == ((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF
            assert T2[x] == ((t >> 16) | ((t & 0xFFFF) << 16)) & 0xFFFFFFFF
            assert T3[x] == ((t >> 24) | ((t & 0xFFFFFF) << 8)) & 0xFFFFFFFF

    def test_schedule_cached_per_key(self):
        a = encryption_schedule(KEY_256)
        b = encryption_schedule(bytes(KEY_256))
        assert a is b  # lru_cache hit for equal keys


class TestValidation:
    def test_bad_key_size(self):
        with pytest.raises(ConfigurationError):
            AES(b"short")

    def test_bad_block_size(self):
        aes = AES(KEY_256)
        with pytest.raises(ConfigurationError):
            aes.encrypt_block(b"too-short")
        with pytest.raises(ConfigurationError):
            aes.decrypt_block(b"x" * 17)
