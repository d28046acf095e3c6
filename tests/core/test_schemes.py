"""Tests for REED's basic and enhanced encryption schemes.

These cover the paper's core claims (Section IV-B / IV-E):

* determinism of the trimmed package in (chunk, MLE key) — dedup works;
* all-or-nothing dependence on the stub — without it, nothing recovers;
* integrity: any tampering is detected at decryption;
* MLE-key-leakage resilience of the enhanced scheme (and the explicit
  *lack* of it in the basic scheme).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.schemes import (
    CANARY_SIZE,
    MLE_KEY_SIZE,
    STUB_SIZE,
    available_schemes,
    get_scheme,
)
from repro.crypto.hashing import DIGEST_SIZE, fingerprint, sha256
from repro.util.errors import ConfigurationError, IntegrityError

KEY = bytes(range(32))
OTHER_KEY = bytes(reversed(range(32)))
SCHEMES = available_schemes()

chunks_strategy = st.binary(min_size=1, max_size=4096)
keys_strategy = st.binary(min_size=32, max_size=32)


@pytest.mark.parametrize("scheme_name", SCHEMES)
class TestContract:
    """Shared contract for both schemes."""

    def make(self, scheme_name):
        return get_scheme(scheme_name)

    def test_roundtrip(self, scheme_name):
        scheme = self.make(scheme_name)
        chunk = b"\x37" * 1000
        split = scheme.encrypt_chunk(chunk, KEY)
        assert scheme.decrypt_chunk(split.trimmed_package, split.stub) == chunk

    def test_trimmed_package_size_equals_chunk(self, scheme_name):
        """Both schemes add exactly 64 bytes (canary/key + tail), all of
        which land in the stub: the deduplicated bytes match the chunk
        size, so dedup effectiveness is preserved."""
        scheme = self.make(scheme_name)
        for size in (1, 100, 8192):
            split = scheme.encrypt_chunk(b"\x01" * size, KEY)
            assert len(split.trimmed_package) == size
            assert len(split.stub) == STUB_SIZE

    def test_deterministic_for_dedup(self, scheme_name):
        scheme = self.make(scheme_name)
        a = scheme.encrypt_chunk(b"same chunk" * 100, KEY)
        b = scheme.encrypt_chunk(b"same chunk" * 100, KEY)
        assert a.trimmed_package == b.trimmed_package
        assert a.stub == b.stub
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_is_trimmed_package_hash(self, scheme_name):
        scheme = self.make(scheme_name)
        split = scheme.encrypt_chunk(b"chunk", KEY)
        assert split.fingerprint == fingerprint(split.trimmed_package)

    def test_different_keys_different_packages(self, scheme_name):
        scheme = self.make(scheme_name)
        a = scheme.encrypt_chunk(b"chunk" * 50, KEY)
        b = scheme.encrypt_chunk(b"chunk" * 50, OTHER_KEY)
        assert a.trimmed_package != b.trimmed_package

    def test_trimmed_package_tamper_detected(self, scheme_name):
        scheme = self.make(scheme_name)
        split = scheme.encrypt_chunk(b"\x00" * 500, KEY)
        for position in (0, 250, 499):
            damaged = bytearray(split.trimmed_package)
            damaged[position] ^= 0x01
            with pytest.raises(IntegrityError):
                scheme.decrypt_chunk(bytes(damaged), split.stub)

    def test_stub_tamper_detected(self, scheme_name):
        scheme = self.make(scheme_name)
        split = scheme.encrypt_chunk(b"\x00" * 500, KEY)
        for position in (0, 32, 63):
            damaged = bytearray(split.stub)
            damaged[position] ^= 0x01
            with pytest.raises(IntegrityError):
                scheme.decrypt_chunk(split.trimmed_package, bytes(damaged))

    def test_wrong_stub_size_rejected(self, scheme_name):
        scheme = self.make(scheme_name)
        split = scheme.encrypt_chunk(b"\x00" * 100, KEY)
        with pytest.raises(IntegrityError):
            scheme.decrypt_chunk(split.trimmed_package, split.stub[:-1])

    def test_empty_chunk_rejected(self, scheme_name):
        with pytest.raises(ConfigurationError):
            self.make(scheme_name).encrypt_chunk(b"", KEY)

    def test_bad_key_size_rejected(self, scheme_name):
        with pytest.raises(ConfigurationError):
            self.make(scheme_name).encrypt_chunk(b"x", b"short")

    def test_one_byte_chunk(self, scheme_name):
        scheme = self.make(scheme_name)
        split = scheme.encrypt_chunk(b"\x42", KEY)
        assert scheme.decrypt_chunk(split.trimmed_package, split.stub) == b"\x42"


@given(chunk=chunks_strategy, key=keys_strategy)
def test_roundtrip_property_basic(chunk, key):
    scheme = get_scheme("basic")
    split = scheme.encrypt_chunk(chunk, key)
    assert scheme.decrypt_chunk(split.trimmed_package, split.stub) == chunk


@given(chunk=chunks_strategy, key=keys_strategy)
def test_roundtrip_property_enhanced(chunk, key):
    scheme = get_scheme("enhanced")
    split = scheme.encrypt_chunk(chunk, key)
    assert scheme.decrypt_chunk(split.trimmed_package, split.stub) == chunk


@given(chunk=st.binary(min_size=1, max_size=2048))
def test_dedup_invariant(chunk):
    """Identical chunks under identical MLE keys yield identical trimmed
    packages, independent of anything per-file — the core REED property."""
    key = sha256(b"mle" + chunk)
    for name in SCHEMES:
        scheme = get_scheme(name)
        assert (
            scheme.encrypt_chunk(chunk, key).fingerprint
            == scheme.encrypt_chunk(chunk, key).fingerprint
        )


class TestKeyLeakageResilience:
    """Section IV-B: what an adversary with the MLE key can learn from
    the trimmed package alone (no stub)."""

    def test_basic_scheme_leaks_under_mle_key_compromise(self):
        """The documented weakness of the basic scheme: with the MLE key,
        XOR-ing the mask off the trimmed package reveals most of the
        chunk."""
        scheme = get_scheme("basic")
        chunk = b"GENOME-SEGMENT-" * 100
        split = scheme.encrypt_chunk(chunk, KEY)
        # Stripping the mask G(K_M) is decrypting under the zero IV.
        recovered_prefix = scheme.cipher.deterministic_decrypt(
            KEY, split.trimmed_package
        )
        # Everything but the final stub-covered bytes is exposed.
        assert recovered_prefix == chunk[: len(recovered_prefix)]

    def test_enhanced_scheme_resists_mle_key_compromise(self):
        """With the enhanced scheme the same attack recovers nothing: the
        mask is keyed by h = H(C1 || K_M), which depends on stub bytes."""
        scheme = get_scheme("enhanced")
        chunk = b"GENOME-SEGMENT-" * 100
        split = scheme.encrypt_chunk(chunk, KEY)
        attempted = scheme.cipher.deterministic_decrypt(KEY, split.trimmed_package)
        assert attempted != chunk[: len(attempted)]
        matching = sum(a == b for a, b in zip(attempted, chunk))
        assert matching < len(attempted) * 0.1


class TestMleKeyRecovery:
    """Decryption must recover the MLE key from the package itself —
    that is why REED never uploads MLE keys (paper footnote 1)."""

    def test_decrypt_needs_no_key_argument(self):
        for name in SCHEMES:
            scheme = get_scheme(name)
            chunk = b"no key needed" * 20
            split = scheme.encrypt_chunk(chunk, KEY)
            # decrypt_chunk's signature takes no MLE key at all.
            assert scheme.decrypt_chunk(split.trimmed_package, split.stub) == chunk


class TestConfiguration:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            get_scheme("quantum")

    def test_available(self):
        assert available_schemes() == ["basic", "enhanced"]

    def test_custom_stub_size(self):
        scheme = get_scheme("enhanced", stub_size=128)
        split = scheme.encrypt_chunk(b"\x01" * 1024, KEY)
        assert len(split.stub) == 128
        assert len(split.trimmed_package) == 1024 - 64
        assert scheme.decrypt_chunk(split.trimmed_package, split.stub) == b"\x01" * 1024

    def test_stub_must_exceed_tail(self):
        with pytest.raises(ConfigurationError):
            get_scheme("basic", stub_size=DIGEST_SIZE)

    def test_constants_match_paper(self):
        assert STUB_SIZE == 64
        assert CANARY_SIZE == 32
        assert MLE_KEY_SIZE == 32
        # 64-byte stub is 0.78% of an 8 KB chunk (Section IV-A).
        assert round(STUB_SIZE / 8192 * 100, 2) == 0.78
