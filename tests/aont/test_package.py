"""Tests for the all-or-nothing transform (AONT)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aont.package import KEY_SIZE, Package, revert, transform, transform_with_key
from repro.crypto.drbg import HmacDrbg
from repro.util.errors import ConfigurationError


class TestRoundTrip:
    def test_transform_revert(self):
        package = transform(b"secret message", HmacDrbg(b"seed"))
        message, key = revert(package)
        assert message == b"secret message"
        assert len(key) == KEY_SIZE

    def test_randomized(self):
        a = transform(b"same", HmacDrbg(b"seed-a"))
        b = transform(b"same", HmacDrbg(b"seed-b"))
        assert a != b  # AONT proper is randomized (prevents dedup)

    def test_explicit_key_deterministic(self):
        key = b"\x07" * KEY_SIZE
        assert transform_with_key(b"msg", key) == transform_with_key(b"msg", key)


@given(st.binary(max_size=2048))
def test_roundtrip_property(message):
    package = transform(message, rng=HmacDrbg(b"p"))
    recovered, _key = revert(package)
    assert recovered == message


class TestAllOrNothing:
    def test_partial_package_destroys_message(self):
        """Flipping any package bit changes the recovered key, hence the
        whole recovered message — the all-or-nothing property."""
        message = b"A" * 256
        package = transform(message, rng=HmacDrbg(b"q"))
        for position in (0, 100, 255):
            head = bytearray(package.head)
            head[position] ^= 0x01
            recovered, _ = revert(Package(head=bytes(head), tail=package.tail))
            assert recovered != message
            # And not just locally different: the mask is keyed by H(C),
            # so damage is global, not confined to the flipped byte.
            matching = sum(a == b for a, b in zip(recovered, message))
            assert matching < len(message) * 0.6

    def test_tail_tampering_destroys_message(self):
        message = b"B" * 128
        package = transform(message, rng=HmacDrbg(b"r"))
        tail = bytearray(package.tail)
        tail[0] ^= 0xFF
        recovered, _ = revert(Package(head=package.head, tail=bytes(tail)))
        assert recovered != message


class TestPackageLayout:
    def test_size_overhead_is_tail(self):
        package = transform(b"x" * 100, rng=HmacDrbg(b"s"))
        assert len(package.head) == 100
        assert len(package.tail) == KEY_SIZE
        assert package.size == 100 + KEY_SIZE

    def test_flatten_split_roundtrip(self):
        package = transform(b"y" * 64, rng=HmacDrbg(b"t"))
        assert Package.from_bytes(package.to_bytes()) == package

    def test_trim(self):
        package = transform(b"z" * 100, rng=HmacDrbg(b"u"))
        trimmed, stub = package.trim(64)
        assert trimmed + stub == package.to_bytes()
        assert len(stub) == 64

    def test_trim_bounds(self):
        package = transform(b"z" * 10, rng=HmacDrbg(b"v"))
        with pytest.raises(ConfigurationError):
            package.trim(0)
        with pytest.raises(ConfigurationError):
            package.trim(package.size)

    def test_bad_key_size(self):
        with pytest.raises(ConfigurationError):
            transform_with_key(b"m", b"short")

    def test_bad_tail_size(self):
        with pytest.raises(ConfigurationError):
            revert(Package(head=b"headbytes", tail=b"short"))
