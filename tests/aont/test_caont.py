"""Tests for convergent AONT (CAONT)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aont.caont import caont_revert, caont_transform
from repro.aont.package import Package
from repro.util.errors import IntegrityError


class TestConvergence:
    def test_deterministic(self):
        """Identical messages -> identical packages (dedup-compatible)."""
        assert caont_transform(b"chunk") == caont_transform(b"chunk")

    def test_distinct_messages_distinct_packages(self):
        assert caont_transform(b"chunk-a") != caont_transform(b"chunk-b")

    def test_roundtrip(self):
        package = caont_transform(b"some chunk data")
        assert caont_revert(package) == b"some chunk data"


@given(st.binary(max_size=2048))
def test_roundtrip_property(message):
    assert caont_revert(caont_transform(message)) == message


class TestIntegrity:
    def test_head_tamper_detected(self):
        package = caont_transform(b"x" * 200)
        head = bytearray(package.head)
        head[10] ^= 0x01
        with pytest.raises(IntegrityError):
            caont_revert(Package(head=bytes(head), tail=package.tail))

    def test_tail_tamper_detected(self):
        package = caont_transform(b"x" * 200)
        tail = bytearray(package.tail)
        tail[0] ^= 0x01
        with pytest.raises(IntegrityError):
            caont_revert(Package(head=package.head, tail=bytes(tail)))

    def test_verification_can_be_skipped(self):
        package = caont_transform(b"x" * 64)
        head = bytearray(package.head)
        head[0] ^= 0x01
        damaged = Package(head=bytes(head), tail=package.tail)
        # verify=False returns garbage rather than raising.
        out = caont_revert(damaged, verify=False)
        assert out != b"x" * 64
