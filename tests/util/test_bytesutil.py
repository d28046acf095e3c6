"""Tests for byte-string helpers (XOR, folding, splitting)."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.util.bytesutil import (
    ct_equal,
    split_at,
    split_pieces,
    xor_bytes,
    xor_fold,
    xor_fold_slots,
)
from repro.util.errors import ConfigurationError


def _xor_fold_by_piece(data: bytes, piece_size: int) -> bytes:
    """The fold one zero-padded piece at a time: the oracle for xor_fold."""
    acc = 0
    for offset in range(0, len(data), piece_size):
        piece = data[offset : offset + piece_size]
        acc ^= int.from_bytes(piece.ljust(piece_size, b"\x00"), "big")
    return acc.to_bytes(piece_size, "big")


def _xor_int(a: bytes, b: bytes) -> bytes:
    """XOR through one big integer per operand: the oracle for xor_bytes."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _xor_fold_int(data: bytes, piece_size: int) -> bytes:
    """The fold as log2(pieces) big-int halvings: an oracle for xor_fold."""
    count = -(-len(data) // piece_size)
    acc = int.from_bytes(data, "big") << 8 * (count * piece_size - len(data))
    while count > 1:
        half = count // 2
        bits = 8 * piece_size * half
        acc = (acc >> bits) ^ (acc & ((1 << bits) - 1))
        count -= half
    return acc.to_bytes(piece_size, "big")


EQUAL_LENGTH_PAIRS = st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.binary(min_size=n, max_size=n), st.binary(min_size=n, max_size=n))
)


class TestAgainstIntOracles:
    @given(EQUAL_LENGTH_PAIRS)
    def test_xor_bytes_matches_int_form(self, pair):
        a, b = pair
        out = xor_bytes(a, b)
        assert type(out) is bytes
        assert out == _xor_int(a, b)

    @given(st.binary(max_size=300), st.integers(1, 64))
    def test_xor_fold_matches_int_forms(self, data, piece):
        out = xor_fold(data, piece)
        assert type(out) is bytes
        assert out == _xor_fold_int(data, piece) == _xor_fold_by_piece(data, piece)

    @given(st.binary(max_size=300), st.binary(max_size=300))
    def test_xor_bytes_unequal_lengths_rejected(self, a, b):
        assume(len(a) != len(b))
        with pytest.raises(ConfigurationError):
            xor_bytes(a, b)

    @given(st.binary(max_size=300), st.integers(-64, 0))
    def test_xor_fold_nonpositive_piece_rejected(self, data, piece):
        with pytest.raises(ConfigurationError):
            xor_fold(data, piece)


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_empty(self):
        assert xor_bytes(b"", b"") == b""

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            xor_bytes(b"ab", b"abc")

    @given(st.binary(max_size=4096))
    def test_self_inverse(self, data):
        mask = bytes((b ^ 0x5A) for b in data)
        assert xor_bytes(xor_bytes(data, mask), mask) == data

    @given(st.binary(max_size=1024))
    def test_xor_with_zeros_is_identity(self, data):
        assert xor_bytes(data, b"\x00" * len(data)) == data

    def test_leading_zero_bytes_preserved(self):
        # Regression guard: leading zero bytes survive the XOR.
        a = b"\x00\x00\x01"
        b = b"\x00\x00\x00"
        assert xor_bytes(a, b) == a


class TestXorFold:
    @given(st.binary(max_size=40_000), st.integers(1, 64))
    def test_matches_piece_by_piece_fold(self, data, piece):
        assert xor_fold(data, piece) == _xor_fold_by_piece(data, piece)

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 64, 100, 2080, 8224, 16416])
    def test_package_lengths(self, length):
        data = bytes((7 * i + 3) % 256 for i in range(length))
        assert xor_fold(data, 32) == _xor_fold_by_piece(data, 32)

    def test_single_piece(self):
        assert xor_fold(b"\x01\x02", 2) == b"\x01\x02"

    def test_two_pieces(self):
        assert xor_fold(b"\x01\x02\x03\x04", 2) == b"\x02\x06"

    def test_final_piece_zero_padded(self):
        # 0x0102 XOR 0x0300 (03 padded with 00)
        assert xor_fold(b"\x01\x02\x03", 2) == b"\x02\x02"

    def test_empty_input(self):
        assert xor_fold(b"", 4) == b"\x00\x00\x00\x00"

    def test_bad_piece_size(self):
        with pytest.raises(ConfigurationError):
            xor_fold(b"abc", 0)

    @given(st.binary(min_size=1, max_size=2048), st.integers(1, 64))
    def test_output_size_and_determinism(self, data, piece):
        out = xor_fold(data, piece)
        assert len(out) == piece
        assert out == xor_fold(data, piece)

    @given(st.binary(min_size=64, max_size=256))
    def test_single_bit_flip_changes_fold(self, data):
        flipped = bytearray(data)
        flipped[0] ^= 0x01
        assert xor_fold(data, 32) != xor_fold(bytes(flipped), 32)

    def test_even_number_of_identical_flips_cancels(self):
        # The weakness the paper acknowledges: flipping the same bit in
        # an even number of pieces preserves the fold (Section IV-E).
        data = bytearray(b"\x00" * 64)
        data[0] ^= 0x80
        data[32] ^= 0x80
        assert xor_fold(bytes(data), 32) == xor_fold(b"\x00" * 64, 32)


class TestXorFoldSlots:
    @given(
        pieces=st.lists(st.binary(max_size=300), min_size=1, max_size=20),
        piece=st.sampled_from([1, 3, 8, 12, 32, 64]),
    )
    def test_each_slot_folds_as_xor_fold(self, pieces, piece):
        # Each slot: its data, then zeros up to a whole number of pieces
        # (at least one zero piece, as a window slot's tail).
        buffer, starts = bytearray(), []
        for data in pieces:
            starts.append(len(buffer))
            buffer += data + bytes(piece + -len(data) % piece)
        folds = xor_fold_slots(buffer, starts, piece)
        assert folds.shape == (len(pieces), piece)
        assert [row.tobytes() for row in folds] == [
            _xor_fold_by_piece(data, piece) for data in pieces
        ]

    def test_bad_piece_size(self):
        with pytest.raises(ConfigurationError):
            xor_fold_slots(bytearray(32), [0], 0)


class TestSplitters:
    def test_split_at(self):
        assert split_at(b"abcdef", 2) == (b"ab", b"cdef")

    def test_split_at_bounds(self):
        assert split_at(b"ab", 0) == (b"", b"ab")
        assert split_at(b"ab", 2) == (b"ab", b"")
        with pytest.raises(ConfigurationError):
            split_at(b"ab", 3)
        with pytest.raises(ConfigurationError):
            split_at(b"ab", -1)

    @given(st.binary(max_size=1024), st.integers(1, 100))
    def test_split_pieces_roundtrip(self, data, piece):
        pieces = split_pieces(data, piece)
        assert b"".join(pieces) == data
        if pieces:
            assert all(len(p) == piece for p in pieces[:-1])
            assert 1 <= len(pieces[-1]) <= piece

    def test_split_pieces_empty(self):
        assert split_pieces(b"", 8) == []


class TestCtEqual:
    def test_equal(self):
        assert ct_equal(b"same", b"same")

    def test_unequal(self):
        assert not ct_equal(b"same", b"diff")
        assert not ct_equal(b"short", b"longer")
