"""Byte-string helpers used throughout the cryptographic layers.

The AONT constructions XOR large masks against messages and fold packages
into fixed-size pieces; these helpers centralize that logic with fast
``int.from_bytes`` based implementations (pure Python, no numpy needed on
the critical path).
"""

from __future__ import annotations

import hmac

from repro.util.errors import ConfigurationError


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return ``a XOR b``; the inputs must have equal length.

    Implemented via arbitrary-precision integers, which is the fastest
    portable way to XOR large buffers in pure Python (roughly 100x faster
    than a byte-by-byte loop for megabyte inputs).
    """
    if len(a) != len(b):
        raise ConfigurationError(
            f"xor_bytes requires equal lengths, got {len(a)} and {len(b)}"
        )
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def xor_fold(data: bytes, piece_size: int) -> bytes:
    """XOR-fold ``data`` into a single ``piece_size``-byte value.

    The data is divided into consecutive ``piece_size``-byte pieces (the
    final piece is zero-padded on the right) and all pieces are XORed
    together.  This is the "self-XOR" operation of REED's enhanced
    encryption scheme (Section IV-B): the result cannot be predicted
    without knowing the entire content of the input.

    One integer holds all pieces; each round XORs its upper pieces onto
    its lower half, so the fold takes ``log2(pieces)`` big-int operations
    instead of one conversion per piece.
    """
    if piece_size <= 0:
        raise ConfigurationError("piece_size must be positive")
    count = -(-len(data) // piece_size)
    acc = int.from_bytes(data, "big") << 8 * (count * piece_size - len(data))
    while count > 1:
        half = count // 2
        bits = 8 * piece_size * half
        acc = (acc >> bits) ^ (acc & ((1 << bits) - 1))
        count -= half
    return acc.to_bytes(piece_size, "big")


def split_at(data: bytes, index: int) -> tuple[bytes, bytes]:
    """Split ``data`` into ``(data[:index], data[index:])`` with bounds checks."""
    if index < 0 or index > len(data):
        raise ConfigurationError(
            f"split index {index} out of range for {len(data)} bytes"
        )
    return data[:index], data[index:]


def split_pieces(data: bytes, piece_size: int) -> list[bytes]:
    """Split ``data`` into consecutive pieces of ``piece_size`` bytes.

    The final piece may be shorter.  An empty input yields an empty list.
    """
    if piece_size <= 0:
        raise ConfigurationError("piece_size must be positive")
    return [data[i : i + piece_size] for i in range(0, len(data), piece_size)]


def ct_equal(a: bytes, b: bytes) -> bool:
    """Constant-time byte-string comparison (wraps :func:`hmac.compare_digest`)."""
    return hmac.compare_digest(a, b)
