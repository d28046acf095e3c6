"""Byte-string helpers used throughout the cryptographic layers.

The AONT constructions XOR large masks against messages and fold packages
into fixed-size pieces; these helpers centralize that logic on numpy
``uint8`` views of the buffers, so one XOR or fold is a single vectorized
pass whatever the length.
"""

from __future__ import annotations

import hmac

import numpy as np

from repro.util.errors import ConfigurationError


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return ``a XOR b``; the inputs must have equal length."""
    if len(a) != len(b):
        raise ConfigurationError(
            f"xor_bytes requires equal lengths, got {len(a)} and {len(b)}"
        )
    return (np.frombuffer(a, np.uint8) ^ np.frombuffer(b, np.uint8)).tobytes()


def xor_fold(data: bytes, piece_size: int) -> bytes:
    """XOR-fold ``data`` into a single ``piece_size``-byte value.

    The data is divided into consecutive ``piece_size``-byte pieces (the
    final piece is zero-padded on the right) and all pieces are XORed
    together.  This is the "self-XOR" operation of REED's enhanced
    encryption scheme (Section IV-B): the result cannot be predicted
    without knowing the entire content of the input.  An empty input
    folds to ``piece_size`` zero bytes.
    """
    if piece_size <= 0:
        raise ConfigurationError("piece_size must be positive")
    count = -(-len(data) // piece_size)
    pieces = np.frombuffer(data.ljust(count * piece_size, b"\x00"), np.uint8)
    return np.bitwise_xor.reduce(pieces.reshape(count, piece_size), axis=0).tobytes()


def xor_fold_slots(buffer, starts: list[int], piece_size: int) -> np.ndarray:
    """:func:`xor_fold` of every slot of ``buffer`` in one vectorized pass.

    Slot ``i`` runs from ``starts[i]`` to ``starts[i + 1]`` (the last to
    the end of ``buffer``); every start and the buffer's length are
    multiples of ``piece_size``.  Row ``i`` of the returned
    ``(len(starts), piece_size)`` array is ``xor_fold`` of slot ``i``'s
    data when the slot's bytes past its data are zero, which is
    ``xor_fold``'s right padding.
    """
    if piece_size <= 0:
        raise ConfigurationError("piece_size must be positive")
    # XOR is bytewise, so the rows fold as the widest words that tile
    # them: 64-bit words fold 32-byte rows several times faster than bytes.
    word = next(size for size in (8, 4, 2, 1) if piece_size % size == 0)
    rows = np.frombuffer(buffer, f"u{word}").reshape(-1, piece_size // word)
    indices = np.asarray(starts, dtype=np.intp) // piece_size
    return np.bitwise_xor.reduceat(rows, indices, axis=0).view(np.uint8)


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
