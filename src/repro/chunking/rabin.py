"""Content-defined chunking with Rabin fingerprinting.

REED's clients divide files with variable-size chunking implemented via
Rabin fingerprinting over a sliding window (Section V-A), with minimum and
maximum chunk sizes fixed at 2 KB and 16 KB and a configurable average
chunk size.

This is a faithful LBFS-style implementation: the rolling fingerprint is
the residue of the window's byte polynomial modulo an irreducible
polynomial over GF(2), updated per byte with two precomputed 256-entry
tables (one to shift a byte in, one to cancel the byte leaving the
window).  A chunk boundary is declared when the low ``log2(average)``
bits of the fingerprint match a fixed magic value, giving geometrically
distributed chunk sizes with the requested mean (clamped to
[minimum, maximum]).

Two engines cut bit-identical boundaries (differential tests enforce
this; see docs/PERFORMANCE.md):

* ``"reference"`` — the readable per-byte rolling loop, kept as the
  correctness oracle;
* ``"numpy"`` — the windowed fingerprint does not depend on where chunks
  were cut, so *candidate* boundaries of a whole fed region come first:
  the region splits into lanes of consecutive positions, and each numpy
  step rolls the full 53-bit fingerprint of every lane by one byte (two
  table gathers).  A cheap sequential walk then applies the min/max
  clamping.

``RabinChunker`` uses ``"numpy"`` unless ``engine=`` pins the reference.

Historical note: the seed implementation cancelled the byte leaving the
window at ``8 * WINDOW_SIZE`` instead of ``8 * (WINDOW_SIZE - 1)``, so its
fingerprint depended on every byte since the last cut, not on the window.
The shift is now correct; the window property is pinned by tests and is
exactly what makes the vectorized engine sound.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from functools import cache

import numpy as np

from repro.chunking.fixed import iter_blocks
from repro.util.errors import ConfigurationError

#: Degree-53 irreducible polynomial over GF(2) (the LBFS polynomial).
IRREDUCIBLE_POLY = 0x3DA3358B4DC173
POLY_DEGREE = 53

#: Sliding-window width in bytes.
WINDOW_SIZE = 48

#: Paper defaults (Section V-A).
DEFAULT_MIN_SIZE = 2 * 1024
DEFAULT_MAX_SIZE = 16 * 1024
DEFAULT_AVG_SIZE = 8 * 1024

#: Boundary magic value compared against the masked fingerprint.
BOUNDARY_MAGIC = 0x78

_FP_MASK = (1 << POLY_DEGREE) - 1
_TOP_SHIFT = POLY_DEGREE - 8

#: Every engine, the oracle first.
ENGINES = ("reference", "numpy")


def _poly_mod(value: int, poly: int, degree: int) -> int:
    """Reduce ``value`` modulo ``poly`` in GF(2) polynomial arithmetic."""
    while value.bit_length() > degree:
        value ^= poly << (value.bit_length() - 1 - degree)
    return value


def _build_tables(poly: int, degree: int, window: int) -> tuple[list[int], list[int]]:
    """Precompute the append and cancel tables for the rolling update.

    ``append_table[top]`` reduces the high byte that overflows past the
    polynomial degree when a new byte is shifted in.  ``cancel_table[b]``
    is ``b * x^(8*(window-1)) mod poly``: the byte leaving the window sits
    at that degree when the cancel is applied, before the shift (cancelling
    at ``8*window`` breaks the sliding-window property; see above).
    """
    append_table = [_poly_mod(top << degree, poly, degree) for top in range(256)]
    cancel_table = [_poly_mod(b << 8 * (window - 1), poly, degree) for b in range(256)]
    return append_table, cancel_table


_APPEND_TABLE, _CANCEL_TABLE = _build_tables(IRREDUCIBLE_POLY, POLY_DEGREE, WINDOW_SIZE)


def window_fingerprint(window: bytes) -> int:
    """Fingerprint of one full window, computed directly (not rolling).

    ``sum_j window[-1-j] * x^(8j) mod P`` — the value the rolling update
    maintains once the window is full.  Used by tests to pin the
    sliding-window property.
    """
    fp = 0
    for byte in window:
        fp = _poly_mod((fp << 8) | byte, IRREDUCIBLE_POLY, POLY_DEGREE)
    return fp


def _validate_sizes(min_size: int, max_size: int, avg_size: int) -> None:
    if min_size <= 0 or not min_size <= avg_size <= max_size:
        raise ConfigurationError(
            f"require 0 < min ({min_size}) <= avg ({avg_size}) <= max ({max_size})"
        )
    if avg_size & (avg_size - 1):
        raise ConfigurationError("average chunk size must be a power of two")
    if min_size <= WINDOW_SIZE:
        raise ConfigurationError(
            f"minimum chunk size must exceed the window size {WINDOW_SIZE}"
        )


class _ReferenceEngine:
    """Per-byte rolling implementation — the correctness oracle."""

    def __init__(self, min_size: int, max_size: int, avg_size: int) -> None:
        self.min_size = min_size
        self.max_size = max_size
        self._mask = avg_size - 1
        self._magic = BOUNDARY_MAGIC & self._mask
        self._reset_chunk_state()

    def _reset_chunk_state(self) -> None:
        self._buffer = bytearray()
        self._fingerprint = 0
        self._window = bytearray(WINDOW_SIZE)
        self._window_pos = 0

    def _roll(self, byte: int) -> None:
        """Advance the rolling fingerprint by one byte."""
        # Cancel the byte leaving the window (zero while still filling).
        outgoing = self._window[self._window_pos]
        self._window[self._window_pos] = byte
        self._window_pos = (self._window_pos + 1) % WINDOW_SIZE
        fp = self._fingerprint ^ _CANCEL_TABLE[outgoing]
        # Shift the new byte in: fp = (fp * x^8 + byte) mod P.
        top = fp >> _TOP_SHIFT
        fp = ((fp << 8) | byte) & _FP_MASK
        fp ^= _APPEND_TABLE[top]
        self._fingerprint = fp

    def update(self, data: bytes) -> Iterator[bytes]:
        """Consume bytes, yielding each completed chunk as it is cut."""
        for byte in data:
            self._buffer.append(byte)
            self._roll(byte)
            size = len(self._buffer)
            if size < self.min_size:
                continue
            if size >= self.max_size or (
                self._fingerprint & self._mask
            ) == self._magic:
                chunk = bytes(self._buffer)
                self._reset_chunk_state()
                yield chunk

    def finalize(self) -> bytes | None:
        if not self._buffer:
            return None
        chunk = bytes(self._buffer)
        self._reset_chunk_state()
        return chunk


# -- numpy engine ------------------------------------------------------------

#: Lane length (bytes) of the vectorized scan; regions under 256 KiB use
#: more, shorter lanes, and regions under 4 KiB the scalar loop.
_LANE_BYTES, _SHORT_LANE_BYTES = 256, 64
_SHORT_REGION_BYTES, _SCALAR_REGION_BYTES = 256 * 1024, 4096
#: Positions one lane scan covers (a feed block): a longer region is
#: scanned in pieces that overlap by a window, so a workspace is bounded.
_PIECE_BYTES = 1 << 20
#: Lanes hold the fingerprint in the top 53 bits of an int64, so the
#: byte shifted past degree 53 falls off without a mask.
_LANE_PAD = 64 - POLY_DEGREE
#: The step-major array packs four steps into a row; a byte leaves the
#: window ``_WINDOW_ROWS`` rows after it entered.
_ROW_STEPS = 4
_WINDOW_ROWS = WINDOW_SIZE // _ROW_STEPS


@cache
def _lane_tables():
    """``(fold, step)`` in the lane bit layout, built on first use.

    ``fold[top]`` is the append table, and
    ``step[o << 8 | b] = (o * x^(8*WINDOW_SIZE) mod P) ^ b`` appends ``b``
    and cancels ``o``: the update is GF(2)-linear, so cancelling ``o`` after
    the shift, one byte higher than the reference does before it, is equal.
    """
    cancel = [((c << 8) & _FP_MASK) ^ _APPEND_TABLE[c >> _TOP_SHIFT] for c in _CANCEL_TABLE]
    step = np.bitwise_xor.outer(np.array(cancel, np.uint64), np.arange(256, dtype=np.uint64))
    fold = np.array(_APPEND_TABLE, np.uint64)
    return tuple((t.ravel() << np.uint64(_LANE_PAD)).view(np.int64) for t in (fold, step))


class _Workspace:
    """The arrays of one piece's lane scan, reused from piece to piece.

    ``pairs`` takes the piece's bytes; once they are transposed into
    ``steps`` it takes the shifted copy, and then the tested bits.
    ``steps`` takes the match mask after the scan.  Together about 4.4
    bytes per position of a piece, touched only as far as a piece reaches.
    """

    __slots__ = ("pairs", "steps", "fp", "top")

    def __init__(self) -> None:
        lanes = _PIECE_BYTES // _LANE_BYTES
        # Room for the widest tested bits, 8-byte lanes of a quarter piece.
        self.pairs = np.empty((_PIECE_BYTES + 4 * _LANE_BYTES + WINDOW_SIZE) // 4, np.uint64)
        self.steps = np.empty((_LANE_BYTES + WINDOW_SIZE) // _ROW_STEPS * lanes, np.uint64)
        self.fp, self.top = np.empty((2, lanes), np.int64)


#: Workspaces not in use: a scan takes one (or makes one) and puts it
#: back, and at most one per core is kept.
_idle_workspaces: list[_Workspace] = []
_idle_lock = threading.Lock()
_MAX_IDLE_WORKSPACES = os.cpu_count() or 1


def _scalar_hits(region, mask: int, magic: int) -> list[int]:
    """``_lane_hits`` as one plain rolling loop, for short regions."""
    hits, fp = [], 0
    for u, (out, byte) in enumerate(zip(bytes(WINDOW_SIZE) + region, region)):
        fp ^= _CANCEL_TABLE[out]
        fp = (((fp << 8) | byte) & _FP_MASK) ^ _APPEND_TABLE[fp >> _TOP_SHIFT]
        if (fp & mask) == magic and u >= WINDOW_SIZE:
            hits.append(u - WINDOW_SIZE)
    return hits


def _lane_hits(region, mask: int, magic: int) -> list[int]:
    """Sorted ``j`` whose window ``region[j+1 : j+WINDOW_SIZE+1]`` matches.

    ``region`` is any byte buffer; ``region[0]`` only stands in for the
    byte before the first window and cancels out.  Pieces of at most
    ``_PIECE_BYTES`` positions (fewer for masks wider than 16 bits) are
    scanned one after another in one workspace.
    """
    count = len(region) - WINDOW_SIZE
    if count <= 0:
        return []
    piece = _PIECE_BYTES // max(1, np.min_scalar_type(mask).itemsize // 2)
    with _idle_lock:
        workspace = _idle_workspaces.pop() if _idle_workspaces else None
    if workspace is None:
        workspace = _Workspace()
    try:
        hits: list[int] = []
        for first in range(0, count, piece):
            part = region[first : first + piece + WINDOW_SIZE]
            hits.extend(first + j for j in _piece_hits(workspace, part, mask, magic))
        return hits
    finally:
        with _idle_lock:
            if len(_idle_workspaces) < _MAX_IDLE_WORKSPACES:
                _idle_workspaces.append(workspace)


def _piece_hits(workspace: _Workspace, piece, mask: int, magic: int) -> list[int]:
    """``_lane_hits`` of one piece, in ``workspace``.

    The positions split into lanes of consecutive ones.  Each lane warms
    up over the ``WINDOW_SIZE`` bytes before its first position, testing
    nothing; then each step rolls every lane by one byte at once:
    ``fp = (fp << 8) ^ fold[fp >> 56] ^ step[out << 8 | in]``.
    """
    fold, step = _lane_tables()
    count = len(piece) - WINDOW_SIZE
    lane = _LANE_BYTES if count >= _SHORT_REGION_BYTES else _SHORT_LANE_BYTES
    lanes = -(-count // lane)
    rows = (lane + WINDOW_SIZE) // _ROW_STEPS
    # The bytes, one per uint16; positions past the piece read as zero.
    pairs = workspace.pairs.view(np.uint16)[: lanes * lane + WINDOW_SIZE]
    pairs[: len(piece)] = np.frombuffer(piece, dtype=np.uint8)
    pairs[len(piece) :] = 0
    # Lane k runs over pairs[k*lane : (k+1)*lane + WINDOW_SIZE].  Transpose
    # to step-major through a uint64 view, four pairs per element: step u
    # of every lane is then steps[u >> 2, :, u & 3].
    by_lane = np.lib.stride_tricks.as_strided(workspace.pairs, (lanes, rows), (2 * lane, 8))
    steps = workspace.steps[: rows * lanes].reshape(rows, lanes)
    np.copyto(steps, by_lane.T)
    steps = steps.view(np.uint16).reshape(rows, lanes, _ROW_STEPS)
    # out << 8 | in: the byte leaving at step u entered at step u - 48.
    # The warm-up rows keep out = 0, whose cancel term is zero.
    shifted = workspace.pairs.view(np.uint16)[: lanes * lane].reshape(-1, lanes, _ROW_STEPS)
    np.left_shift(steps[:-_WINDOW_ROWS], 8, out=shifted)
    steps[_WINDOW_ROWS:] |= shifted
    fp, top = workspace.fp[:lanes], workspace.top[:lanes]
    fp[:] = 0
    # low[t, k]: the fingerprint bits the mask tests, of lane k after step t.
    dtype = np.min_scalar_type(mask)
    low = workspace.pairs.view(dtype)[: lane * lanes].reshape(lane, lanes)
    for u in range(lane + WINDOW_SIZE):
        # The arithmetic shift gives -128..127, which indexes the
        # 256-entry table from its end just as the unsigned byte would.
        np.right_shift(fp, 56, out=top)
        fp <<= 8
        fp ^= fold[top]
        fp ^= step.take(steps[u >> 2, :, u & 3], mode="clip")
        if u >= WINDOW_SIZE:
            np.right_shift(fp, _LANE_PAD, out=low[u - WINDOW_SIZE], casting="unsafe")
    low &= mask
    match = workspace.steps.view(np.bool_)[: lane * lanes].reshape(lane, lanes)
    np.equal(low, magic, out=match)
    t, k = np.divmod(np.flatnonzero(match), lanes)
    hits = np.sort(k * lane + t)
    return hits[: np.searchsorted(hits, count)].tolist()


class _NumpyEngine:
    """Vectorized candidate scan + sequential clamping walk.

    The fingerprint at position ``i`` depends on bytes ``i-47..i`` only,
    not on where chunks were cut, so every position's *candidacy* is
    found in bulk; the min/max clamping walks the sparse candidate list
    (one per ``avg_size`` bytes on average) in plain Python.
    """

    def __init__(self, min_size: int, max_size: int, avg_size: int) -> None:
        self.min_size = min_size
        self.max_size = max_size
        self._mask = avg_size - 1
        self._magic = BOUNDARY_MAGIC & self._mask
        self._buf = bytearray()
        self._start = 0  # where the chunk being cut starts in _buf
        self._scanned = 0  # candidate positions < _scanned are decided
        self._cands: list[int] = []  # sorted window-end positions that match
        self._live = 0  # index of the first candidate a later cut can use

    def _scan(self, start: int, n: int) -> None:
        """Find candidate window-end positions in ``[start, n)``.

        ``start`` is at least ``WINDOW_SIZE``, so the region starts at the
        byte before its first window.  No cut lies below ``min_size - 1``,
        which exceeds ``WINDOW_SIZE - 1``, so the first window of a
        stream is never needed.
        """
        scan = _scalar_hits if n - start < _SCALAR_REGION_BYTES else _lane_hits
        # The view is released before any `del buf[:k]` can run.
        with memoryview(self._buf) as view:
            hits = scan(view[start - WINDOW_SIZE : n], self._mask, self._magic)
        self._cands.extend(start + j for j in hits)

    def _next_cut(self) -> int:
        """Next boundary decidable from scanned data, or -1.

        Candidates below the current chunk's minimum are below every
        later chunk's too, so the search skips them for good.
        """
        cands, start = self._cands, self._start
        i = self._live = bisect_left(cands, start + self.min_size - 1, self._live)
        if i < len(cands) and cands[i] <= start + self.max_size - 1:
            return cands[i]
        if self._scanned >= start + self.max_size:
            return start + self.max_size - 1  # forced cut at the size cap
        return -1

    def update(self, data: bytes) -> Iterator[bytes]:
        buf = self._buf
        if self._start:
            # Drop the chunks cut since the last feed, once per feed.
            cut_len = self._start
            del buf[:cut_len]
            self._cands = [p - cut_len for p in self._cands[self._live :]]
            self._scanned -= cut_len
            self._start = self._live = 0
        buf += data
        n = len(buf)
        start = max(self._scanned, WINDOW_SIZE)
        if start < n:
            self._scan(start, n)
            self._scanned = n
        while (cut := self._next_cut()) >= 0:
            with memoryview(buf) as view:
                chunk = bytes(view[self._start : cut + 1])
            self._start = cut + 1
            yield chunk

    def finalize(self) -> bytes | None:
        chunk = bytes(self._buf[self._start :])
        self._buf = bytearray()
        self._start = self._scanned = self._live = 0
        self._cands = []
        return chunk or None


def _resolve_engine(engine: str | None) -> str:
    if engine is None:
        return "numpy"
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown chunking engine {engine!r}; available: {list(ENGINES)}"
        )
    return engine


class RabinChunker:
    """Streaming content-defined chunker.

    Feed data with :meth:`update` (which yields completed chunks) and call
    :meth:`finalize` for the trailing partial chunk.  The boundary
    decision depends only on the last ``WINDOW_SIZE`` bytes, so inserting
    or deleting data early in a file only disturbs nearby chunk
    boundaries — the property that makes deduplication robust to edits.

    ``engine`` selects the implementation (``"reference"`` or
    ``"numpy"``); ``None`` picks ``"numpy"``.  Both cut identical
    boundaries at every ``update()`` granularity.
    """

    _ENGINE_CLASSES = {
        "reference": _ReferenceEngine,
        "numpy": _NumpyEngine,
    }

    def __init__(
        self,
        min_size: int = DEFAULT_MIN_SIZE,
        max_size: int = DEFAULT_MAX_SIZE,
        avg_size: int = DEFAULT_AVG_SIZE,
        engine: str | None = None,
    ) -> None:
        _validate_sizes(min_size, max_size, avg_size)
        self.min_size = min_size
        self.max_size = max_size
        self.avg_size = avg_size
        self.engine = _resolve_engine(engine)
        self._impl = self._ENGINE_CLASSES[self.engine](min_size, max_size, avg_size)

    def update(self, data: bytes) -> Iterator[bytes]:
        """Consume bytes, yielding each completed chunk as it is cut."""
        return self._impl.update(data)

    def finalize(self) -> bytes | None:
        """Return the final partial chunk, or None if the stream ended on
        a boundary."""
        return self._impl.finalize()


def rabin_chunks(
    data_stream: Iterable[bytes] | bytes,
    min_size: int = DEFAULT_MIN_SIZE,
    max_size: int = DEFAULT_MAX_SIZE,
    avg_size: int = DEFAULT_AVG_SIZE,
    engine: str | None = None,
) -> Iterator[bytes]:
    """Chunk a byte string or an iterable of byte blocks."""
    chunker = RabinChunker(
        min_size=min_size, max_size=max_size, avg_size=avg_size, engine=engine
    )
    for block in iter_blocks(data_stream):
        yield from chunker.update(block)
    tail = chunker.finalize()
    if tail is not None:
        yield tail
