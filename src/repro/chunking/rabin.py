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

Three engines cut bit-identical boundaries (differential tests enforce
this; see docs/PERFORMANCE.md):

* ``"reference"`` — the readable per-byte rolling loop, kept as the
  correctness oracle;
* ``"scan"`` — pure Python with the classic LBFS skip-ahead: boundaries
  below ``min_size`` are clamped anyway, so after each cut the scanner
  jumps straight to ``min_size - WINDOW_SIZE``, warms the window over
  the next ``WINDOW_SIZE`` bytes, and only then starts testing — with
  the buffer indexed directly (the byte leaving the window is
  ``buf[i - WINDOW_SIZE]``, so no ring buffer) and all tables bound to
  locals;
* ``"numpy"`` — the windowed fingerprint is a pure XOR of per-offset
  table entries, so *candidate* boundaries for every position are
  computed vectorized (byte-pair tables, 24 gathers per position batch,
  low 16 fingerprint bits only — the boundary mask never needs more),
  then a cheap sequential walk applies the min/max clamping.

``RabinChunker`` picks the fastest available engine unless ``engine=``
pins one.

Historical note: the seed implementation's cancel table was built with a
shift of ``8 * WINDOW_SIZE`` instead of ``8 * (WINDOW_SIZE - 1)``, so the
byte leaving the window was cancelled one shift too high and the
fingerprint silently depended on *every* byte since the last cut rather
than on the 48-byte window (weakening boundary resynchronization after
edits, and contradicting this docstring).  The shift is now correct; the
window property is pinned by tests and is exactly what makes the
skip-ahead and vectorized engines sound.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

from repro.chunking.fixed import iter_blocks
from repro.util.errors import ConfigurationError

try:  # numpy is optional; the pure-Python engines always work.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

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

_ENGINES = ("reference", "scan", "numpy")


def _poly_mod(value: int, poly: int, degree: int) -> int:
    """Reduce ``value`` modulo ``poly`` in GF(2) polynomial arithmetic."""
    while value.bit_length() > degree:
        value ^= poly << (value.bit_length() - 1 - degree)
    return value


def _build_tables(poly: int, degree: int, window: int) -> tuple[list[int], list[int]]:
    """Precompute the append and cancel tables for the rolling update.

    ``append_table[top]`` reduces the high byte that overflows past the
    polynomial degree when a new byte is shifted in.  ``cancel_table[b]``
    is ``b * x^(8*(window-1)) mod poly``: the byte leaving the window
    sits at degree ``8*(window-1)`` when the cancel is applied (before
    the shift), so this is the contribution to remove — cancelling at
    ``8*window`` would leave a residue and break the sliding-window
    property (see the module docstring).
    """
    append_table = []
    for top in range(256):
        append_table.append(_poly_mod(top << degree, poly, degree))
    cancel_table = []
    shift = 8 * (window - 1)
    for b in range(256):
        cancel_table.append(_poly_mod(b << shift, poly, degree))
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


def available_chunking_engines() -> list[str]:
    """Engines usable in this process (always includes the pure ones)."""
    return [e for e in _ENGINES if e != "numpy" or _np is not None]


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


class _ScanEngine:
    """Skip-ahead scanner: LBFS fast path, bit-identical to the reference.

    Boundary checks are clamped below ``min_size``, and the (fixed)
    fingerprint depends only on the last ``WINDOW_SIZE`` bytes — so the
    first ``min_size - WINDOW_SIZE`` bytes of every chunk need no
    fingerprint work at all, the next ``WINDOW_SIZE`` bytes only warm
    the window, and testing starts at size ``min_size`` exactly where
    the reference takes its first boundary decision.
    """

    def __init__(self, min_size: int, max_size: int, avg_size: int) -> None:
        self.min_size = min_size
        self.max_size = max_size
        self._mask = avg_size - 1
        self._magic = BOUNDARY_MAGIC & self._mask
        self._buf = bytearray()
        self._pos = 0  # next unprocessed index in the current chunk
        self._fp = 0

    def update(self, data: bytes) -> Iterator[bytes]:
        buf = self._buf
        buf += data
        append_tbl = _APPEND_TABLE
        cancel_tbl = _CANCEL_TABLE
        fp_mask = _FP_MASK
        top_shift = _TOP_SHIFT
        mask = self._mask
        magic = self._magic
        min_size = self.min_size
        max_size = self.max_size
        skip_to = min_size - WINDOW_SIZE
        warm_end = min_size - 1
        while True:
            n = len(buf)
            pos = self._pos
            fp = self._fp
            # Phase 1: skip — no boundary below min_size, no window state
            # needed before the warm-up region.
            if pos < skip_to:
                pos = skip_to if n >= skip_to else n
                if pos < skip_to:
                    self._pos = pos
                    return
            # Phase 2: warm — fill the window, no checks yet.
            if pos < warm_end:
                end = warm_end if n >= warm_end else n
                for i in range(pos, end):
                    top = fp >> top_shift
                    fp = ((fp << 8) | buf[i]) & fp_mask
                    fp ^= append_tbl[top]
                pos = end
                if pos < warm_end:
                    self._pos = pos
                    self._fp = fp
                    return
            cut = -1
            # First test position (size == min_size): the window has just
            # filled, so there is still no byte to cancel.
            if pos == warm_end:
                if pos >= n:
                    self._pos = pos
                    self._fp = fp
                    return
                top = fp >> top_shift
                fp = ((fp << 8) | buf[pos]) & fp_mask
                fp ^= append_tbl[top]
                if (fp & mask) == magic or min_size >= max_size:
                    cut = pos
                pos += 1
            # Phase 3: scan — roll + test until a boundary, max_size, or
            # the end of buffered data.
            if cut < 0:
                end = max_size if n >= max_size else n
                for i in range(pos, end):
                    fp ^= cancel_tbl[buf[i - WINDOW_SIZE]]
                    top = fp >> top_shift
                    fp = ((fp << 8) | buf[i]) & fp_mask
                    fp ^= append_tbl[top]
                    if (fp & mask) == magic:
                        cut = i
                        break
                else:
                    pos = end
                    if end == max_size:
                        cut = max_size - 1  # forced cut at the size cap
            if cut < 0:
                self._pos = pos
                self._fp = fp
                return
            chunk = bytes(buf[: cut + 1])
            del buf[: cut + 1]
            self._pos = 0
            self._fp = 0
            yield chunk

    def finalize(self) -> bytes | None:
        if not self._buf:
            return None
        chunk = bytes(self._buf)
        self._buf = bytearray()
        self._pos = 0
        self._fp = 0
        return chunk


# -- numpy engine ------------------------------------------------------------

#: Byte-pair lookup tables for the vectorized scan, built on first use:
#: ``_PAIR16[m][lo | hi << 8] = low16((lo * x^(8*(2m+1)) ^ hi * x^(8*2m)) mod P)``
#: — the contribution of two adjacent window bytes, keeping only the low
#: 16 fingerprint bits (the boundary mask ``avg_size - 1`` never needs
#: more when ``avg_size <= 65536``).
_PAIR16 = None


def _pair_tables():
    global _PAIR16
    if _PAIR16 is None:
        np = _np
        byte_tables = np.zeros((WINDOW_SIZE, 256), dtype=np.uint16)
        for j in range(WINDOW_SIZE):
            for b in range(256):
                byte_tables[j][b] = (
                    _poly_mod(b << (8 * j), IRREDUCIBLE_POLY, POLY_DEGREE) & 0xFFFF
                )
        pair = np.empty((WINDOW_SIZE // 2, 65536), dtype=np.uint16)
        for m in range(WINDOW_SIZE // 2):
            j = 2 * m
            # Index p = earlier | later << 8; the earlier byte sits one
            # shift higher in the window.
            pair[m] = (byte_tables[j][:, None] ^ byte_tables[j + 1][None, :]).ravel()
        _PAIR16 = pair
    return _PAIR16


class _NumpyEngine:
    """Vectorized candidate scan + sequential clamping walk.

    The (fixed) windowed fingerprint at stream position ``i`` is a pure
    function of bytes ``i-47..i``, independent of where chunks were cut.
    So every position's boundary *candidacy* can be precomputed in bulk,
    and the min/max clamping — the only sequential part — walks the
    sparse candidate list (one candidate per ``avg_size`` bytes on
    average) in plain Python.
    """

    def __init__(self, min_size: int, max_size: int, avg_size: int) -> None:
        self.min_size = min_size
        self.max_size = max_size
        self._mask = avg_size - 1
        self._magic = BOUNDARY_MAGIC & self._mask
        self._buf = bytearray()
        self._scanned = 0  # candidate positions < _scanned are decided
        self._cands: list[int] = []  # sorted window-end positions that match

    def _scan(self, start: int, n: int) -> None:
        """Find candidate window-end positions in ``[start, n)``."""
        np = _np
        pair = _pair_tables()
        # Copy the region so `del buf[:k]` later never trips the
        # exporting-view BufferError.
        lo = start - (WINDOW_SIZE - 1)
        region = bytes(self._buf[lo:n])
        arr = np.frombuffer(region, dtype=np.uint8)
        length = len(arr)
        mask16 = np.uint16(self._mask)
        magic16 = np.uint16(self._magic)
        half = WINDOW_SIZE // 2
        found: list[int] = []
        # Window starts alternate parity; handle each parity class with
        # its own uint16 pair view.
        for par in (0, 1):
            usable = (length - par) // 2
            nwin = usable - half + 1
            if nwin <= 0:
                continue
            v = (
                arr[par : par + 2 * usable : 2].astype(np.uint16)
                | (arr[par + 1 : par + 2 * usable + 1 : 2].astype(np.uint16) << 8)
            )
            # Pair at window offset 2*m covers shifts (47-2m, 46-2m).
            acc = pair[half - 1][v[0:nwin]].copy()
            for m in range(1, half):
                acc ^= pair[half - 1 - m][v[m : m + nwin]]
            hits = np.nonzero((acc & mask16) == magic16)[0]
            if len(hits):
                # Window-end position in buf coordinates.
                found.extend((lo + par + 2 * hits + (WINDOW_SIZE - 1)).tolist())
        if found:
            found.sort()
            cands = self._cands
            for p in found:
                if p >= start:  # overlap region was decided by a prior scan
                    cands.append(p)

    def _next_cut(self) -> int:
        """Next boundary decidable from scanned data, or -1."""
        cands = self._cands
        i = bisect_left(cands, self.min_size - 1)
        if i < len(cands) and cands[i] <= self.max_size - 1:
            return cands[i]
        if self._scanned >= self.max_size:
            return self.max_size - 1  # forced cut at the size cap
        return -1

    def update(self, data: bytes) -> Iterator[bytes]:
        buf = self._buf
        buf += data
        n = len(buf)
        if n >= WINDOW_SIZE and self._scanned < n:
            start = max(self._scanned, WINDOW_SIZE - 1)
            if start < n:
                self._scan(start, n)
            self._scanned = n
        while True:
            cut = self._next_cut()
            if cut < 0:
                return
            chunk = bytes(buf[: cut + 1])
            cut_len = cut + 1
            del buf[:cut_len]
            self._scanned = max(self._scanned - cut_len, 0)
            self._cands = [p - cut_len for p in self._cands if p >= cut_len]
            yield chunk

    def finalize(self) -> bytes | None:
        if not self._buf:
            return None
        chunk = bytes(self._buf)
        self._buf = bytearray()
        self._scanned = 0
        self._cands = []
        return chunk


def _resolve_engine(engine: str | None, avg_size: int) -> str:
    mask_fits = (avg_size - 1) <= 0xFFFF
    if engine is None:
        if _np is not None and mask_fits:
            return "numpy"
        return "scan"
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown chunking engine {engine!r}; "
            f"available: {available_chunking_engines()}"
        )
    if engine == "numpy":
        if _np is None:
            raise ConfigurationError(
                "numpy chunking engine requested but numpy is absent"
            )
        if not mask_fits:
            raise ConfigurationError(
                "numpy chunking engine supports avg_size up to 65536 "
                f"(16-bit boundary mask), got {avg_size}"
            )
    return engine


class RabinChunker:
    """Streaming content-defined chunker.

    Feed data with :meth:`update` (which yields completed chunks) and call
    :meth:`finalize` for the trailing partial chunk.  The boundary
    decision depends only on the last ``WINDOW_SIZE`` bytes, so inserting
    or deleting data early in a file only disturbs nearby chunk
    boundaries — the property that makes deduplication robust to edits.

    ``engine`` selects the implementation (``"reference"``, ``"scan"``,
    ``"numpy"``); ``None`` picks the fastest available.  All engines cut
    identical boundaries at every ``update()`` granularity.
    """

    _ENGINE_CLASSES = {
        "reference": _ReferenceEngine,
        "scan": _ScanEngine,
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
        self.engine = _resolve_engine(engine, avg_size)
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
