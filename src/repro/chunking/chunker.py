"""Chunking front-end: the Chunk record and a chunker factory.

The REED client consumes a stream of :class:`Chunk` records — content plus
fingerprint plus position — regardless of which chunking policy produced
them.  ``make_chunker`` builds a chunker from a :class:`ChunkingSpec`, and
``chunk_stream`` wraps raw chunk bytes into records.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.chunking.fixed import FixedChunker, fixed_chunks
from repro.chunking.rabin import (
    DEFAULT_AVG_SIZE,
    DEFAULT_MAX_SIZE,
    DEFAULT_MIN_SIZE,
    RabinChunker,
    rabin_chunks,
)
from repro.crypto.hashing import fingerprint as _fingerprint
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class Chunk:
    """One deduplication unit: content, its fingerprint, and file offset."""

    data: bytes
    fingerprint: bytes
    index: int
    offset: int

    @property
    def size(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class ChunkingSpec:
    """Declarative chunking configuration.

    ``method`` is ``"rabin"`` (content-defined, the paper's default) or
    ``"fixed"``.  Sizes are in bytes; for Rabin chunking ``avg_size`` must
    be a power of two and the min/max default to the paper's 2 KB / 16 KB.
    """

    method: str = "rabin"
    avg_size: int = DEFAULT_AVG_SIZE
    min_size: int = field(default=DEFAULT_MIN_SIZE)
    max_size: int = field(default=DEFAULT_MAX_SIZE)

    def __post_init__(self) -> None:
        if self.method not in ("rabin", "fixed"):
            raise ConfigurationError(f"unknown chunking method {self.method!r}")


def make_chunker(spec: ChunkingSpec) -> RabinChunker | FixedChunker:
    """Instantiate a streaming chunker from a spec."""
    if spec.method == "fixed":
        return FixedChunker(spec.avg_size)
    return RabinChunker(
        min_size=spec.min_size,
        max_size=spec.max_size,
        avg_size=spec.avg_size,
    )


def iter_raw_chunks(
    data_stream: Iterable[bytes] | bytes, spec: ChunkingSpec
) -> Iterator[bytes]:
    """Yield raw chunk byte strings under the given spec."""
    if spec.method == "fixed":
        yield from fixed_chunks(data_stream, spec.avg_size)
    else:
        yield from rabin_chunks(
            data_stream,
            min_size=spec.min_size,
            max_size=spec.max_size,
            avg_size=spec.avg_size,
        )


def chunk_stream(
    data_stream: Iterable[bytes] | bytes, spec: ChunkingSpec
) -> Iterator[Chunk]:
    """Chunk a data stream into fingerprinted :class:`Chunk` records."""
    offset = 0
    for index, data in enumerate(iter_raw_chunks(data_stream, spec)):
        yield Chunk(
            data=data, fingerprint=_fingerprint(data), index=index, offset=offset
        )
        offset += len(data)
