"""File chunking: fixed-size and Rabin content-defined chunking."""

from repro.chunking.chunker import (
    Chunk,
    ChunkingSpec,
    chunk_stream,
    iter_raw_chunks,
    make_chunker,
)
from repro.chunking.fixed import FixedChunker, fixed_chunks
from repro.chunking.rabin import (
    DEFAULT_AVG_SIZE,
    DEFAULT_MAX_SIZE,
    DEFAULT_MIN_SIZE,
    WINDOW_SIZE,
    RabinChunker,
    rabin_chunks,
)

__all__ = [
    "Chunk",
    "ChunkingSpec",
    "DEFAULT_AVG_SIZE",
    "DEFAULT_MAX_SIZE",
    "DEFAULT_MIN_SIZE",
    "FixedChunker",
    "RabinChunker",
    "WINDOW_SIZE",
    "chunk_stream",
    "fixed_chunks",
    "iter_raw_chunks",
    "make_chunker",
    "rabin_chunks",
]
