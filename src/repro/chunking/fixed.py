"""Fixed-size chunking.

REED supports both fixed-size and variable-size chunking (Section V-A).
Fixed-size chunking is also what the synthetic experiments and the
trace-driven workloads use when chunk boundaries are dictated by the
trace records rather than by content.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.util.errors import ConfigurationError

#: A byte string is fed to a chunker in blocks of this size: the first
#: chunks come out after one block has been scanned rather than the whole
#: input, so a consumer's later stages can start while chunking goes on.
FEED_BLOCK_BYTES = 1 << 20


def iter_blocks(data_stream: Iterable[bytes] | bytes) -> Iterable[bytes]:
    """The stream's blocks; a single byte string is cut into feed blocks.

    The blocks are views of the string, not copies: the chunkers copy
    what they keep into their own buffers.
    """
    if not isinstance(data_stream, (bytes, bytearray, memoryview)):
        return data_stream
    view = memoryview(data_stream)
    return (
        view[start : start + FEED_BLOCK_BYTES]
        for start in range(0, len(view), FEED_BLOCK_BYTES)
    )


class FixedChunker:
    """Streaming fixed-size chunker with the same API as RabinChunker."""

    def __init__(self, chunk_size: int) -> None:
        if chunk_size <= 0:
            raise ConfigurationError("chunk size must be positive")
        self.chunk_size = chunk_size
        self._buffer = bytearray()

    def update(self, data: bytes) -> Iterator[bytes]:
        self._buffer.extend(data)
        size = self.chunk_size
        while len(self._buffer) >= size:
            yield bytes(self._buffer[:size])
            del self._buffer[:size]

    def finalize(self) -> bytes | None:
        if not self._buffer:
            return None
        chunk = bytes(self._buffer)
        self._buffer.clear()
        return chunk


def fixed_chunks(
    data_stream: Iterable[bytes] | bytes, chunk_size: int
) -> Iterator[bytes]:
    """Chunk a byte string or an iterable of byte blocks into fixed sizes."""
    chunker = FixedChunker(chunk_size)
    for block in iter_blocks(data_stream):
        yield from chunker.update(block)
    tail = chunker.finalize()
    if tail is not None:
        yield tail
