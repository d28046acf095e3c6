"""The chunk transform's batch interface, kept for its callers.

The client calls its scheme's window engine directly
(:meth:`~repro.core.schemes.EncryptionScheme.encrypt_chunks` and
:meth:`~repro.core.schemes.EncryptionScheme.decrypt_chunks`), in its own
process: the enhanced scheme's kernel transforms a window of chunks in
one buffer at about 15 µs per chunk of 2–16 KiB, where handing batches
to worker processes cost more in pickling and forks than it saved
(docs/PERFORMANCE.md, *The paper's cipher* and *The chunk-window
engine*).  :class:`ChunkTransformPool` delegates to that engine.
"""

from __future__ import annotations

from repro.core.schemes import EncryptionScheme, SplitPackage


class ChunkTransformPool:
    """Runs ``scheme.encrypt_chunks``/``decrypt_chunks`` over batches, in
    order, in the calling process."""

    def __init__(self, scheme: EncryptionScheme) -> None:
        self.scheme = scheme

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def encrypt(
        self, chunks: list[bytes], mle_keys: list[bytes]
    ) -> list[SplitPackage]:
        """Transform chunks into split packages, preserving order."""
        return self.scheme.encrypt_chunks(chunks, mle_keys)

    def decrypt(self, trimmed: list[bytes], stubs: list[bytes]) -> list[bytes]:
        """Invert split packages back to plaintext chunks, preserving
        order; the earliest tampered chunk raises."""
        return self.scheme.decrypt_chunks(trimmed, stubs)
