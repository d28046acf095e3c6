"""The client's chunk transform.

:class:`ChunkTransformPool` runs the chunk transform (MLE encryption +
CAONT packaging) over a batch, in order, in the calling process.  The
transform is two AES-256-CTR calls on OpenSSL and two SHA-256 digests
per chunk, about 20 µs for 8 KiB, so handing batches to worker processes
cost more in pickling and forks than it saved (docs/PERFORMANCE.md,
*The paper's cipher*).  Rekeys run in the client's process too
(:mod:`repro.core.rekeypipe`).
"""

from __future__ import annotations

from repro.core.schemes import EncryptionScheme, SplitPackage
from repro.util.errors import ConfigurationError


class ChunkTransformPool:
    """Runs ``scheme.encrypt_chunk``/``decrypt_chunk`` over batches, in
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
        if len(chunks) != len(mle_keys):
            raise ConfigurationError(
                f"{len(chunks)} chunks but {len(mle_keys)} MLE keys"
            )
        encrypt = self.scheme.encrypt_chunk
        return [encrypt(chunk, key) for chunk, key in zip(chunks, mle_keys)]

    def decrypt(self, trimmed: list[bytes], stubs: list[bytes]) -> list[bytes]:
        """Invert split packages back to plaintext chunks, preserving
        order; the earliest tampered chunk raises."""
        if len(trimmed) != len(stubs):
            raise ConfigurationError(
                f"{len(trimmed)} trimmed packages but {len(stubs)} stubs"
            )
        decrypt = self.scheme.decrypt_chunk
        return [decrypt(package, stub) for package, stub in zip(trimmed, stubs)]
