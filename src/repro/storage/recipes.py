"""File recipes.

A recipe records how to reassemble a file from its chunks (Section IV-D):
the file's identity and size, the encryption scheme used, the ordered
list of trimmed-package fingerprints with chunk sizes, and the
key-regression version whose file key encrypts the stub file.  Recipes
live in the data store; like the paper, sensitive metadata (the
pathname) can be obfuscated with a salted hash before upload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import sha256
from repro.util.codec import Decoder, Encoder
from repro.util.errors import CorruptionError

#: Recipe format version (for forward compatibility on disk): format 3
#: recipes point at chunks written under AES-256-CTR.
RECIPE_FORMAT = 3
#: Retired formats, refused by the cipher their chunks were written under.
_RETIRED_FORMATS = {1: "HashCTR", 2: "SHAKE-256"}


@dataclass(frozen=True)
class ChunkRef:
    """One recipe entry: the trimmed package's fingerprint and chunk size."""

    fingerprint: bytes
    length: int


@dataclass(frozen=True)
class FileRecipe:
    """Reassembly metadata for one stored file."""

    file_id: str
    pathname: str
    size: int
    scheme: str
    key_version: int
    chunks: tuple[ChunkRef, ...] = field(default_factory=tuple)

    @property
    def chunk_count(self) -> int:
        return len(self.chunks)

    def encode(self) -> bytes:
        enc = (
            Encoder()
            .uint(RECIPE_FORMAT)
            .text(self.file_id)
            .text(self.pathname)
            .uint(self.size)
            .text(self.scheme)
            .uint(self.key_version)
            .uint(len(self.chunks))
        )
        for ref in self.chunks:
            enc.blob(ref.fingerprint)
            enc.uint(ref.length)
        return enc.done()

    @classmethod
    def decode(cls, data: bytes) -> "FileRecipe":
        dec = Decoder(data)
        version = dec.uint()
        if version != RECIPE_FORMAT:
            retired = _RETIRED_FORMATS.get(version)
            cipher = f" ({retired} chunks)" if retired else ""
            raise CorruptionError(f"unsupported recipe format {version}{cipher}")
        file_id = dec.text()
        pathname = dec.text()
        size = dec.uint()
        scheme = dec.text()
        key_version = dec.uint()
        count = dec.uint()
        chunks = tuple(
            ChunkRef(fingerprint=dec.blob(), length=dec.uint()) for _ in range(count)
        )
        dec.expect_end()
        recipe = cls(
            file_id=file_id,
            pathname=pathname,
            size=size,
            scheme=scheme,
            key_version=key_version,
            chunks=chunks,
        )
        total = sum(ref.length for ref in chunks)
        if total != size:
            raise CorruptionError(
                f"recipe size {size} disagrees with chunk total {total}"
            )
        return recipe


def obfuscate_pathname(pathname: str, salt: bytes) -> str:
    """Salted-hash obfuscation for pathnames (paper Section IV-D).

    Deterministic per (salt, pathname) so the same file maps to the same
    obfuscated name across snapshots, without revealing the original.
    """
    return sha256(salt + pathname.encode("utf-8")).hex()
