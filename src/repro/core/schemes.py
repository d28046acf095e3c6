"""REED's two chunk-encryption schemes (paper Section IV-B).

Both schemes turn a chunk ``M`` plus its MLE key ``K_M`` into

* a **trimmed package** — exactly ``len(M)`` bytes, deterministic in
  ``(M, K_M)``, so identical chunks deduplicate; and
* a 64-byte **stub** — the last bytes of the AONT package, without which
  the all-or-nothing property makes the trimmed package unrecoverable.

The stub is later encrypted under the per-file key (see
:mod:`repro.core.stubs`), so rekeying a file re-encrypts 64 bytes per
chunk (0.78 % of an 8 KB chunk) instead of the whole file.

**Basic scheme** (Fig. 2): CAONT keyed directly by the MLE key, with a
32-byte zero canary appended for integrity::

    C = (M || c) XOR G(K_M)          t = K_M XOR H(C)
    package = C || t                 stub = last 64 bytes

Cheap (one mask + one hash) but if ``K_M`` leaks, an adversary can strip
the mask from the trimmed package and recover most of ``M``.

**Enhanced scheme** (Fig. 3): first encrypt with the MLE key, then CAONT
the ciphertext *together with the MLE key* under the hash key
``h = H(C1 || K_M)``::

    C1 = E(K_M, M)                   h = H(C1 || K_M)
    C2 = (C1 || K_M) XOR G(h)        t = self-XOR(C2) XOR h
    package = C2 || t                stub = last 64 bytes

Even with ``K_M`` compromised, the package is protected by ``h``, which
depends on every bit of ``C2`` — and 64 bytes of ``C2`` live in the stub
under the file key.  The tail uses the cheap self-XOR fold instead of a
second hash because ``h`` itself already provides integrity.

Both masks are ``E`` under an all-zero IV: with AES-256-CTR,
``X XOR G(K)`` is the one-call encryption ``E(K, X)``, so no mask is
ever materialised.

Both decryptors recover ``K_M`` from the package, which is why REED never
uploads MLE keys (paper footnote 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.crypto.cipher import AES256CTR
from repro.crypto.hashing import DIGEST_SIZE, fingerprint, sha256
from repro.util.bytesutil import ct_equal, split_at, xor_bytes, xor_fold
from repro.util.errors import ConfigurationError, IntegrityError

#: Stub size in bytes (paper Section V-A: 64 bytes per chunk, chosen to
#: resist brute force on the stub while preserving storage efficiency).
STUB_SIZE = 64

#: The fixed canary appended for integrity checking in the basic scheme
#: (Section V-A: 32 bytes of zeroes).
CANARY = b"\x00" * 32
CANARY_SIZE = len(CANARY)

#: MLE key size (SHA-256 output of the OPRF signature).
MLE_KEY_SIZE = DIGEST_SIZE


@dataclass(frozen=True)
class SplitPackage:
    """The encrypt output: deduplicable part, secret part, and identity.

    ``fingerprint`` is the hash of the trimmed package — the unit the
    server deduplicates on.  ``stub`` is still *plaintext* here; the
    client encrypts the per-file stub file under the file key.
    """

    trimmed_package: bytes
    stub: bytes
    fingerprint: bytes


class EncryptionScheme(ABC):
    """Interface shared by the basic and enhanced schemes."""

    #: Registry name ("basic" / "enhanced").
    name: str
    #: The symmetric function ``E`` both schemes mask and encrypt with.
    cipher = AES256CTR

    def __init__(self, stub_size: int = STUB_SIZE) -> None:
        if stub_size <= DIGEST_SIZE:
            raise ConfigurationError(
                f"stub must exceed the {DIGEST_SIZE}-byte package tail"
            )
        self.stub_size = stub_size

    # -- subclass hooks -----------------------------------------------------

    @abstractmethod
    def _package(self, chunk: bytes, mle_key: bytes) -> bytes:
        """Build the full AONT package ``C || t`` for a chunk."""

    @abstractmethod
    def _unpackage(self, package: bytes) -> bytes:
        """Invert :meth:`_package`, verifying integrity."""

    # -- public API -----------------------------------------------------------

    def min_chunk_size(self) -> int:
        """Smallest chunk this scheme can split into trimmed + stub."""
        # The package is chunk + 64 bytes; it must strictly exceed the stub.
        return max(1, self.stub_size - CANARY_SIZE - DIGEST_SIZE + 1)

    def encrypt_chunk(self, chunk: bytes, mle_key: bytes) -> SplitPackage:
        """Transform a chunk into (trimmed package, stub, fingerprint)."""
        if len(mle_key) != MLE_KEY_SIZE:
            raise ConfigurationError(f"MLE key must be {MLE_KEY_SIZE} bytes")
        if not chunk:
            raise ConfigurationError("cannot encrypt an empty chunk")
        package = self._package(chunk, mle_key)
        if len(package) <= self.stub_size:
            raise ConfigurationError(
                f"chunk of {len(chunk)} bytes yields a package not larger "
                f"than the {self.stub_size}-byte stub"
            )
        trimmed, stub = split_at(package, len(package) - self.stub_size)
        return SplitPackage(
            trimmed_package=trimmed, stub=stub, fingerprint=fingerprint(trimmed)
        )

    def decrypt_chunk(self, trimmed_package: bytes, stub: bytes) -> bytes:
        """Recover the chunk from its trimmed package and plaintext stub."""
        if len(stub) != self.stub_size:
            raise IntegrityError(
                f"stub has {len(stub)} bytes, expected {self.stub_size}"
            )
        return self._unpackage(trimmed_package + stub)


class BasicScheme(EncryptionScheme):
    """The basic encryption scheme: CAONT keyed by the MLE key + canary."""

    name = "basic"

    def _package(self, chunk: bytes, mle_key: bytes) -> bytes:
        head = self.cipher.deterministic_encrypt(mle_key, chunk + CANARY)
        tail = xor_bytes(mle_key, sha256(head))
        return head + tail

    def _unpackage(self, package: bytes) -> bytes:
        if len(package) < DIGEST_SIZE + CANARY_SIZE + 1:
            raise IntegrityError("package too short for the basic scheme")
        head, tail = split_at(package, len(package) - DIGEST_SIZE)
        mle_key = xor_bytes(tail, sha256(head))
        padded = self.cipher.deterministic_decrypt(mle_key, head)
        chunk, canary = split_at(padded, len(padded) - CANARY_SIZE)
        if not ct_equal(canary, CANARY):
            raise IntegrityError("basic scheme canary mismatch: chunk tampered")
        return chunk


class EnhancedScheme(EncryptionScheme):
    """The enhanced scheme: MLE encryption, then CAONT over C1 || K_M.

    Resilient to MLE-key leakage at the cost of one extra deterministic
    encryption pass (the paper measures basic ~24 % faster at 8 KB).
    """

    name = "enhanced"

    def _package(self, chunk: bytes, mle_key: bytes) -> bytes:
        c1 = self.cipher.deterministic_encrypt(mle_key, chunk)
        payload = c1 + mle_key
        hash_key = sha256(payload)
        head = self.cipher.deterministic_encrypt(hash_key, payload)
        tail = xor_bytes(xor_fold(head, DIGEST_SIZE), hash_key)
        return head + tail

    def _unpackage(self, package: bytes) -> bytes:
        if len(package) < 2 * DIGEST_SIZE + 1:
            raise IntegrityError("package too short for the enhanced scheme")
        head, tail = split_at(package, len(package) - DIGEST_SIZE)
        hash_key = xor_bytes(xor_fold(head, DIGEST_SIZE), tail)
        payload = self.cipher.deterministic_decrypt(hash_key, head)
        if not ct_equal(sha256(payload), hash_key):
            raise IntegrityError("enhanced scheme hash-key mismatch: chunk tampered")
        c1, mle_key = split_at(payload, len(payload) - MLE_KEY_SIZE)
        return self.cipher.deterministic_decrypt(mle_key, c1)


_SCHEMES = {
    BasicScheme.name: BasicScheme,
    EnhancedScheme.name: EnhancedScheme,
}


def get_scheme(name: str, stub_size: int = STUB_SIZE) -> EncryptionScheme:
    """Instantiate a scheme by name (``"basic"`` or ``"enhanced"``)."""
    cls = _SCHEMES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown scheme {name!r}; available: {sorted(_SCHEMES)}"
        )
    return cls(stub_size=stub_size)


def available_schemes() -> list[str]:
    return sorted(_SCHEMES)
