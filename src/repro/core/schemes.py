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

The client transforms a window of chunks at a time
(:meth:`EncryptionScheme.encrypt_chunks`/:meth:`~EncryptionScheme.decrypt_chunks`).
The enhanced scheme's window kernel spends far less interpreter time per
chunk than ``encrypt_chunk``/``decrypt_chunk``, which stay as the
readable Fig. 3 path and its oracle: the kernel's output, and the error
of the first chunk it refuses, are theirs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.crypto import streamcipher
from repro.crypto.cipher import AES256CTR
from repro.crypto.hashing import DIGEST_SIZE, fingerprint, sha256
from repro.util.bytesutil import (
    ct_equal,
    split_at,
    xor_bytes,
    xor_fold,
    xor_fold_slots,
)
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

    def _check_input(self, chunk: bytes, mle_key: bytes) -> None:
        """Raise the error :meth:`encrypt_chunk` raises for this input."""
        if len(mle_key) != MLE_KEY_SIZE:
            raise ConfigurationError(f"MLE key must be {MLE_KEY_SIZE} bytes")
        if not chunk:
            raise ConfigurationError("cannot encrypt an empty chunk")
        if len(chunk) < self.min_chunk_size():
            raise ConfigurationError(
                f"chunk of {len(chunk)} bytes yields a package not larger "
                f"than the {self.stub_size}-byte stub"
            )

    def encrypt_chunk(self, chunk: bytes, mle_key: bytes) -> SplitPackage:
        """Transform a chunk into (trimmed package, stub, fingerprint)."""
        self._check_input(chunk, mle_key)
        package = self._package(chunk, mle_key)
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

    # -- the window engine ----------------------------------------------------

    def encrypt_chunks(
        self, chunks: list[bytes], mle_keys: list[bytes]
    ) -> list[SplitPackage]:
        """:meth:`encrypt_chunk` over a window of chunks, in order.

        The result and any error are those of the per-chunk calls.
        """
        _check_counts(chunks, mle_keys, "chunks", "MLE keys")
        return [self.encrypt_chunk(c, k) for c, k in zip(chunks, mle_keys)]

    def decrypt_chunks(self, trimmed: list[bytes], stubs: list[bytes]) -> list[bytes]:
        """:meth:`decrypt_chunk` over a window, in order; the earliest
        chunk the per-chunk path refuses raises its error."""
        _check_counts(trimmed, stubs, "trimmed packages", "stubs")
        return [self.decrypt_chunk(t, s) for t, s in zip(trimmed, stubs)]


def _check_counts(first: list, second: list, first_name: str, second_name: str) -> None:
    if len(first) != len(second):
        raise ConfigurationError(
            f"{len(first)} {first_name} but {len(second)} {second_name}"
        )


#: Zero runs closing a window slot: a tail, then padding to a whole row.
_ZERO_RUNS = [bytes(DIGEST_SIZE + pad) for pad in range(DIGEST_SIZE)]


def _lay_out(heads: list[tuple], head_sizes: list[int]) -> tuple[bytearray, list[int]]:
    """One window buffer and where each slot starts in it.

    A slot is a package head's pieces, then zeros for its tail and up to
    a whole number of :data:`DIGEST_SIZE`-byte rows, so that the XOR of a
    slot's rows is the self-XOR fold of its head.
    """
    parts, starts, total = [], [], 0
    for pieces, size in zip(heads, head_sizes):
        zeros = _ZERO_RUNS[-(size + DIGEST_SIZE) % DIGEST_SIZE]
        parts += pieces
        parts.append(zeros)
        starts.append(total)
        total += size + len(zeros)
    return bytearray().join(parts), starts


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

    # -- the window kernel ------------------------------------------------------
    #
    # Both directions lay a window out in one buffer (:func:`_lay_out`),
    # run each chunk's two CTR passes in place on slices of it and fold
    # every head in one vectorized pass while the tails are still zero.

    def encrypt_chunks(
        self, chunks: list[bytes], mle_keys: list[bytes]
    ) -> list[SplitPackage]:
        _check_counts(chunks, mle_keys, "chunks", "MLE keys")
        for chunk, mle_key in zip(chunks, mle_keys):
            self._check_input(chunk, mle_key)
        if not chunks:
            return []
        window, starts = _lay_out(
            list(zip(chunks, mle_keys)),
            [len(chunk) + MLE_KEY_SIZE for chunk in chunks],
        )
        view = memoryview(window)
        encrypt_into, zero_iv = streamcipher.encrypt_into, streamcipher.ZERO_IV
        hash_keys = []
        for chunk, mle_key, start in zip(chunks, mle_keys, starts):
            key_at = start + len(chunk)
            c1 = view[start:key_at]
            encrypt_into(mle_key, zero_iv, c1, c1)
            payload = view[start : key_at + MLE_KEY_SIZE]
            hash_key = sha256(payload)
            encrypt_into(hash_key, zero_iv, payload, payload)
            hash_keys.append(hash_key)
        tails = (
            xor_fold_slots(window, starts, DIGEST_SIZE)
            ^ np.frombuffer(b"".join(hash_keys), np.uint8).reshape(-1, DIGEST_SIZE)
        ).tobytes()
        packages = []
        stub_size = self.stub_size
        for index, (chunk, start) in enumerate(zip(chunks, starts)):
            tail_at = start + len(chunk) + MLE_KEY_SIZE
            end = tail_at + DIGEST_SIZE
            view[tail_at:end] = tails[index * DIGEST_SIZE : (index + 1) * DIGEST_SIZE]
            trimmed = bytes(view[start : end - stub_size])
            packages.append(
                SplitPackage(
                    trimmed_package=trimmed,
                    stub=bytes(view[end - stub_size : end]),
                    fingerprint=fingerprint(trimmed),
                )
            )
        return packages

    def decrypt_chunks(self, trimmed: list[bytes], stubs: list[bytes]) -> list[bytes]:
        _check_counts(trimmed, stubs, "trimmed packages", "stubs")
        stub_size = self.stub_size
        for index, (package, stub) in enumerate(zip(trimmed, stubs)):
            if len(stub) != stub_size or len(package) + stub_size <= 2 * DIGEST_SIZE:
                # The kernel takes the well-formed run before this chunk;
                # the per-chunk path raises this chunk's own error.
                return (
                    self._decrypt_window(trimmed[:index], stubs[:index])
                    + [self.decrypt_chunk(package, stub)]
                    + self.decrypt_chunks(trimmed[index + 1 :], stubs[index + 1 :])
                )
        return self._decrypt_window(trimmed, stubs)

    def _decrypt_window(self, trimmed: list[bytes], stubs: list[bytes]) -> list[bytes]:
        """Invert a window of well-formed split packages, in order."""
        if not trimmed:
            return []
        head_in_stub = self.stub_size - DIGEST_SIZE
        window, starts = _lay_out(
            [(package, memoryview(stub)[:head_in_stub]) for package, stub in zip(trimmed, stubs)],
            [len(package) + head_in_stub for package in trimmed],
        )
        tails = np.frombuffer(b"".join(stubs), np.uint8).reshape(len(stubs), -1)
        hash_keys = (
            xor_fold_slots(window, starts, DIGEST_SIZE) ^ tails[:, head_in_stub:]
        ).tobytes()
        view = memoryview(window)
        encrypt_into, zero_iv = streamcipher.encrypt_into, streamcipher.ZERO_IV
        chunks = []
        for index, (package, start) in enumerate(zip(trimmed, starts)):
            hash_key = hash_keys[index * DIGEST_SIZE : (index + 1) * DIGEST_SIZE]
            key_at = start + len(package) + head_in_stub - MLE_KEY_SIZE
            payload = view[start : key_at + MLE_KEY_SIZE]
            encrypt_into(hash_key, zero_iv, payload, payload)
            if not ct_equal(sha256(payload), hash_key):
                raise IntegrityError("enhanced scheme hash-key mismatch: chunk tampered")
            c1 = view[start:key_at]
            encrypt_into(bytes(view[key_at : key_at + MLE_KEY_SIZE]), zero_iv, c1, c1)
            chunks.append(bytes(c1))
        return chunks


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
