"""Convergent encryption (CE) — the classic MLE instantiation.

CE (Douceur et al., ICDCS'02) derives the encryption key directly from
the message: ``K = H(M)``.  Identical messages yield identical keys and —
with deterministic encryption — identical ciphertexts, so deduplication
works on ciphertexts.

CE is the *baseline* REED compares against conceptually: it is secure
only for unpredictable messages (an adversary who can enumerate the
message space can enumerate keys too; Section II-A), and it has no story
for rekeying — which is the gap REED fills.  It is included both as a
substrate (MLE interface) and as the baseline in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cipher import AES256CTR
from repro.crypto.hashing import sha256
from repro.util.bytesutil import ct_equal
from repro.util.errors import IntegrityError


def convergent_key(message: bytes) -> bytes:
    """The CE key: the message's own cryptographic hash."""
    return sha256(message)


@dataclass(frozen=True)
class ConvergentCiphertext:
    """Deterministic CE ciphertext plus the tag used for dedup/integrity."""

    ciphertext: bytes
    tag: bytes


class ConvergentEncryption:
    """Stateless CE encryptor/decryptor.

    The *tag* is ``H(ciphertext)`` — in MLE terms this provides tag
    consistency: the server dedups by tag and a client can detect a
    mismatched ciphertext.
    """

    def encrypt(self, message: bytes) -> tuple[ConvergentCiphertext, bytes]:
        """Encrypt, returning the ciphertext record and the CE key."""
        key = convergent_key(message)
        ciphertext = AES256CTR.deterministic_encrypt(key, message)
        return ConvergentCiphertext(ciphertext=ciphertext, tag=sha256(ciphertext)), key

    def decrypt(self, record: ConvergentCiphertext, key: bytes) -> bytes:
        """Decrypt and verify both the tag and the key-message binding."""
        if not ct_equal(sha256(record.ciphertext), record.tag):
            raise IntegrityError("convergent ciphertext does not match its tag")
        message = AES256CTR.deterministic_decrypt(key, record.ciphertext)
        if not ct_equal(convergent_key(message), key):
            raise IntegrityError("decrypted message does not match the CE key")
        return message
