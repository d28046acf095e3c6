"""Full re-encryption baseline (paper Sections I and II-C).

The other straw man: achieve rekeying by renewing the key-derivation
function and re-encrypting every affected chunk under fresh keys.  This
gives genuine protection — old keys become useless — but

* every chunk must be downloaded, re-encrypted, and re-uploaded, and
* the re-encrypted chunks no longer deduplicate against copies still
  encrypted under the old derivation function.

Both costs are modeled here (and asserted at small scale in
`tests/baselines/test_reencrypt.py`) so the comparison against REED's
stub-only rekeying is quantitative: the paper quotes >= 64 s just to
move an 8 GB file over a 1 Gb/s link, vs REED's 3.4 s active rekey.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cipher import AES256CTR
from repro.crypto.hashing import hmac_sha256, sha256
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class ReencryptionCost:
    """Accounting for one full re-encryption rekey."""

    chunks: int
    bytes_downloaded: int
    bytes_reencrypted: int
    bytes_uploaded: int

    @property
    def bytes_moved(self) -> int:
        return self.bytes_downloaded + self.bytes_uploaded


class EpochedConvergentEncryption:
    """Convergent encryption with an epoch-keyed derivation function.

    The MLE key of a chunk is ``HMAC(epoch_secret, H(chunk))``: renewing
    the epoch secret renews every chunk key, which is exactly the
    "update the key derivation function directly" approach of Section
    II-C.  ``reencrypt_all`` performs the full rekey and returns its
    cost; tests verify the dedup break across epochs.
    """

    def chunk_key(self, epoch_secret: bytes, chunk: bytes) -> bytes:
        return hmac_sha256(epoch_secret, sha256(chunk))

    def encrypt_chunk(self, epoch_secret: bytes, chunk: bytes) -> tuple[bytes, bytes]:
        """Returns (ciphertext, fingerprint-of-ciphertext)."""
        ciphertext = AES256CTR.deterministic_encrypt(
            self.chunk_key(epoch_secret, chunk), chunk
        )
        return ciphertext, sha256(ciphertext)

    def decrypt_chunk(
        self, epoch_secret: bytes, plain_hash: bytes, ciphertext: bytes
    ) -> bytes:
        """Decrypt using the stored key record (the chunk's plaintext
        hash), re-deriving the epoch-bound chunk key."""
        key = hmac_sha256(epoch_secret, plain_hash)
        chunk = AES256CTR.deterministic_decrypt(key, ciphertext)
        if sha256(chunk) != plain_hash:
            raise ConfigurationError(
                "decrypted chunk does not match its key record"
            )
        return chunk

    def reencrypt_all(
        self,
        old_secret: bytes,
        new_secret: bytes,
        ciphertexts_and_plain_hashes: list[tuple[bytes, bytes]],
    ) -> tuple[list[tuple[bytes, bytes]], ReencryptionCost]:
        """Re-encrypt every chunk from the old epoch to the new one.

        ``ciphertexts_and_plain_hashes`` carries each old ciphertext and
        the chunk's plaintext hash (the stored key record).  Returns the
        new (ciphertext, fingerprint) list plus the movement accounting.
        """
        if old_secret == new_secret:
            raise ConfigurationError("rekey requires a fresh epoch secret")
        out = []
        downloaded = reencrypted = uploaded = 0
        for ciphertext, plain_hash in ciphertexts_and_plain_hashes:
            downloaded += len(ciphertext)
            old_key = hmac_sha256(old_secret, plain_hash)
            chunk = AES256CTR.deterministic_decrypt(old_key, ciphertext)
            if sha256(chunk) != plain_hash:
                raise ConfigurationError("key record does not match ciphertext")
            new_ciphertext, fingerprint = self.encrypt_chunk(new_secret, chunk)
            reencrypted += len(chunk)
            uploaded += len(new_ciphertext)
            out.append((new_ciphertext, fingerprint))
        cost = ReencryptionCost(
            chunks=len(out),
            bytes_downloaded=downloaded,
            bytes_reencrypted=reencrypted,
            bytes_uploaded=uploaded,
        )
        return out, cost
