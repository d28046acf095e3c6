"""Layered-encryption baseline (paper Section II-C).

The straw-man rekeying approach REED argues against: each chunk is
MLE-encrypted as usual, and the MLE key is *wrapped* under a per-user
master key.  Rekeying replaces the master key and re-wraps the (tiny)
key records, so it is cheap and preserves deduplication — but it has the
weakness the paper identifies: **the chunk ciphertext itself is never
re-keyed**.  If a chunk's MLE key leaks, that chunk is recoverable
forever, no matter how many times the master key rotates.

This module exists as an executable baseline: it shares the dedup
substrate with REED so the storage numbers are directly comparable, and
its documented weakness is demonstrated in
`tests/baselines/test_layered.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cipher import AES256CTR
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import hmac_sha256, kdf, sha256
from repro.util.bytesutil import ct_equal
from repro.util.codec import Decoder, Encoder
from repro.util.errors import IntegrityError

_NONCE = 16
_MAC = 32


@dataclass(frozen=True)
class WrappedKey:
    """An MLE key encrypted under a master key (one per stored chunk)."""

    nonce: bytes
    body: bytes
    mac: bytes

    def encode(self) -> bytes:
        return Encoder().blob(self.nonce).blob(self.body).blob(self.mac).done()

    @classmethod
    def decode(cls, data: bytes) -> "WrappedKey":
        dec = Decoder(data)
        out = cls(nonce=dec.blob(), body=dec.blob(), mac=dec.blob())
        dec.expect_end()
        return out

    @property
    def size(self) -> int:
        return len(self.nonce) + len(self.body) + len(self.mac)


class LayeredEncryption:
    """MLE ciphertexts + master-key-wrapped MLE keys.

    ``encrypt_chunk`` produces a deterministic, dedup-friendly ciphertext
    and a wrapped key record; ``rekey_wrapped`` rewraps a record under a
    new master key *without touching the ciphertext* — the whole point,
    and the whole weakness, of this approach.
    """

    def encrypt_chunk(
        self,
        chunk: bytes,
        mle_key: bytes,
        master_key: bytes,
        rng: RandomSource | None = None,
    ) -> tuple[bytes, bytes, WrappedKey]:
        """Returns (ciphertext, fingerprint, wrapped key)."""
        ciphertext = AES256CTR.deterministic_encrypt(mle_key, chunk)
        return ciphertext, sha256(ciphertext), self.wrap_key(mle_key, master_key, rng)

    def decrypt_chunk(
        self, ciphertext: bytes, wrapped: WrappedKey, master_key: bytes
    ) -> bytes:
        mle_key = self.unwrap_key(wrapped, master_key)
        return AES256CTR.deterministic_decrypt(mle_key, ciphertext)

    def wrap_key(
        self,
        mle_key: bytes,
        master_key: bytes,
        rng: RandomSource | None = None,
    ) -> WrappedKey:
        rng = rng or SYSTEM_RANDOM
        nonce = rng.random_bytes(_NONCE)
        body = AES256CTR.encrypt(kdf(master_key, "wrap-enc"), nonce, mle_key)
        mac = hmac_sha256(kdf(master_key, "wrap-mac"), nonce + body)
        return WrappedKey(nonce=nonce, body=body, mac=mac)

    def unwrap_key(self, wrapped: WrappedKey, master_key: bytes) -> bytes:
        expected = hmac_sha256(
            kdf(master_key, "wrap-mac"), wrapped.nonce + wrapped.body
        )
        if not ct_equal(expected, wrapped.mac):
            raise IntegrityError("wrapped key failed authentication (wrong master?)")
        return AES256CTR.decrypt(kdf(master_key, "wrap-enc"), wrapped.nonce, wrapped.body)

    def rekey_wrapped(
        self,
        wrapped: WrappedKey,
        old_master: bytes,
        new_master: bytes,
        rng: RandomSource | None = None,
    ) -> WrappedKey:
        """The layered-encryption rekey: rewrap; ciphertexts untouched."""
        return self.wrap_key(self.unwrap_key(wrapped, old_master), new_master, rng)


def rekey_bytes_moved(chunk_count: int, wrapped_key_size: int) -> int:
    """Bytes a layered-encryption rekey must rewrite for a file."""
    return chunk_count * wrapped_key_size
