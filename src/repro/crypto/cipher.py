"""The symmetric encryption function ``E(.)``: AES-256 in CTR mode.

Every REED construction (the basic/enhanced schemes, CAONT, stub files,
CP-ABE items, group envelopes) encrypts with :data:`AES256CTR`, the one
instance of :class:`Aes256CtrCipher`.  It exposes the two usage
patterns REED needs:

* ``deterministic_encrypt`` — an all-zero IV, for MLE-style encryption
  where identical (key, message) pairs must give identical ciphertexts,
  and for the AONT mask: ``M XOR G(K)`` with ``G(K) = E(K, S)`` over a
  public all-zero block ``S`` (Section IV-B) is exactly the CTR
  encryption of ``M`` under ``K``, so the mask is never materialised;
* ``encrypt``/``decrypt`` with an explicit 16-byte nonce — randomized
  encryption for stub files under the (renewable) file key.

The cipher and its key and IV checks live in
:mod:`repro.crypto.streamcipher`.
"""

from __future__ import annotations

from repro.crypto import streamcipher


class Aes256CtrCipher:
    """AES-256-CTR on OpenSSL (DESIGN.md §3)."""

    #: Required key length in bytes.
    key_size = streamcipher.KEY_SIZE
    #: Required nonce length in bytes for randomized encryption.
    nonce_size = streamcipher.IV_SIZE

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        """Randomized encryption under (key, nonce)."""
        return streamcipher.encrypt(key, nonce, plaintext)

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`encrypt`."""
        return streamcipher.decrypt(key, nonce, ciphertext)

    def deterministic_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        """Deterministic (all-zero IV) encryption: MLE and the AONT mask."""
        return streamcipher.encrypt(key, streamcipher.ZERO_IV, plaintext)

    def deterministic_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`deterministic_encrypt`."""
        return streamcipher.decrypt(key, streamcipher.ZERO_IV, ciphertext)


#: The one cipher every construction uses.
AES256CTR = Aes256CtrCipher()
