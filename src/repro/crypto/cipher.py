"""The symmetric encryption function ``E(.)``: SHAKE-256.

Every REED construction (the basic/enhanced schemes, CAONT, stub files,
CP-ABE items, group envelopes) encrypts with :data:`SHAKE256`, the one
instance of :class:`Shake256Cipher`.  It exposes the three usage
patterns REED needs:

* ``mask(key, length)`` — the AONT pseudo-random mask
  ``G(K) = E(K, S)`` where ``S`` is a publicly known block (all zeros
  here) of the required length (Section IV-B).
* ``deterministic_encrypt`` — MLE-style encryption where identical
  (key, message) pairs must give identical ciphertexts.
* ``encrypt``/``decrypt`` with an explicit nonce — randomized encryption
  for stub files under the (renewable) file key.

The keystream itself lives in :mod:`repro.crypto.streamcipher`; this
class adds the size checks every caller relies on.
"""

from __future__ import annotations

from repro.crypto import streamcipher
from repro.util.errors import ConfigurationError


class Shake256Cipher:
    """SHAKE-256 keystream cipher (DESIGN.md §3)."""

    #: Required key length in bytes.
    key_size = 32
    #: Required nonce length in bytes for randomized encryption.
    nonce_size = 16

    def check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise ConfigurationError(
                f"SHAKE-256 requires a {self.key_size}-byte key, got {len(key)}"
            )

    def check_nonce(self, nonce: bytes) -> None:
        # An empty nonce would yield the deterministic stream (the CAONT mask).
        if len(nonce) != self.nonce_size:
            raise ConfigurationError(
                f"SHAKE-256 requires a {self.nonce_size}-byte nonce, got {len(nonce)}"
            )

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        """Randomized encryption under (key, nonce)."""
        self.check_key(key)
        self.check_nonce(nonce)
        return streamcipher.encrypt(key, nonce, plaintext)

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`encrypt`."""
        self.check_key(key)
        self.check_nonce(nonce)
        return streamcipher.decrypt(key, nonce, ciphertext)

    def deterministic_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        """Deterministic (empty-nonce) encryption for MLE."""
        self.check_key(key)
        return streamcipher.deterministic_encrypt(key, plaintext)

    def deterministic_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`deterministic_encrypt`."""
        self.check_key(key)
        return streamcipher.deterministic_decrypt(key, ciphertext)

    def mask(self, key: bytes, length: int) -> bytes:
        """The AONT mask ``G(K) = E(K, S)`` over a public zero block ``S``."""
        self.check_key(key)
        return streamcipher.keystream(key, length)


#: The one cipher every construction uses.
SHAKE256 = Shake256Cipher()
