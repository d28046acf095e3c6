"""Symmetric-cipher abstraction and registry.

Every REED construction (AONT, CAONT, the basic/enhanced schemes, stub
encryption) is written against the :class:`SymmetricCipher` interface so
that the exact paper construction (AES-256) and the fast SHAKE-256
substitute are interchangeable.  The registry maps cipher names to
singleton instances; ``get_cipher()`` returns the process-wide default.

The interface deliberately exposes the two usage patterns REED needs:

* ``mask(key, length)`` — the AONT pseudo-random mask
  ``G(K) = E(K, S)`` where ``S`` is a publicly known block (all zeros
  here) of the required length (Section IV-B).
* ``deterministic_encrypt`` — MLE-style encryption where identical
  (key, message) pairs must give identical ciphertexts.
* ``encrypt``/``decrypt`` with an explicit nonce — randomized encryption
  for stub files under the (renewable) file key.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.crypto import modes, streamcipher
from repro.util.errors import ConfigurationError


class SymmetricCipher(ABC):
    """Interface for the symmetric encryption function ``E(.)``."""

    #: Registry name, e.g. ``"aes256"``.
    name: str
    #: Required key length in bytes.
    key_size: int
    #: Required nonce length in bytes for randomized encryption.
    nonce_size: int

    def check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise ConfigurationError(
                f"{self.name} requires a {self.key_size}-byte key, got {len(key)}"
            )

    @abstractmethod
    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        """Randomized encryption under (key, nonce)."""

    @abstractmethod
    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`encrypt`."""

    @abstractmethod
    def deterministic_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        """Deterministic encryption (fixed nonce) for MLE."""

    @abstractmethod
    def deterministic_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`deterministic_encrypt`."""

    def mask(self, key: bytes, length: int) -> bytes:
        """The AONT mask ``G(K) = E(K, S)`` over a public zero block ``S``."""
        return self.deterministic_encrypt(key, b"\x00" * length)


class AES256Cipher(SymmetricCipher):
    """AES-256 in CTR mode — the paper's exact construction."""

    name = "aes256"
    key_size = 32
    nonce_size = 8

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        self.check_key(key)
        return modes.ctr_encrypt(key, nonce, plaintext)

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        self.check_key(key)
        return modes.ctr_decrypt(key, nonce, ciphertext)

    def deterministic_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        self.check_key(key)
        return modes.deterministic_encrypt(key, plaintext)

    def deterministic_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        self.check_key(key)
        return modes.deterministic_decrypt(key, ciphertext)

    def mask(self, key: bytes, length: int) -> bytes:
        # Generating the keystream directly avoids XORing against a zero
        # block (E(K, 0...0) == keystream in CTR mode).
        self.check_key(key)
        return modes.ctr_keystream(key, modes.ZERO_NONCE, length)


class Shake256Cipher(SymmetricCipher):
    """SHAKE-256 keystream cipher — the fast default (DESIGN.md §3)."""

    name = "shake256"
    key_size = 32
    nonce_size = 16

    def check_nonce(self, nonce: bytes) -> None:
        # An empty nonce would yield the deterministic stream (the CAONT mask).
        if len(nonce) != self.nonce_size:
            raise ConfigurationError(
                f"{self.name} requires a {self.nonce_size}-byte nonce, got {len(nonce)}"
            )

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        self.check_key(key)
        self.check_nonce(nonce)
        return streamcipher.encrypt(key, nonce, plaintext)

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        self.check_key(key)
        self.check_nonce(nonce)
        return streamcipher.decrypt(key, nonce, ciphertext)

    def deterministic_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        self.check_key(key)
        return streamcipher.deterministic_encrypt(key, plaintext)

    def deterministic_decrypt(self, key: bytes, ciphertext: bytes) -> bytes:
        self.check_key(key)
        return streamcipher.deterministic_decrypt(key, ciphertext)

    def mask(self, key: bytes, length: int) -> bytes:
        self.check_key(key)
        return streamcipher.keystream(key, length)


_REGISTRY: dict[str, SymmetricCipher] = {
    AES256Cipher.name: AES256Cipher(),
    Shake256Cipher.name: Shake256Cipher(),
}

#: Name of the cipher returned by :func:`get_cipher` with no argument.
DEFAULT_CIPHER = Shake256Cipher.name


def get_cipher(name: str | None = None) -> SymmetricCipher:
    """Look up a cipher by registry name (default: :data:`DEFAULT_CIPHER`)."""
    cipher = _REGISTRY.get(name or DEFAULT_CIPHER)
    if cipher is None:
        raise ConfigurationError(
            f"unknown cipher {name!r}; available: {sorted(_REGISTRY)}"
        )
    return cipher


def available_ciphers() -> list[str]:
    return sorted(_REGISTRY)
