"""SHAKE-256 keystream: an extendable-output function used as a stream cipher.

The paper's prototype generates AONT masks with OpenSSL AES-256 at
hundreds of MB/s.  Pure-Python AES runs at ~100 KB/s, which would make
every experiment keystream-bound for the wrong reason.  This module keeps
the same abstraction — a deterministic keystream expanded from a 32-byte
key — but draws it from :mod:`hashlib`'s SHAKE-256 (FIPS 202), which
produces the whole stream in one C call.

Construction: the keystream is ``SHAKE-256(key || nonce)`` cut to the
requested length, i.e. a keyed sponge used as a PRG.  The key is always
32 bytes and the nonce is empty (deterministic MLE stream, CAONT mask) or
16 bytes (randomized encryption), so the input encoding is injective.
SHAKE-256's 512-bit capacity keeps the 256-bit key level.  Encryption is
XOR with the keystream, so encryption and decryption coincide, exactly
like CTR mode.

This substitution is recorded in DESIGN.md §3 and SECURITY.md
(deviation 1).  Callers use the checked cipher in
:mod:`repro.crypto.cipher`, never these functions directly.
"""

from __future__ import annotations

import hashlib

from repro.util.bytesutil import xor_bytes
from repro.util.errors import ConfigurationError

KEY_SIZE = 32


def keystream(key: bytes, length: int, nonce: bytes = b"") -> bytes:
    """Expand ``key`` (and optional nonce) into ``length`` keystream bytes."""
    if len(key) != KEY_SIZE:
        raise ConfigurationError(f"SHAKE-256 stream key must be {KEY_SIZE} bytes")
    if length < 0:
        raise ConfigurationError("keystream length must be non-negative")
    return hashlib.shake_256(key + nonce).digest(length)


def encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """XOR the plaintext with the (key, nonce) keystream."""
    return xor_bytes(plaintext, keystream(key, len(plaintext), nonce))


def decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return encrypt(key, nonce, ciphertext)


def deterministic_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Deterministic (empty-nonce) encryption for MLE use."""
    return encrypt(key, b"", plaintext)


def deterministic_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    return encrypt(key, b"", ciphertext)
