"""HashCTR: a SHA-256 counter-mode stream cipher.

The paper's prototype generates AONT masks with OpenSSL AES-256 at
hundreds of MB/s.  Pure-Python AES runs at ~100 KB/s, which would make
every experiment keystream-bound for the wrong reason.  HashCTR keeps the
same abstraction — a deterministic keystream expanded from a 32-byte key —
but is built from :mod:`hashlib`'s C-accelerated SHA-256, reaching tens of
MB/s in pure Python.

Construction: keystream block ``i`` is ``SHA-256(key || nonce || i)`` with
a 64-bit big-endian counter ``i``; this is the standard hash-counter PRG
(indistinguishable from random if SHA-256 is a random oracle).  Encryption
is XOR with the keystream, so encryption and decryption coincide, exactly
like CTR mode.

:func:`keystream` hashes ``key || nonce`` once and, per block, copies that
state, feeds it the counter and takes the digest.  The state is CPython's
built-in SHA-256 type (``_sha2``/``_sha256``, where it exists): its
``copy()`` is a struct copy, while an OpenSSL ``hashlib`` object allocates
a context per copy.  The first 4,096 counters (128 KiB of keystream) come
from an immutable table that is never grown, so concurrent callers cannot
race on it.

This substitution is recorded in DESIGN.md §3; all REED constructions are
parametric in the cipher, and the test suite exercises both AES and
HashCTR.
"""

from __future__ import annotations

import hashlib
from itertools import chain

from repro.util.bytesutil import xor_bytes
from repro.util.errors import ConfigurationError

try:  # CPython 3.12+
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # CPython 3.10/3.11
        from _sha256 import sha256 as _sha256
    except ImportError:
        _sha256 = hashlib.sha256

KEY_SIZE = 32
_BLOCK = 32  # SHA-256 output size
_TABLE_BLOCKS = 4096
_COUNTERS = tuple(i.to_bytes(8, "big") for i in range(_TABLE_BLOCKS))


def keystream(key: bytes, length: int, nonce: bytes = b"") -> bytes:
    """Expand ``key`` (and optional nonce) into ``length`` keystream bytes."""
    if len(key) != KEY_SIZE:
        raise ConfigurationError(f"HashCTR key must be {KEY_SIZE} bytes")
    if length < 0:
        raise ConfigurationError("keystream length must be non-negative")
    blocks = (length + _BLOCK - 1) // _BLOCK
    copy = _sha256(key + nonce).copy
    out = []
    counters = chain(
        _COUNTERS[:blocks], (i.to_bytes(8, "big") for i in range(_TABLE_BLOCKS, blocks))
    )
    for counter in counters:
        state = copy()
        state.update(counter)
        out.append(state.digest())
    return b"".join(out)[:length]


def encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """XOR the plaintext with the (key, nonce) keystream."""
    return xor_bytes(plaintext, keystream(key, len(plaintext), nonce))


def decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return encrypt(key, nonce, ciphertext)


def deterministic_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Deterministic (zero-nonce) encryption for MLE use."""
    return encrypt(key, b"", plaintext)


def deterministic_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    return encrypt(key, b"", ciphertext)
