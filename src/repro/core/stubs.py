"""Stub files: the only data rekeying has to re-encrypt.

The client collects the stubs of all chunks of a file, in order, into a
single *stub file* and encrypts it with the file key (Section V-A).
Because each stub is 64 bytes, re-encrypting a whole 8 GB file's stub
file moves only ~8 MB — this is why active revocation in Experiment A.4
costs seconds, not the minutes a full re-upload would.

The encrypted stub file is authenticated: nonce + ciphertext + HMAC,
with the encryption and MAC keys derived from the file key under
distinct labels.  Stub files are deliberately *not* deduplicated — they
are ciphertext under per-file renewable keys.
"""

from __future__ import annotations

from repro.core.schemes import STUB_SIZE
from repro.crypto.cipher import AES256CTR, Aes256CtrCipher
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import hmac_sha256, kdf
from repro.util.bytesutil import ct_equal, split_pieces
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError, IntegrityError

_NONCE_SIZE = 16
_MAC_SIZE = 32

#: Public alias: callers that pre-draw stub-file nonces (the rekeying
#: pipeline) need to know how many bytes to draw.
STUB_NONCE_SIZE = _NONCE_SIZE


def pack_stubs(stubs: list[bytes], stub_size: int = STUB_SIZE) -> bytes:
    """Concatenate per-chunk stubs into the plaintext stub-file body."""
    for i, stub in enumerate(stubs):
        if len(stub) != stub_size:
            raise ConfigurationError(
                f"stub {i} has {len(stub)} bytes, expected {stub_size}"
            )
    return Encoder().uint(stub_size).uint(len(stubs)).raw(b"".join(stubs)).done()


def unpack_stubs(body: bytes) -> list[bytes]:
    """Split a plaintext stub-file body back into per-chunk stubs."""
    dec = Decoder(body)
    stub_size = dec.uint()
    count = dec.uint()
    if stub_size <= 0:
        raise IntegrityError("stub file declares a non-positive stub size")
    payload = dec.raw(stub_size * count)
    dec.expect_end()
    return split_pieces(payload, stub_size)


def encrypt_stub_file(
    file_key: bytes,
    stubs: list[bytes],
    stub_size: int = STUB_SIZE,
    cipher: Aes256CtrCipher = AES256CTR,
    rng: RandomSource | None = None,
    nonce: bytes | None = None,
) -> bytes:
    """Encrypt and authenticate a file's stubs under the file key.

    ``nonce`` may be supplied by the caller (the rekeying pipeline draws
    every file's nonce while it plans the window, in file order, which
    keeps pipelined output bit-identical to the serial path); by default
    one is drawn from ``rng``.
    """
    if nonce is None:
        rng = rng or SYSTEM_RANDOM
        nonce = rng.random_bytes(_NONCE_SIZE)
    elif len(nonce) != _NONCE_SIZE:
        raise ConfigurationError(
            f"stub-file nonce must be {_NONCE_SIZE} bytes, got {len(nonce)}"
        )
    body = cipher.encrypt(kdf(file_key, "stub-enc"), nonce, pack_stubs(stubs, stub_size))
    mac = hmac_sha256(kdf(file_key, "stub-mac"), nonce + body)
    return nonce + body + mac


def decrypt_stub_file(
    file_key: bytes,
    data: bytes,
    cipher: Aes256CtrCipher = AES256CTR,
) -> list[bytes]:
    """Decrypt a stub file; raises :class:`IntegrityError` on tampering or
    a wrong (e.g. revoked) file key."""
    if len(data) < _NONCE_SIZE + _MAC_SIZE:
        raise IntegrityError("stub file too short")
    nonce = data[:_NONCE_SIZE]
    body = data[_NONCE_SIZE:-_MAC_SIZE]
    mac = data[-_MAC_SIZE:]
    if not ct_equal(hmac_sha256(kdf(file_key, "stub-mac"), nonce + body), mac):
        raise IntegrityError("stub file failed authentication")
    plaintext = cipher.decrypt(kdf(file_key, "stub-enc"), nonce, body)
    return unpack_stubs(plaintext)


def reencrypt_stub_file(
    old_file_key: bytes,
    new_file_key: bytes,
    data: bytes,
    cipher: Aes256CtrCipher = AES256CTR,
    rng: RandomSource | None = None,
    *,
    nonce: bytes | None = None,
) -> bytes:
    """Re-encrypt a stub file under a new file key (active revocation).

    ``nonce`` is the caller's pre-drawn nonce, as for
    :func:`encrypt_stub_file`; by default one is drawn from ``rng``.
    """
    stubs = decrypt_stub_file(old_file_key, data, cipher)
    stub_size = len(stubs[0]) if stubs else STUB_SIZE
    return encrypt_stub_file(new_file_key, stubs, stub_size, cipher, rng, nonce)
