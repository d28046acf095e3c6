"""Block-cipher modes of operation.

Only CTR is needed: REED's constructions use the cipher either as a
keystream generator (the AONT mask ``G(K) = E(K, S)``) or as a
deterministic encryption for MLE (same key + same message must give the
same ciphertext, so the nonce is fixed to zero — safe here because MLE
keys are message-derived and never reused across distinct messages).

One keystream engine plus one oracle, bit-identical (enforced by
differential tests; see docs/PERFORMANCE.md):

* :func:`ctr_keystream` — the engine: the T-table round function of
  :mod:`repro.crypto.aes` on the per-key cached word schedule,
  vectorized with numpy across every counter block of the run (each
  round is ~16 fancy-indexing gathers over the whole batch).
* :func:`ctr_keystream_reference` — the specification-shaped loop: one
  :meth:`~repro.crypto.aes.AES.encrypt_block` per counter block.  The
  correctness oracle, used only by tests.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from repro.crypto.aes import AES, BLOCK_SIZE, SBOX, T0, T1, T2, T3, encryption_schedule
from repro.util.bytesutil import xor_bytes
from repro.util.errors import ConfigurationError

#: Nonce used for deterministic (MLE) encryption.
ZERO_NONCE = b"\x00" * 8

#: Counter blocks generated per numpy slab (bounds peak memory:
#: 32 K blocks -> 512 KB of keystream plus working arrays).
_NUMPY_SLAB_BLOCKS = 1 << 15


def _check_args(nonce: bytes, length: int) -> None:
    if len(nonce) != 8:
        raise ConfigurationError("CTR nonce must be 8 bytes")
    if length < 0:
        raise ConfigurationError("keystream length must be non-negative")


def ctr_keystream_reference(key: bytes, nonce: bytes, length: int) -> bytes:
    """Reference keystream: ``E(K, nonce || counter)`` block at a time.

    The 16-byte counter block is an 8-byte nonce followed by a 64-bit
    big-endian block counter.
    """
    _check_args(nonce, length)
    aes = AES(key)
    blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    out = bytearray()
    for counter in range(blocks):
        out.extend(aes.encrypt_block(nonce + counter.to_bytes(8, "big")))
    return bytes(out[:length])


@cache
def _np_tables():
    """numpy mirrors of the T-tables, built on first use."""
    return (
        np.array(T0, dtype=np.uint32),
        np.array(T1, dtype=np.uint32),
        np.array(T2, dtype=np.uint32),
        np.array(T3, dtype=np.uint32),
        np.frombuffer(SBOX, dtype=np.uint8).astype(np.uint32),
    )


def _ctr_slab_numpy(words, rounds, nonce_hi: int, start: int, blocks: int):
    t0, t1, t2, t3, sb = _np_tables()
    ctr = np.arange(start, start + blocks, dtype=np.uint64)
    s0 = np.full(blocks, (nonce_hi >> 32) ^ words[0], dtype=np.uint32)
    s1 = np.full(blocks, (nonce_hi & 0xFFFFFFFF) ^ words[1], dtype=np.uint32)
    s2 = (ctr >> np.uint64(32)).astype(np.uint32) ^ np.uint32(words[2])
    s3 = (ctr & np.uint64(0xFFFFFFFF)).astype(np.uint32) ^ np.uint32(words[3])
    for r in range(1, rounds):
        k = 4 * r
        u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ np.uint32(words[k])
        u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ np.uint32(words[k + 1])
        u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ np.uint32(words[k + 2])
        u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ np.uint32(words[k + 3])
        s0, s1, s2, s3 = u0, u1, u2, u3
    k = 4 * rounds
    r0 = ((sb[s0 >> 24] << 24) | (sb[(s1 >> 16) & 255] << 16) | (sb[(s2 >> 8) & 255] << 8) | sb[s3 & 255]) ^ np.uint32(words[k])
    r1 = ((sb[s1 >> 24] << 24) | (sb[(s2 >> 16) & 255] << 16) | (sb[(s3 >> 8) & 255] << 8) | sb[s0 & 255]) ^ np.uint32(words[k + 1])
    r2 = ((sb[s2 >> 24] << 24) | (sb[(s3 >> 16) & 255] << 16) | (sb[(s0 >> 8) & 255] << 8) | sb[s1 & 255]) ^ np.uint32(words[k + 2])
    r3 = ((sb[s3 >> 24] << 24) | (sb[(s0 >> 16) & 255] << 16) | (sb[(s1 >> 8) & 255] << 8) | sb[s2 & 255]) ^ np.uint32(words[k + 3])
    out = np.empty((blocks, 4), dtype=">u4")
    out[:, 0] = r0
    out[:, 1] = r1
    out[:, 2] = r2
    out[:, 3] = r3
    return out


def ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes: ``E(K, nonce || counter)``.

    Every counter block is vectorized across the batch, slab by slab;
    the output is identical to :func:`ctr_keystream_reference`.
    """
    _check_args(nonce, length)
    words, rounds = encryption_schedule(bytes(key))
    blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    hi = int.from_bytes(nonce, "big")
    pieces = []
    for start in range(0, blocks, _NUMPY_SLAB_BLOCKS):
        count = min(_NUMPY_SLAB_BLOCKS, blocks - start)
        pieces.append(_ctr_slab_numpy(words, rounds, hi, start, count).tobytes())
    return b"".join(pieces)[:length]


def ctr_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """CTR encryption; identical to decryption (XOR with keystream)."""
    return xor_bytes(plaintext, ctr_keystream(key, nonce, len(plaintext)))


def ctr_decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    return ctr_encrypt(key, nonce, ciphertext)


def deterministic_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Deterministic encryption for MLE: CTR with a fixed zero nonce.

    Two identical messages under the same (message-derived) key produce
    identical ciphertexts, which is exactly the property deduplication
    needs (Section II-A).
    """
    return ctr_encrypt(key, ZERO_NONCE, plaintext)


def deterministic_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    return ctr_encrypt(key, ZERO_NONCE, ciphertext)
