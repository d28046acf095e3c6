"""Pure-Python AES (FIPS-197) block cipher.

REED's prototype uses OpenSSL AES-256 as the symmetric encryption function
``E(.)`` inside AONT/CAONT and for MLE encryption.  This module implements
AES-128/192/256 from the specification — S-box derived from the GF(2^8)
multiplicative inverse plus the affine transform, standard key expansion,
and table-free round functions — and is validated against the FIPS-197
appendix test vectors in the test suite.

Two encrypt paths give identical output (docs/PERFORMANCE.md):

* the **reference path** (:meth:`AES.encrypt_block`) keeps the
  specification's per-step round functions and serves as the
  correctness oracle;
* the **T-table path**: ``T0``..``T3`` fold SubBytes + ShiftRows +
  MixColumns into four 256-entry 32-bit lookup tables, and
  :func:`encryption_schedule` caches each key's schedule as packed
  32-bit words.  The numpy CTR engine in :mod:`repro.crypto.modes`
  runs its rounds on these.

Pure-Python AES is three orders of magnitude slower than hardware AES; the
library therefore defaults to :mod:`repro.crypto.streamcipher` (a SHAKE-256
keystream) for bulk masking, with AES available for
correctness testing and for callers that require the exact paper
construction.  See DESIGN.md §3.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.util.errors import ConfigurationError

BLOCK_SIZE = 16

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and S-box construction
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses via exponentiation by |GF(2^8)*| - 1 = 254.
    inv = [0] * 256
    for x in range(1, 256):
        y = x
        # x^254 = x^-1 in GF(2^8)*; square-and-multiply over the 8-bit chain.
        acc = 1
        e = 254
        base = y
        while e:
            if e & 1:
                acc = _gf_mul(acc, base)
            base = _gf_mul(base, base)
            e >>= 1
        inv[x] = acc
    sbox = bytearray(256)
    for x in range(256):
        b = inv[x]
        # Affine transform: b XOR rot(b,4,5,6,7) XOR 0x63.
        res = 0
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            res |= bit << i
        sbox[x] = res
    inv_sbox = bytearray(256)
    for x in range(256):
        inv_sbox[sbox[x]] = x
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))

# Precomputed GF multiplication tables for MixColumns speed.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
_MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
_MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
_MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
_MUL14 = bytes(_gf_mul(x, 14) for x in range(256))


# ---------------------------------------------------------------------------
# T-tables: SubBytes + ShiftRows + MixColumns combined into four 32-bit
# lookup tables (the classic software-AES construction).  One encrypt
# round becomes, per output word, four table lookups XORed with the
# round-key word.
# ---------------------------------------------------------------------------


def _build_enc_tables() -> tuple[tuple[int, ...], ...]:
    t0 = []
    for x in range(256):
        s = SBOX[x]
        t0.append((_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3))
    t1 = tuple(((t >> 8) | ((t & 0xFF) << 24)) for t in t0)
    t2 = tuple(((t >> 16) | ((t & 0xFFFF) << 16)) for t in t0)
    t3 = tuple(((t >> 24) | ((t & 0xFFFFFF) << 8)) for t in t0)
    return tuple(t0), t1, t2, t3


T0, T1, T2, T3 = _build_enc_tables()


def _sub_word(word: int) -> int:
    return (
        (SBOX[word >> 24] << 24)
        | (SBOX[(word >> 16) & 0xFF] << 16)
        | (SBOX[(word >> 8) & 0xFF] << 8)
        | SBOX[word & 0xFF]
    )


@lru_cache(maxsize=512)
def encryption_schedule(key: bytes) -> tuple[tuple[int, ...], int]:
    """Per-key cached key schedule as big-endian packed 32-bit words.

    Returns ``(words, rounds)`` with ``4 * (rounds + 1)`` words.  The
    cache means repeated CTR calls under the same key (one
    :func:`modes.ctr_keystream` call per chunk piece, say) expand the
    key once.
    """
    nk = len(key) // 4
    rounds = AES._ROUNDS.get(len(key))
    if rounds is None:
        raise ConfigurationError(
            f"AES key must be 16, 24, or 32 bytes, got {len(key)}"
        )
    words = list(struct.unpack(f">{nk}I", key))
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = _sub_word(temp)
            temp ^= _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return tuple(words), rounds


class AES:
    """Raw AES block cipher (single 16-byte block operations).

    Not a mode of operation — see :mod:`repro.crypto.modes` for CTR.
    """

    _ROUNDS = {16: 10, 24: 12, 32: 14}

    def __init__(self, key: bytes) -> None:
        if len(key) not in self._ROUNDS:
            raise ConfigurationError(
                f"AES key must be 16, 24, or 32 bytes, got {len(key)}"
            )
        self.key = bytes(key)
        self._rounds = self._ROUNDS[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        nr = self._rounds
        words: list[list[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
        # Group into 16-byte round keys (flat lists of 16 ints).
        round_keys = []
        for r in range(nr + 1):
            rk: list[int] = []
            for w in words[4 * r : 4 * r + 4]:
                rk.extend(w)
            round_keys.append(rk)
        return round_keys

    # -- round functions (state is a flat list of 16 ints, column-major) ----

    @staticmethod
    def _add_round_key(state: list[int], rk: list[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> list[int]:
        # state[4c + r] holds row r of column c.
        s = state
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> list[int]:
        s = state
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> None:
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            state[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    # -- public API ----------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ConfigurationError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, self._rounds):
            self._sub_bytes(state)
            state = self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state)
        state = self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ConfigurationError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[self._rounds])
        for r in range(self._rounds - 1, 0, -1):
            state = self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[r])
            self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
