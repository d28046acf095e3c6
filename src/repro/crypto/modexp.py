"""Modular exponentiation on OpenSSL's Montgomery kernel.

Every RSA operation in REED is one or more modular exponentiations: the
key manager's OPRF signatures and key-regression winds (private, per CRT
prime), blinding factors, signature checks and unwinds (public, ``e =
65537``).  CPython's ``pow`` computes them on 30-bit digits without
Montgomery reduction, about six times slower at these sizes, and holds
the GIL throughout.  The REED prototype does this arithmetic on OpenSSL;
so does :class:`ModExp`, with two functions of the ``libcrypto`` that
:mod:`repro.crypto.libcrypto` loads:

* ``BN_mod_exp_mont_consttime`` for secret exponents (the private key's
  CRT exponents): a fixed-window ladder whose memory access pattern does
  not depend on the exponent;
* ``BN_mod_exp_mont`` for public exponents.

One :class:`ModExp` fixes one ``(exponent, modulus)`` pair and builds its
Montgomery context once.  Each thread gets its own ``BN_CTX`` scratch
space, because the key manager's handler and signer threads and the
upload pipeline's stages exponentiate concurrently; ``ctypes`` releases
the GIL for the duration of every call.  Nothing forks a worker
process: every exponentiation runs on a thread of the process that
holds the key.  The C objects are freed by finalizers.

Where ``libcrypto`` cannot be loaded, :class:`ModExp` computes the same
values with ``pow`` — the bit-identical reference the tests compare the
kernel against.  Nothing selects the engine but that: :func:`engine`
reports which one runs.
"""

from __future__ import annotations

import ctypes
import threading
import weakref

from repro.crypto import libcrypto
from repro.crypto.libcrypto import check as _check
from repro.util.errors import ConfigurationError

#: ``BN_FLG_CONSTTIME`` from ``openssl/bn.h``.
_BN_FLG_CONSTTIME = 0x04


class EvenModulusError(ConfigurationError):
    """Montgomery exponentiation needs an odd modulus; this one is even."""


def engine() -> str:
    """``"libcrypto"`` where the kernel runs, ``"pow"`` where it cannot."""
    return "pow" if libcrypto.load() is None else "libcrypto"


class _Scratch:
    """One thread's ``BN_CTX`` and the two registers it converts through."""

    __slots__ = ("ctx", "base", "result", "__weakref__")

    def __init__(self, lib: ctypes.CDLL) -> None:
        ctx, base, result = lib.BN_CTX_new(), lib.BN_new(), lib.BN_new()
        weakref.finalize(self, _free_scratch, lib, ctx, base, result)
        _check(bool(ctx and base and result), "BN_CTX_new/BN_new")
        self.ctx, self.base, self.result = ctx, base, result


def _free_scratch(lib: ctypes.CDLL, ctx, base, result) -> None:
    lib.BN_clear_free(base)
    lib.BN_clear_free(result)
    lib.BN_CTX_free(ctx)


_THREAD = threading.local()


def _scratch(lib: ctypes.CDLL) -> _Scratch:
    scratch = getattr(_THREAD, "scratch", None)
    if scratch is None:
        scratch = _THREAD.scratch = _Scratch(lib)
    return scratch


def _free_montgomery(lib: ctypes.CDLL, mont, exponent, modulus) -> None:
    lib.BN_MONT_CTX_free(mont)
    lib.BN_clear_free(exponent)
    lib.BN_clear_free(modulus)


class ModExp:
    """``x -> x^exponent mod modulus`` for one fixed odd modulus.

    ``secret`` exponents run OpenSSL's constant-time ladder; public ones
    the faster variable-time one.  Inputs outside ``[0, modulus)`` are
    reduced first, exactly as ``pow`` would.
    """

    __slots__ = ("exponent", "modulus", "_size", "_lib", "_state", "__weakref__")

    def __init__(self, exponent: int, modulus: int, secret: bool = False) -> None:
        if modulus % 2 == 0:
            raise EvenModulusError(
                "Montgomery exponentiation needs an odd modulus, got an even one"
            )
        if modulus < 3 or exponent < 0:
            raise ConfigurationError("modulus must exceed 1 and exponent be >= 0")
        self.exponent, self.modulus = exponent, modulus
        self._size = (modulus.bit_length() + 7) // 8
        self._lib = lib = libcrypto.load()
        self._state = None
        if lib is None:
            return
        scratch = _scratch(lib)
        mont = lib.BN_MONT_CTX_new()
        exponent_bn, modulus_bn = _bignum(lib, exponent), _bignum(lib, modulus)
        weakref.finalize(self, _free_montgomery, lib, mont, exponent_bn, modulus_bn)
        _check(bool(mont and exponent_bn and modulus_bn), "BN_MONT_CTX_new/BN_bin2bn")
        kernel = lib.BN_mod_exp_mont
        if secret:
            # A secret exponent's modulus is a secret prime: set up its
            # Montgomery context in constant time too.
            lib.BN_set_flags(exponent_bn, _BN_FLG_CONSTTIME)
            lib.BN_set_flags(modulus_bn, _BN_FLG_CONSTTIME)
            kernel = lib.BN_mod_exp_mont_consttime
        _check(lib.BN_MONT_CTX_set(mont, modulus_bn, scratch.ctx) == 1, "BN_MONT_CTX_set")
        self._state = (kernel, exponent_bn, modulus_bn, mont)

    def __call__(self, x: int) -> int:
        modulus = self.modulus
        if not 0 <= x < modulus:
            x %= modulus
        if self._state is None:
            return pow(x, self.exponent, modulus)
        lib, size = self._lib, self._size
        kernel, exponent_bn, modulus_bn, mont = self._state
        scratch = _scratch(lib)
        _check(bool(lib.BN_bin2bn(x.to_bytes(size, "big"), size, scratch.base)), "BN_bin2bn")
        _check(
            kernel(scratch.result, scratch.base, exponent_bn, modulus_bn, scratch.ctx, mont)
            == 1,
            "BN_mod_exp_mont",
        )
        out = ctypes.create_string_buffer(size)
        _check(lib.BN_bn2binpad(scratch.result, out, size) == size, "BN_bn2binpad")
        return int.from_bytes(out.raw, "big")


def _bignum(lib: ctypes.CDLL, value: int):
    """A new ``BIGNUM`` holding ``value`` (NULL if allocation failed)."""
    data = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    return lib.BN_bin2bn(data, len(data), None)
