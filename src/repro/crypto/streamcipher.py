"""AES-256 in CTR mode on OpenSSL: the keystream behind ``E(.)``.

The REED prototype encrypts with OpenSSL's AES-256 (Section V-A); so
does this module, through ``EVP_EncryptInit_ex``/``EVP_EncryptUpdate``
of the ``libcrypto`` that :mod:`repro.crypto.libcrypto` loads.  CTR
mode XORs the data with the keystream inside the same call, so one
encryption is one pass over the data and decryption is the same call.

:func:`encrypt` returns a new buffer; :func:`encrypt_into` writes into
the caller's, in place if asked.

The 16-byte IV is the initial counter block, incremented as one 128-bit
big-endian integer per block.  Deterministic uses (the MLE encryption
``E(K_M, M)``, the AONT masks) pass an all-zero IV: each of their keys
encrypts one message.  Randomized uses (stub files, CP-ABE items,
envelopes) pass their random 16-byte nonce.

Each thread keeps one ``EVP_CIPHER_CTX``, created on first use and freed
by a finalizer; later calls on it only load a new key and IV.  Where
``libcrypto`` cannot be loaded, every call raises
:class:`~repro.crypto.libcrypto.LibcryptoUnavailableError`: there is no
second cipher, because data written under one would not read under the
other.  Callers use the checked cipher in :mod:`repro.crypto.cipher`.
"""

from __future__ import annotations

import ctypes
import threading
import weakref

from repro.crypto import libcrypto
from repro.crypto.libcrypto import LibcryptoUnavailableError, check
from repro.util.errors import ConfigurationError

KEY_SIZE = 32
IV_SIZE = 16
#: The deterministic uses' initial counter block.
ZERO_IV = bytes(IV_SIZE)
#: Longest input of one call: ``EVP_EncryptUpdate`` takes a C ``int``.
_MAX_LENGTH = (1 << 31) - 1

#: The cipher calls are a few microseconds each, so they run on the
#: handle that keeps the GIL rather than hand it over twice per call
#: (docs/PERFORMANCE.md, *The paper's cipher*, measures both handles).
_DLL = ctypes.PyDLL


class _Context:
    """One thread's cipher context and the length its updates report."""

    __slots__ = ("ctx", "written", "written_ref", "__weakref__")

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.ctx = lib.EVP_CIPHER_CTX_new()
        check(bool(self.ctx), "EVP_CIPHER_CTX_new")
        weakref.finalize(self, lib.EVP_CIPHER_CTX_free, self.ctx)
        # Fix the cipher once; every call after only loads a key and IV.
        check(
            lib.EVP_EncryptInit_ex(self.ctx, lib.EVP_aes_256_ctr(), None, None, None)
            == 1,
            "EVP_EncryptInit_ex",
        )
        self.written = ctypes.c_int()
        self.written_ref = ctypes.byref(self.written)


_THREAD = threading.local()


def _context(lib: ctypes.CDLL) -> _Context:
    context = getattr(_THREAD, "context", None)
    if context is None:
        context = _THREAD.context = _Context(lib)
    return context


def _check_size(size: int) -> None:
    if size > _MAX_LENGTH:
        raise ConfigurationError(f"one AES-256-CTR call takes at most {_MAX_LENGTH} bytes")


def _prepare(key: bytes, iv: bytes) -> tuple[ctypes.CDLL, _Context]:
    """Check a call's key and IV; the library and this thread's context,
    loaded with them."""
    if len(key) != KEY_SIZE:
        raise ConfigurationError(f"AES-256 key must be {KEY_SIZE} bytes")
    if len(iv) != IV_SIZE:
        raise ConfigurationError(f"AES-256-CTR IV must be {IV_SIZE} bytes")
    lib = libcrypto.load(_DLL)
    if lib is None:
        raise LibcryptoUnavailableError(
            "AES-256-CTR needs OpenSSL's libcrypto, which could not be "
            "loaded; REED has no other cipher"
        )
    context = _context(lib)
    check(
        lib.EVP_EncryptInit_ex(context.ctx, None, None, key, iv) == 1,
        "EVP_EncryptInit_ex",
    )
    return lib, context


def _update(lib: ctypes.CDLL, context: _Context, out, data, size: int) -> None:
    check(
        lib.EVP_EncryptUpdate(context.ctx, out, context.written_ref, data, size) == 1
        and context.written.value == size,
        "EVP_EncryptUpdate",
    )


def encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """AES-256-CTR of ``data`` under ``key`` from counter block ``iv``."""
    if not isinstance(data, bytes):
        data = bytes(data)
    size = len(data)
    _check_size(size)
    lib, context = _prepare(key, iv)
    out = ctypes.create_string_buffer(size)
    _update(lib, context, out, data, size)
    return out.raw


def encrypt_into(key: bytes, iv: bytes, data, out) -> None:
    """Write AES-256-CTR of ``data`` into ``out``, a writable buffer of
    the same length; ``data`` may be ``out`` itself (in place).

    Nothing is allocated for the output: the chunk-window engine of
    :mod:`repro.core.schemes` runs both of a chunk's passes in place on
    slices of one window buffer.
    """
    target = memoryview(out)
    if data is out:
        size = target.nbytes
    else:
        if not isinstance(data, bytes):
            data = bytes(data)
        size = len(data)
    _check_size(size)
    if target.readonly:
        raise ConfigurationError("AES-256-CTR output buffer must be writable")
    if target.nbytes != size:
        raise ConfigurationError(
            f"AES-256-CTR output has {target.nbytes} bytes for {size} of input"
        )
    lib, context = _prepare(key, iv)
    if not size:
        return
    pointer = ctypes.byref(ctypes.c_char.from_buffer(target))
    _update(lib, context, pointer, pointer if data is out else data, size)


#: CTR decryption is encryption.
decrypt = encrypt
