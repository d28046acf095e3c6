"""OpenSSL's ``libcrypto``, bound through :mod:`ctypes` for both kernels.

REED's prototype runs its cryptography on OpenSSL; so do the two
kernels here: :mod:`repro.crypto.modexp` (RSA's Montgomery
exponentiation) and :mod:`repro.crypto.streamcipher` (AES-256-CTR).
``libcrypto`` is already mapped into every CPython process that imports
``hashlib`` (``_hashlib`` links it), so :func:`load` looks there first,
through ``_hashlib``'s dependency tree, and then by name.  A candidate
counts only if it has every function in :data:`_SIGNATURES`; each
function gets its C signature once, so a wrong call fails in ``ctypes``
instead of corrupting memory.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools

from repro.util.errors import ConfigurationError, ReproError

_P = ctypes.c_void_p
_INT = ctypes.c_int
_SIGNATURES = {
    # bignum arithmetic (repro.crypto.modexp)
    "BN_CTX_new": ([], _P),
    "BN_CTX_free": ([_P], None),
    "BN_new": ([], _P),
    "BN_clear_free": ([_P], None),
    "BN_set_flags": ([_P, _INT], None),
    "BN_bin2bn": ([ctypes.c_char_p, _INT, _P], _P),
    "BN_bn2binpad": ([_P, ctypes.c_char_p, _INT], _INT),
    "BN_MONT_CTX_new": ([], _P),
    "BN_MONT_CTX_set": ([_P, _P, _P], _INT),
    "BN_MONT_CTX_free": ([_P], None),
    "BN_mod_exp_mont": ([_P, _P, _P, _P, _P, _P], _INT),
    "BN_mod_exp_mont_consttime": ([_P, _P, _P, _P, _P, _P], _INT),
    # the symmetric cipher (repro.crypto.streamcipher)
    "EVP_aes_256_ctr": ([], _P),
    "EVP_CIPHER_CTX_new": ([], _P),
    "EVP_CIPHER_CTX_free": ([_P], None),
    "EVP_EncryptInit_ex": (
        [_P, _P, _P, ctypes.c_char_p, ctypes.c_char_p], _INT
    ),
    "EVP_EncryptUpdate": ([_P, _P, ctypes.POINTER(_INT), _P, _INT], _INT),
}


class LibcryptoError(ReproError):
    """A ``libcrypto`` call reported failure."""


class LibcryptoUnavailableError(ConfigurationError):
    """``libcrypto`` could not be loaded, and the caller has no other engine."""


def _candidate_paths() -> list[str]:
    """Where to look for ``libcrypto``: first through ``_hashlib``, whose
    dependency tree holds the copy this interpreter already loaded, then
    by name."""
    paths = []
    try:
        import _hashlib

        paths.append(_hashlib.__file__)
    except (ImportError, AttributeError):
        pass
    name = ctypes.util.find_library("crypto")
    if name:
        paths.append(name)
    return paths


@functools.cache
def load(dll: type[ctypes.CDLL] = ctypes.CDLL) -> ctypes.CDLL | None:
    """``libcrypto`` opened through ``dll`` with every function bound, or
    None where no candidate has them all.

    ``ctypes.CDLL`` releases the GIL around each call; ``ctypes.PyDLL``
    keeps it, which saves the hand-over on calls of a few microseconds.
    """
    for path in _candidate_paths():
        try:
            lib = dll(path)
            for name, (argtypes, restype) in _SIGNATURES.items():
                function = getattr(lib, name)
                function.argtypes = argtypes
                function.restype = restype
        except (OSError, AttributeError):
            continue
        return lib
    return None


def check(ok: bool, call: str) -> None:
    """Raise :class:`LibcryptoError` naming ``call`` unless ``ok``."""
    if not ok:
        raise LibcryptoError(f"{call} failed")
