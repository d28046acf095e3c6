"""Convergent AONT (CAONT).

CAONT (Li et al., CDStore — used by REED as its deduplication-preserving
transform) replaces AONT's random key with a *deterministic*
message-derived key ``h = H(M)``: identical messages then always map to
identical packages, so deduplication over packages remains possible,
while the all-or-nothing property is preserved.

Because the key is the message hash, reverting a package yields both the
message and its claimed hash, enabling integrity verification without any
padding: recompute ``H(M)`` and compare with the recovered key.
"""

from __future__ import annotations

from repro.aont.package import Package, revert, transform_with_key
from repro.crypto.hashing import sha256
from repro.util.bytesutil import ct_equal
from repro.util.errors import IntegrityError


def caont_transform(message: bytes) -> Package:
    """Deterministically transform ``message`` with key ``H(message)``."""
    return transform_with_key(message, sha256(message))


def caont_revert(package: Package, verify: bool = True) -> bytes:
    """Invert CAONT; verifies ``H(message) == recovered key`` by default.

    Raises :class:`IntegrityError` if the package was tampered with.
    """
    message, key = revert(package)
    if verify and not ct_equal(sha256(message), key):
        raise IntegrityError("CAONT integrity check failed: hash key mismatch")
    return message
