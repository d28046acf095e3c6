"""Rivest's all-or-nothing transform (AONT).

AONT (Section IV-B) is an *unkeyed, randomized* encryption mode: it maps a
message ``M`` to a package ``(C, t)`` such that recovering any part of
``M`` is computationally infeasible without the **entire** package:

* pick a random key ``K``;
* ``C = M XOR G(K)`` where ``G(K) = E(K, S)`` masks the message with a
  pseudo-random stream over a public block ``S`` (all zeros, so under
  CTR mode ``C`` is the one-call encryption ``E(K, M)``);
* ``t = H(C) XOR K`` hides the key behind a digest of all of ``C``.

Reversal recomputes ``K = H(C) XOR t`` and unmasks.  Because ``H(C)``
depends on every bit of ``C``, deleting *any* part of the package destroys
``K`` and hence all of ``M`` — the property REED exploits: encrypt only a
tiny trailing *stub* under a renewable key and the whole package is
protected by that key (AONT-based secure deletion, Peterson et al.).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.cipher import AES256CTR
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import DIGEST_SIZE, sha256
from repro.util.bytesutil import split_at, xor_bytes
from repro.util.errors import ConfigurationError

#: Key / tail size: SHA-256 digest length.
KEY_SIZE = DIGEST_SIZE


@dataclass(frozen=True)
class Package:
    """An AONT package: head ``C`` (message-sized) and tail ``t``."""

    head: bytes
    tail: bytes

    @property
    def size(self) -> int:
        return len(self.head) + len(self.tail)

    def to_bytes(self) -> bytes:
        """Flatten to ``C || t`` (the layout REED trims the stub from)."""
        return self.head + self.tail

    @classmethod
    def from_bytes(cls, data: bytes, tail_size: int = KEY_SIZE) -> "Package":
        if len(data) < tail_size:
            raise ConfigurationError("package shorter than its tail")
        head, tail = split_at(data, len(data) - tail_size)
        return cls(head=head, tail=tail)

    def trim(self, stub_size: int) -> tuple[bytes, bytes]:
        """Split the flattened package into (trimmed package, stub).

        The stub is the *last* ``stub_size`` bytes (covering the tail and
        the end of the head), per REED Section IV-A.
        """
        flat = self.to_bytes()
        if not 0 < stub_size < len(flat):
            raise ConfigurationError(
                f"stub size {stub_size} invalid for a {len(flat)}-byte package"
            )
        return split_at(flat, len(flat) - stub_size)


def transform(message: bytes, rng: RandomSource | None = None) -> Package:
    """Apply the randomized AONT to ``message``."""
    rng = rng or SYSTEM_RANDOM
    return transform_with_key(message, rng.random_bytes(KEY_SIZE))


def transform_with_key(message: bytes, key: bytes) -> Package:
    """AONT with an explicit key (the deterministic core both CAONT and
    REED's basic scheme build on)."""
    if len(key) != KEY_SIZE:
        raise ConfigurationError(f"AONT key must be {KEY_SIZE} bytes")
    head = AES256CTR.deterministic_encrypt(key, message)
    tail = xor_bytes(sha256(head), key)
    return Package(head=head, tail=tail)


def revert(package: Package) -> tuple[bytes, bytes]:
    """Invert the AONT, returning ``(message, key)``.

    The key is returned so callers can run their own integrity checks
    (CAONT compares it against ``H(message)``; REED's basic scheme uses it
    as the recovered MLE key and checks a canary).
    """
    if len(package.tail) != KEY_SIZE:
        raise ConfigurationError(f"AONT tail must be {KEY_SIZE} bytes")
    key = xor_bytes(sha256(package.head), package.tail)
    message = AES256CTR.deterministic_decrypt(key, package.head)
    return message, key
