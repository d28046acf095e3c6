"""Blind RSA signatures — the OPRF between REED clients and the key manager.

DupLESS-style server-aided MLE (Section II-A, V-A) derives each chunk's
MLE key as an *oblivious pseudo-random function* of the chunk fingerprint:

1. the client hashes the fingerprint into the RSA domain and *blinds* it
   with a random factor ``r``:  ``y = H(fp) * r^e mod n``;
2. the key manager signs the blinded value: ``s' = y^d mod n`` — it learns
   nothing about ``fp`` because ``y`` is uniformly distributed;
3. the client *unblinds*: ``s = s' * r^{-1} mod n = H(fp)^d mod n``,
   verifies ``s^e == H(fp)``, and hashes ``s`` into the 32-byte MLE key.

The resulting key is deterministic in (fingerprint, key-manager secret),
so identical chunks still map to identical keys — deduplication survives —
while offline brute force now requires the key manager's private key.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import hash_to_int, sha256
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.util.errors import KeyManagerError

#: Byte length of derived MLE keys.
MLE_KEY_SIZE = 32


@dataclass(frozen=True)
class BlindingState:
    """Client-side state kept between blind and unblind for one request."""

    #: ``H(fp)``: the fingerprint hashed into the RSA domain, which the
    #: unblinded signature is checked against.
    hashed: int
    r_inverse: int


def blind(
    public_key: RSAPublicKey,
    fingerprint: bytes,
    rng: RandomSource | None = None,
) -> tuple[int, BlindingState]:
    """Blind a fingerprint for submission to the key manager.

    Returns the blinded value to send and the state needed to unblind the
    response.
    """
    n = public_key.n
    r = _draw_blinding_factor(n, rng or SYSTEM_RANDOM)
    hashed = hash_to_int(fingerprint, n)
    blinded = (hashed * public_key.apply(r)) % n
    return blinded, BlindingState(hashed=hashed, r_inverse=pow(r, -1, n))


def _draw_blinding_factor(n: int, rng: RandomSource) -> int:
    while True:
        r = 1 + rng.randint_below(n - 1)
        if math.gcd(r, n) == 1:
            return r


def blind_many(
    public_key: RSAPublicKey,
    fingerprints: Sequence[bytes],
    rng: RandomSource | None = None,
) -> tuple[list[int], list[BlindingState]]:
    """Blind a batch of fingerprints for one key-manager round trip.

    Draws the same factors in the same order as :func:`blind` called per
    fingerprint, so the blinded values are identical — but the factors
    are inverted together (Montgomery's trick: one modular inverse for
    the batch plus three multiplications per item, instead of one
    inverse each).  Every factor is coprime to ``n``, so their product
    is invertible.
    """
    rng = rng or SYSTEM_RANDOM
    n, power = public_key.n, public_key.apply
    factors = [_draw_blinding_factor(n, rng) for _ in fingerprints]
    hashed = [hash_to_int(fingerprint, n) for fingerprint in fingerprints]
    blinded = [(h * power(r)) % n for h, r in zip(hashed, factors)]
    # prefix[i] = r_0 * ... * r_(i-1); walking back from the inverse of
    # the full product peels off one factor's inverse per step.
    prefix = [1]
    for r in factors:
        prefix.append((prefix[-1] * r) % n)
    running = pow(prefix.pop(), -1, n)
    inverses = []
    for r, before in zip(reversed(factors), reversed(prefix)):
        inverses.append((running * before) % n)
        running = (running * r) % n
    states = [
        BlindingState(hashed=h, r_inverse=r_inverse)
        for h, r_inverse in zip(hashed, reversed(inverses))
    ]
    return blinded, states


def require_in_domain(n: int, blinded_values: Iterable[int]) -> None:
    """Key-manager side: reject a batch holding a value outside ``[0, n)``."""
    for blinded in blinded_values:
        if not 0 <= blinded < n:
            raise KeyManagerError("blinded value out of the RSA domain")


def sign_blinded(private_key: RSAPrivateKey, blinded: int) -> int:
    """Key-manager side: sign a blinded value (one private RSA operation)."""
    require_in_domain(private_key.n, (blinded,))
    return private_key.apply(blinded)


def unblind(
    public_key: RSAPublicKey,
    state: BlindingState,
    blinded_signature: int,
) -> int:
    """Remove the blinding factor, recovering ``H(fp)^d mod n``.

    Verifies the signature against the public key; a wrong or malicious
    key-manager response raises :class:`KeyManagerError` rather than
    silently yielding a bad MLE key.
    """
    signature = (blinded_signature * state.r_inverse) % public_key.n
    if public_key.apply(signature) != state.hashed:
        raise KeyManagerError("key manager returned an invalid blind signature")
    return signature


def signature_to_key(signature: int, byte_size: int) -> bytes:
    """Hash an unblinded signature into a fixed-size symmetric MLE key."""
    return sha256(signature.to_bytes(byte_size, "big"))


def derive_mle_key_directly(private_key: RSAPrivateKey, fingerprint: bytes) -> bytes:
    """Compute the OPRF output without the blinding round trip.

    Only the key manager can do this (it needs the private key); used in
    tests to check that the blinded protocol computes the same function,
    and by the trusted in-process key manager fast path.
    """
    signature = private_key.apply(hash_to_int(fingerprint, private_key.n))
    return signature_to_key(signature, (private_key.n.bit_length() + 7) // 8)
