"""Threshold key managers: k-of-n server-aided MLE key generation.

The paper considers a single key manager and notes the design "can be
generalized for multiple key managers for improved availability"
(Section III-A, citing Duan's distributed key generation).  This module
implements that generalization with **threshold RSA signatures** in the
style of Shoup:

* a dealer splits the OPRF private exponent ``d`` into Shamir shares
  over ``Z_phi(N)`` — each key manager holds one share and *no single
  manager (or any coalition below the threshold) can evaluate the OPRF
  alone*;
* each manager answers a blinded request with a partial signature
  ``y^{d_i} mod N``;
* any ``k`` partial signatures combine into the standard RSA signature
  ``y^d`` using integer-scaled Lagrange coefficients (the ``Δ = n!``
  trick avoids rationals; the final gcd step strips the ``Δ`` from the
  exponent).

Because the combined signature is *exactly* the single-manager OPRF
output, MLE keys — and therefore deduplication — are identical whether
a deployment runs one key manager or a 3-of-5 group, and the two can
interoperate on the same stored data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.crypto import blindrsa
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.mle.keymanager import DEFAULT_BURST, DEFAULT_RATE_LIMIT
from repro.util.errors import ConfigurationError, KeyManagerError, RateLimitExceeded
from repro.util.tokenbucket import TokenBucket


@dataclass(frozen=True)
class KeyShare:
    """One key manager's share of the OPRF exponent."""

    index: int  # 1-based Shamir evaluation point
    value: int  # d_i = f(index) mod phi(N)
    threshold: int
    players: int
    public_key: RSAPublicKey


def split_key(
    private_key: RSAPrivateKey,
    threshold: int,
    players: int,
    rng: RandomSource | None = None,
) -> list[KeyShare]:
    """Dealer: split ``d`` into ``players`` shares, any ``threshold`` of
    which can jointly sign.

    The dealer knows ``phi(N)`` (it generated the key); managers only
    ever see their own share.
    """
    if not 1 <= threshold <= players:
        raise ConfigurationError(f"invalid threshold {threshold} of {players}")
    rng = rng or SYSTEM_RANDOM
    phi = math.prod(prime - 1 for prime in private_key.primes)
    # f(x) = d + a1 x + ... + a_{k-1} x^{k-1} over Z_phi.
    coefficients = [private_key.d % phi] + [
        rng.randint_below(phi) for _ in range(threshold - 1)
    ]
    shares = []
    for index in range(1, players + 1):
        value = 0
        for coefficient in reversed(coefficients):
            value = (value * index + coefficient) % phi
        shares.append(
            KeyShare(
                index=index,
                value=value,
                threshold=threshold,
                players=players,
                public_key=private_key.public,
            )
        )
    return shares


def _delta(players: int) -> int:
    return math.factorial(players)


def _scaled_lagrange(indexes: list[int], players: int) -> dict[int, int]:
    """Integer coefficients ``Δ * λ_i(0)`` for the subset ``indexes``."""
    delta = _delta(players)
    out = {}
    for i in indexes:
        numerator = delta
        denominator = 1
        for j in indexes:
            if j == i:
                continue
            numerator *= -j
            denominator *= i - j
        if numerator % denominator:
            raise AssertionError("Δ-scaled Lagrange coefficient not integral")
        out[i] = numerator // denominator
    return out


def combine_partials(
    public_key: RSAPublicKey,
    blinded: int,
    partials: dict[int, int],
    threshold: int,
    players: int,
) -> int:
    """Combine ``threshold`` partial signatures into ``blinded^d mod N``.

    ``partials`` maps share indexes to ``blinded^{d_i} mod N``.  Raises
    :class:`KeyManagerError` if the combination does not verify (a
    manager misbehaved or too few distinct shares were supplied).
    """
    if len(partials) < threshold:
        raise KeyManagerError(
            f"need {threshold} partial signatures, got {len(partials)}"
        )
    subset = sorted(partials)[:threshold]
    coefficients = _scaled_lagrange(subset, players)
    n = public_key.n
    combined = 1
    for index in subset:
        combined = (combined * pow(partials[index], coefficients[index], n)) % n
    # combined == blinded^(Δ d).  gcd(Δ, e) == 1 because e = 65537 is a
    # prime larger than any sane player count, so strip the Δ:
    delta = _delta(players)
    if math.gcd(delta, public_key.e) != 1:
        raise ConfigurationError("public exponent shares a factor with Δ = n!")
    a = pow(delta, -1, public_key.e)  # a*Δ = 1 + b*e for some integer b
    b = (a * delta - 1) // public_key.e
    signature = (pow(combined, a, n) * pow(blinded, -b, n)) % n
    if pow(signature, public_key.e, n) != blinded % n:
        raise KeyManagerError("combined threshold signature failed verification")
    return signature


class ThresholdKeyManager:
    """One member of a key-manager group, holding a single key share.

    Mirrors :class:`~repro.mle.keymanager.KeyManager`'s interface
    (per-client rate limiting, batch signing) but produces *partial*
    signatures.  A manager can be taken offline to exercise the
    availability story.
    """

    def __init__(
        self,
        share: KeyShare,
        rate_limit: float = DEFAULT_RATE_LIMIT,
        burst: float = DEFAULT_BURST,
        clock=time.monotonic,
    ) -> None:
        self._share = share
        self._rate_limit = rate_limit
        self._burst = burst
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self.available = True
        self.signatures = 0

    @property
    def index(self) -> int:
        return self._share.index

    @property
    def public_key(self) -> RSAPublicKey:
        return self._share.public_key

    def _bucket(self, client_id: str) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self._rate_limit, self._burst, clock=self._clock)
            self._buckets[client_id] = bucket
        return bucket

    def sign_batch_partial(self, client_id: str, blinded_values: list[int]) -> list[int]:
        if not self.available:
            raise KeyManagerError(f"key manager {self.index} is offline")
        if not blinded_values:
            return []
        if not self._bucket(client_id).try_take(len(blinded_values)):
            raise RateLimitExceeded(
                f"key manager {self.index} rate-limited client {client_id!r}"
            )
        n, exponent = self._share.public_key.n, self._share.value
        blindrsa.require_in_domain(n, blinded_values)
        out = [pow(blinded, exponent, n) for blinded in blinded_values]
        self.signatures += len(out)
        return out


class ThresholdKeyManagerChannel:
    """Client-side channel over a key-manager group.

    Implements the same ``KeyManagerChannel`` protocol as the
    single-manager channel, so :class:`ServerAidedKeyClient` works
    unchanged.  Each batch is sent to managers in order until
    ``threshold`` of them answer; offline managers are skipped, giving
    availability up to ``players - threshold`` failures.
    """

    def __init__(self, managers: list[ThresholdKeyManager]) -> None:
        if not managers:
            raise ConfigurationError("need at least one key manager")
        self._managers = managers
        first = managers[0]._share
        self._threshold = first.threshold
        self._players = first.players
        self._public_key = first.public_key
        if len({m.index for m in managers}) != len(managers):
            raise ConfigurationError("duplicate key-manager share indexes")

    def public_key(self) -> RSAPublicKey:
        return self._public_key

    def derive_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        """Gather partials from ``threshold`` live managers and combine."""
        partials_per_manager: dict[int, list[int]] = {}
        errors: list[str] = []
        for manager in self._managers:
            if len(partials_per_manager) == self._threshold:
                break
            try:
                partials_per_manager[manager.index] = manager.sign_batch_partial(
                    client_id, blinded_values
                )
            except KeyManagerError as exc:
                errors.append(str(exc))
        if len(partials_per_manager) < self._threshold:
            raise KeyManagerError(
                f"only {len(partials_per_manager)} of {self._threshold} required "
                f"key managers responded: {'; '.join(errors)}"
            )
        signatures = []
        for position, blinded in enumerate(blinded_values):
            partials = {
                index: values[position]
                for index, values in partials_per_manager.items()
            }
            signatures.append(
                combine_partials(
                    self._public_key,
                    blinded,
                    partials,
                    self._threshold,
                    self._players,
                )
            )
        return signatures

    def backoff_hint(self, client_id: str, batch_size: int) -> float:
        hints = []
        for manager in self._managers:
            if not manager.available:
                continue
            try:
                hints.append(manager._bucket(client_id).seconds_until(batch_size))
            except NotImplementedError:
                # Remote stubs have no local bucket; use a modest default.
                hints.append(0.05)
        return max(hints) if hints else 1.0


def build_group(
    private_key: RSAPrivateKey,
    threshold: int,
    players: int,
    rng: RandomSource | None = None,
    rate_limit: float = DEFAULT_RATE_LIMIT,
) -> tuple[list[ThresholdKeyManager], ThresholdKeyManagerChannel]:
    """Dealer setup: split the key and stand up the manager group."""
    shares = split_key(private_key, threshold, players, rng)
    managers = [ThresholdKeyManager(share, rate_limit=rate_limit) for share in shares]
    return managers, ThresholdKeyManagerChannel(managers)
