"""RSA from scratch: prime generation, keypairs, and FDH signatures.

REED uses RSA in two places:

* the key manager's OPRF (blind RSA signatures over chunk fingerprints,
  Section V-A — the paper uses 1024-bit RSA), and
* RSA key regression for deriving file-key states (Section IV-C).

This module provides Miller–Rabin probabilistic primality testing with a
small-prime sieve, keypair generation, raw modular exponentiation with a
CRT-accelerated private operation, and full-domain-hash (FDH) signatures.
Key sizes are configurable; tests use small keys (512 bits) for speed
while the defaults match the paper (1024 bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.hashing import hash_to_int, sha256
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError

#: Default modulus size, matching the paper's key-manager configuration.
DEFAULT_KEY_BITS = 1024

#: Standard public exponent.
PUBLIC_EXPONENT = 65537

# Sieve of small primes for fast trial division before Miller-Rabin.
_SMALL_PRIME_LIMIT = 2000


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(limit + 1) if sieve[i]]


SMALL_PRIMES = _small_primes(_SMALL_PRIME_LIMIT)


def is_probable_prime(n: int, rounds: int = 40, rng: RandomSource | None = None) -> bool:
    """Miller–Rabin primality test with ``rounds`` random bases.

    40 rounds gives a false-positive probability below 2^-80 even for
    adversarially chosen inputs, far below any practical concern for
    honestly generated candidates.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or SYSTEM_RANDOM
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + rng.randint_below(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: RandomSource | None = None) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ConfigurationError("prime size must be at least 8 bits")
    rng = rng or SYSTEM_RANDOM
    while True:
        candidate = int.from_bytes(rng.random_bytes((bits + 7) // 8), "big")
        candidate |= 1  # odd
        candidate |= 1 << (bits - 1)  # exact bit length
        candidate &= (1 << bits) - 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    """Public half of an RSA keypair: modulus ``n`` and exponent ``e``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_size(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def apply(self, x: int) -> int:
        """The public RSA operation ``x^e mod n`` (verify / unwind)."""
        if not 0 <= x < self.n:
            raise ConfigurationError("RSA input out of range")
        return pow(x, self.e, self.n)

    def encode(self) -> bytes:
        return Encoder().bigint(self.n).bigint(self.e).done()

    @classmethod
    def decode(cls, data: bytes) -> "RSAPublicKey":
        dec = Decoder(data)
        key = cls(n=dec.bigint(), e=dec.bigint())
        dec.expect_end()
        return key

    def fingerprint(self) -> bytes:
        """Stable identifier for this key (hash of its encoding)."""
        return sha256(self.encode())


@dataclass(frozen=True)
class RSAPrivateKey:
    """Private RSA key with CRT components for a ~4x faster private op."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @cached_property
    def _crt(self) -> tuple[int, int, int]:
        """``(d mod p-1, d mod q-1, q^-1 mod p)``, computed once per key."""
        return (
            self.d % (self.p - 1),
            self.d % (self.q - 1),
            pow(self.q, -1, self.p),
        )

    def apply(self, x: int) -> int:
        """The private RSA operation ``x^d mod n`` via the CRT."""
        if not 0 <= x < self.n:
            raise ConfigurationError("RSA input out of range")
        dp, dq, q_inv = self._crt
        mp = pow(x % self.p, dp, self.p)
        mq = pow(x % self.q, dq, self.q)
        h = (q_inv * (mp - mq)) % self.p
        return mq + h * self.q

    def encode(self) -> bytes:
        return (
            Encoder()
            .bigint(self.n)
            .bigint(self.e)
            .bigint(self.d)
            .bigint(self.p)
            .bigint(self.q)
            .done()
        )

    @classmethod
    def decode(cls, data: bytes) -> "RSAPrivateKey":
        dec = Decoder(data)
        key = cls(
            n=dec.bigint(), e=dec.bigint(), d=dec.bigint(), p=dec.bigint(), q=dec.bigint()
        )
        dec.expect_end()
        return key


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS,
    e: int = PUBLIC_EXPONENT,
    rng: RandomSource | None = None,
) -> RSAPrivateKey:
    """Generate an RSA keypair with a ``bits``-bit modulus."""
    if bits < 64:
        raise ConfigurationError("RSA modulus must be at least 64 bits")
    rng = rng or SYSTEM_RANDOM
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        d = pow(e, -1, phi)
        return RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)


def fdh_sign(key: RSAPrivateKey, message: bytes) -> int:
    """Full-domain-hash RSA signature: ``H(message)^d mod n``."""
    return key.apply(hash_to_int(message, key.n))


def fdh_verify(key: RSAPublicKey, message: bytes, signature: int) -> bool:
    """Verify an FDH signature: ``signature^e mod n == H(message)``."""
    if not 0 <= signature < key.n:
        return False
    return key.apply(signature) == hash_to_int(message, key.n)
