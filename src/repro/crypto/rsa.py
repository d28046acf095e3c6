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

Keys of :data:`THREE_PRIME_BITS` bits or more are *multi-prime* (RFC 8017
§3.2): the modulus is the product of three primes instead of two.  The
public half — modulus, exponent, every public operation — is unchanged,
so nobody holding only the public key can tell.  The private operation
exponentiates modulo each prime and recombines with Garner's algorithm
(RFC 8017 §5.1.2); with a third of the modulus per prime it costs about
half a two-prime CRT operation (Boneh–Shacham, "Fast Variants of RSA").
Three is the usual ceiling at 1024 bits (Hinek, "On the security of
multi-prime RSA", 2008); docs/SECURITY.md gives the reasoning.
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

#: Moduli of this many bits or more get three primes, smaller ones two.
THREE_PRIME_BITS = 1024

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
    return _prime_between(1 << (bits - 1), (1 << bits) - 1, rng or SYSTEM_RANDOM)


def _prime_between(low: int, high: int, rng: RandomSource) -> int:
    """A random prime in ``[low, high]``, which must hold one."""
    while True:
        candidate = (low + rng.randint_below(high - low + 1)) | 1
        if candidate <= high and is_probable_prime(candidate, rng=rng):
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
    """Private RSA key over two or more distinct primes.

    ``primes`` multiply to ``n``; the private operation runs once per
    prime and is recombined with Garner's algorithm, so a three-prime key
    signs in about half the time of a two-prime one of the same size.
    """

    n: int
    e: int
    d: int
    primes: tuple[int, ...]

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    @cached_property
    def _crt(self) -> tuple[int, int, tuple[tuple[int, int, int, int], ...]]:
        """Garner's constants, computed once per key.

        The first prime ``r_1`` with ``d mod r_1-1``, then for each later
        prime ``r_i``: ``(r_i, d mod r_i-1, R^-1 mod r_i, R)`` where ``R``
        is the product of the primes before it (RFC 8017 §3.2).
        """
        first, *rest = self.primes
        steps = []
        prefix = first
        for prime in rest:
            steps.append((prime, self.d % (prime - 1), pow(prefix, -1, prime), prefix))
            prefix *= prime
        return first, self.d % (first - 1), tuple(steps)

    def apply(self, x: int) -> int:
        """The private RSA operation ``x^d mod n`` via the CRT."""
        if not 0 <= x < self.n:
            raise ConfigurationError("RSA input out of range")
        first, first_exponent, steps = self._crt
        # After each step m < R * r_i and m = x^d modulo every prime so far.
        m = pow(x % first, first_exponent, first)
        for prime, exponent, coefficient, prefix in steps:
            m += prefix * ((pow(x % prime, exponent, prime) - m) * coefficient % prime)
        return m

    def encode(self) -> bytes:
        """``n, e, d`` and the primes in order: a two-prime key encodes
        as the ``n, e, d, p, q`` blob older releases wrote."""
        encoder = Encoder().bigint(self.n).bigint(self.e).bigint(self.d)
        for prime in self.primes:
            encoder.bigint(prime)
        return encoder.done()

    @classmethod
    def decode(cls, data: bytes) -> "RSAPrivateKey":
        """Decode :meth:`encode`'s output, refusing a key whose primes
        repeat or do not multiply to ``n`` (it would sign garbage)."""
        dec = Decoder(data)
        n, e, d = dec.bigint(), dec.bigint(), dec.bigint()
        primes = [dec.bigint(), dec.bigint()]
        while dec.remaining:
            primes.append(dec.bigint())
        if len(set(primes)) != len(primes) or math.prod(primes) != n:
            raise ConfigurationError(
                "RSA private key is inconsistent: its primes repeat or do not "
                "multiply to the modulus"
            )
        return cls(n=n, e=e, d=d, primes=tuple(primes))


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS,
    e: int = PUBLIC_EXPONENT,
    rng: RandomSource | None = None,
) -> RSAPrivateKey:
    """Generate an RSA keypair with a ``bits``-bit modulus.

    Three primes at :data:`THREE_PRIME_BITS` bits or more, two below.
    Every prime but the last has ``bits // count`` bits; the last is
    drawn from the range that makes the modulus exactly ``bits`` bits
    long, so a modulus of the wrong length never costs a redraw.  A prime
    ``r`` with ``gcd(e, r - 1) != 1`` (no inverse of ``e``) is redrawn on
    its own.
    """
    if bits < 64:
        raise ConfigurationError("RSA modulus must be at least 64 bits")
    rng = rng or SYSTEM_RANDOM
    count = 3 if bits >= THREE_PRIME_BITS else 2
    primes: list[int] = []
    while len(primes) < count - 1:
        prime = generate_prime(bits // count, rng)
        if prime not in primes and math.gcd(e, prime - 1) == 1:
            primes.append(prime)
    head = math.prod(primes)
    low = -(-(1 << (bits - 1)) // head)  # ceiling division
    high = ((1 << bits) - 1) // head
    while True:
        last = _prime_between(low, high, rng)
        if last not in primes and math.gcd(e, last - 1) == 1:
            break
    primes.append(last)
    phi = math.prod(prime - 1 for prime in primes)
    return RSAPrivateKey(
        n=head * last, e=e, d=pow(e, -1, phi), primes=tuple(primes)
    )


def fdh_sign(key: RSAPrivateKey, message: bytes) -> int:
    """Full-domain-hash RSA signature: ``H(message)^d mod n``."""
    return key.apply(hash_to_int(message, key.n))


def fdh_verify(key: RSAPublicKey, message: bytes, signature: int) -> bool:
    """Verify an FDH signature: ``signature^e mod n == H(message)``."""
    if not 0 <= signature < key.n:
        return False
    return key.apply(signature) == hash_to_int(message, key.n)
