"""Tests for RSA key generation, raw operations, and FDH signatures."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import (
    PUBLIC_EXPONENT,
    RSAPrivateKey,
    RSAPublicKey,
    fdh_sign,
    fdh_verify,
    generate_keypair,
    generate_prime,
    is_probable_prime,
)
from repro.util.codec import Encoder
from repro.util.errors import ConfigurationError


def small_key(*primes: int) -> RSAPrivateKey:
    """A toy key over ``primes``, small enough to sweep its whole domain."""
    phi = math.prod(prime - 1 for prime in primes)
    return RSAPrivateKey(
        n=math.prod(primes),
        e=PUBLIC_EXPONENT,
        d=pow(PUBLIC_EXPONENT, -1, phi),
        primes=primes,
    )


SMALL_TWO_PRIME = small_key(251, 241)
SMALL_THREE_PRIME = small_key(43, 47, 53)


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 104729):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 100, 104730):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes that Miller-Rabin must still reject.
        for c in (561, 1105, 1729, 41041, 825265):
            assert not is_probable_prime(c)

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not is_probable_prime(2**128 - 1)


class TestPrimeGeneration:
    def test_exact_bit_length(self):
        rng = HmacDrbg(b"prime-test")
        for bits in (32, 64, 128):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_prime(4)


class TestKeypair:
    def test_structure(self, rsa_512, rsa_1024):
        for key, bits, count in ((rsa_512, 512, 2), (rsa_1024, 1024, 3)):
            assert len(key.primes) == len(set(key.primes)) == count
            assert key.n == math.prod(key.primes)
            assert key.n.bit_length() == bits
            assert key.e == 65537
            phi = math.prod(prime - 1 for prime in key.primes)
            assert (key.e * key.d) % phi == 1

    @pytest.mark.parametrize(
        "bits, count", [(512, 2), (1024, 3), (1536, 3), (2048, 3)]
    )
    def test_exact_bits_and_prime_count(self, bits, count):
        key = generate_keypair(bits, rng=HmacDrbg(b"bits-%d" % bits))
        assert key.n.bit_length() == bits
        assert len(set(key.primes)) == count
        assert key.n == math.prod(key.primes)
        assert all(is_probable_prime(prime) for prime in key.primes)
        # Every prime but the last is drawn at bits // count.
        assert {prime.bit_length() for prime in key.primes[:-1]} == {bits // count}
        x = 0xC0FFEE
        assert key.public.apply(key.apply(x)) == x

    def test_roundtrip_private_public(self, rsa_512):
        x = 123456789
        assert rsa_512.public.apply(rsa_512.apply(x)) == x
        assert rsa_512.apply(rsa_512.public.apply(x)) == x

    def test_crt_matches_plain_pow(self, rsa_512):
        x = 987654321
        assert rsa_512.apply(x) == pow(x, rsa_512.d, rsa_512.n)

    def test_out_of_range_rejected(self, rsa_512):
        with pytest.raises(ConfigurationError):
            rsa_512.apply(rsa_512.n)
        with pytest.raises(ConfigurationError):
            rsa_512.public.apply(-1)

    def test_deterministic_generation(self):
        a = generate_keypair(512, rng=HmacDrbg(b"same-seed"))
        b = generate_keypair(512, rng=HmacDrbg(b"same-seed"))
        assert a.n == b.n

    def test_min_bits(self):
        with pytest.raises(ConfigurationError):
            generate_keypair(32)


def _multiples_of_each_prime(key: RSAPrivateKey) -> list[int]:
    return [k * prime for prime in key.primes for k in (1, 2, key.n // prime - 1)]


class TestGarner:
    """The multi-prime CRT equals plain ``pow(x, d, n)`` for two and three
    primes: everywhere on toy keys, at the edges and at random on real ones."""

    @pytest.mark.parametrize(
        "key", [SMALL_TWO_PRIME, SMALL_THREE_PRIME], ids=["two-prime", "three-prime"]
    )
    def test_small_keys_match_pow_everywhere(self, key):
        for x in range(key.n):
            assert key.apply(x) == pow(x, key.d, key.n)
            assert key.public.apply(key.apply(x)) == x

    @pytest.mark.parametrize("fixture", ["rsa_512", "rsa_1024"])
    def test_edges_match_pow(self, fixture, request):
        key = request.getfixturevalue(fixture)
        for x in [0, 1, key.n - 1, *_multiples_of_each_prime(key)]:
            assert key.apply(x) == pow(x, key.d, key.n)
            assert key.public.apply(key.apply(x)) == x

    @given(x=st.integers(min_value=0, max_value=1 << 1100))
    def test_random_values_match_pow(self, rsa_512, rsa_1024, x):
        for key in (rsa_512, rsa_1024, SMALL_THREE_PRIME):
            value = x % key.n
            assert key.apply(value) == pow(value, key.d, key.n)
            assert key.public.apply(key.apply(value)) == value
            assert key.apply(key.public.apply(value)) == value


class TestEncoding:
    def test_public_roundtrip(self, rsa_512):
        pub = rsa_512.public
        assert RSAPublicKey.decode(pub.encode()) == pub

    def test_private_roundtrip(self, rsa_512, rsa_1024):
        for key in (rsa_512, rsa_1024):
            assert RSAPrivateKey.decode(key.encode()) == key

    def test_two_prime_blob_from_older_release(self, two_prime_blob):
        key = RSAPrivateKey.decode(two_prime_blob)
        assert len(key.primes) == 2
        assert key.encode() == two_prime_blob
        for x in (0, 1, 0xDEADBEEF, key.n - 1):
            assert key.apply(x) == pow(x, key.d, key.n)

    def test_three_prime_blob_appends_the_third_prime(self, rsa_1024):
        p, q, r = rsa_1024.primes
        fields = (rsa_1024.n, rsa_1024.e, rsa_1024.d, p, q, r)
        enc = Encoder()
        for field in fields:
            enc.bigint(field)
        assert rsa_1024.encode() == enc.done()

    @pytest.mark.parametrize(
        "n, primes",
        [
            (1009 * 1009, (1009, 1009)),  # the product matches, but repeats
            (1009 * 1013, (1009, 1013, 3)),
            (1009 * 1013, (1009, 1019)),
        ],
        ids=["repeated", "extra-prime", "wrong-prime"],
    )
    def test_inconsistent_blob_refused(self, n, primes):
        enc = Encoder().bigint(n).bigint(PUBLIC_EXPONENT).bigint(5)
        for prime in primes:
            enc.bigint(prime)
        with pytest.raises(ConfigurationError, match="inconsistent"):
            RSAPrivateKey.decode(enc.done())

    def test_fingerprint_stable(self, rsa_512):
        assert rsa_512.public.fingerprint() == rsa_512.public.fingerprint()

    def test_byte_size(self, rsa_512):
        assert rsa_512.public.byte_size == 64


class TestFdhSignatures:
    def test_sign_verify(self, rsa_512):
        sig = fdh_sign(rsa_512, b"message")
        assert fdh_verify(rsa_512.public, b"message", sig)

    def test_wrong_message_fails(self, rsa_512):
        sig = fdh_sign(rsa_512, b"message")
        assert not fdh_verify(rsa_512.public, b"other", sig)

    def test_tampered_signature_fails(self, rsa_512):
        sig = fdh_sign(rsa_512, b"message")
        assert not fdh_verify(rsa_512.public, b"message", sig + 1)

    def test_out_of_range_signature_fails(self, rsa_512):
        assert not fdh_verify(rsa_512.public, b"message", rsa_512.n + 5)

    def test_signatures_deterministic(self, rsa_512):
        assert fdh_sign(rsa_512, b"m") == fdh_sign(rsa_512, b"m")
