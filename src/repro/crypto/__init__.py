"""Cryptographic substrate, built from scratch for the REED reproduction.

Layout:

* :mod:`repro.crypto.hashing` — SHA-256 fingerprints, HMAC, KDF, FDH hash.
* :mod:`repro.crypto.streamcipher` — the SHAKE-256 keystream.
* :mod:`repro.crypto.cipher` — ``E(.)``: the SHAKE-256 cipher every
  construction uses, with its key and nonce checks.
* :mod:`repro.crypto.drbg` — OS randomness + deterministic HMAC-DRBG.
* :mod:`repro.crypto.modexp` — modular exponentiation on OpenSSL's
  Montgomery kernel (``pow`` where ``libcrypto`` cannot be loaded).
* :mod:`repro.crypto.rsa` — RSA keygen / FDH signatures.
* :mod:`repro.crypto.blindrsa` — the DupLESS OPRF (blind RSA).
* :mod:`repro.crypto.shamir` — secret sharing for the access-tree ABE.
"""

from repro.crypto.drbg import SYSTEM_RANDOM, HmacDrbg, RandomSource
from repro.crypto.hashing import (
    DIGEST_SIZE,
    fingerprint,
    hmac_sha256,
    kdf,
    sha256,
    truncated_fingerprint,
)
from repro.crypto.rsa import (
    DEFAULT_KEY_BITS,
    RSAPrivateKey,
    RSAPublicKey,
    generate_keypair,
)

__all__ = [
    "DEFAULT_KEY_BITS",
    "DIGEST_SIZE",
    "HmacDrbg",
    "RSAPrivateKey",
    "RSAPublicKey",
    "RandomSource",
    "SYSTEM_RANDOM",
    "fingerprint",
    "generate_keypair",
    "hmac_sha256",
    "kdf",
    "sha256",
    "truncated_fingerprint",
]
