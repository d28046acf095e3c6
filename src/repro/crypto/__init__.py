"""Cryptographic substrate, built from scratch for the REED reproduction.

Layout:

* :mod:`repro.crypto.hashing` — SHA-256 fingerprints, HMAC, KDF, FDH hash.
* :mod:`repro.crypto.aes` — pure-Python AES (FIPS-197).
* :mod:`repro.crypto.modes` — CTR mode, deterministic MLE encryption.
* :mod:`repro.crypto.streamcipher` — SHAKE-256 fast keystream.
* :mod:`repro.crypto.cipher` — the :class:`SymmetricCipher` interface.
* :mod:`repro.crypto.drbg` — OS randomness + deterministic HMAC-DRBG.
* :mod:`repro.crypto.rsa` — RSA keygen / FDH signatures.
* :mod:`repro.crypto.blindrsa` — the DupLESS OPRF (blind RSA).
* :mod:`repro.crypto.shamir` — secret sharing for the access-tree ABE.
"""

from repro.crypto.cipher import (
    DEFAULT_CIPHER,
    AES256Cipher,
    Shake256Cipher,
    SymmetricCipher,
    available_ciphers,
    get_cipher,
)
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
    "AES256Cipher",
    "DEFAULT_CIPHER",
    "DEFAULT_KEY_BITS",
    "DIGEST_SIZE",
    "HmacDrbg",
    "RSAPrivateKey",
    "RSAPublicKey",
    "RandomSource",
    "SYSTEM_RANDOM",
    "Shake256Cipher",
    "SymmetricCipher",
    "available_ciphers",
    "fingerprint",
    "generate_keypair",
    "get_cipher",
    "hmac_sha256",
    "kdf",
    "sha256",
    "truncated_fingerprint",
]
