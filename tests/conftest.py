"""Shared fixtures: deterministic randomness, cached RSA keys, systems.

RSA key generation is the only genuinely slow primitive, so session-scoped
keypairs are shared by every test that does not specifically exercise key
generation.  All randomness flows through seeded HMAC-DRBGs so failures
replay deterministically.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture()
def rng():
    """Fresh deterministic DRBG per test."""
    return HmacDrbg(b"repro-test-seed")


@pytest.fixture(scope="session")
def rsa_512():
    """A session-wide 512-bit RSA keypair for protocol tests."""
    return generate_keypair(512, rng=HmacDrbg(b"rsa-512-fixture"))


@pytest.fixture(scope="session")
def rsa_1024():
    """A session-wide 1024-bit keypair (the paper's key-manager size)."""
    return generate_keypair(1024, rng=HmacDrbg(b"rsa-1024-fixture"))


@pytest.fixture()
def system():
    """A small in-process REED deployment (one data server)."""
    built = build_system(num_data_servers=1, rng=HmacDrbg(b"system-fixture"))
    yield built
    built.close()


@pytest.fixture()
def cluster():
    """The paper's topology: four data servers plus a key store."""
    built = build_system(num_data_servers=4, rng=HmacDrbg(b"cluster-fixture"))
    yield built
    built.close()
