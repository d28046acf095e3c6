"""Shared fixtures: deterministic randomness, cached RSA keys, systems.

RSA key generation is the only genuinely slow primitive, so session-scoped
keypairs are shared by every test that does not specifically exercise key
generation.  All randomness flows through seeded HMAC-DRBGs so failures
replay deterministically.
"""

from __future__ import annotations

import threading

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


#: Thread-name prefixes of the client's upload, restore and rekey stages.
PIPELINE_THREADS = ("reed-upload-", "reed-download", "reed-rekey-")


@pytest.fixture(autouse=True)
def no_pipeline_thread_leaks():
    """Fail a test that leaves a client pipeline thread running."""
    before = set(threading.enumerate())
    yield
    leaked = sorted(
        thread.name
        for thread in set(threading.enumerate()) - before
        if thread.name.startswith(PIPELINE_THREADS)
    )
    if leaked:
        pytest.fail(f"pipeline threads left running: {', '.join(leaked)}")


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


@pytest.fixture(scope="session")
def two_prime_blob():
    """A 1024-bit two-prime private key exactly as ``encode()`` wrote it
    before keys could hold more than two primes (``n, e, d, p, q``).  Org
    directories hold such blobs; they must keep decoding and signing."""
    return bytes.fromhex(
        "80019c4dbec625e7b71ae3ba9f53819d5dfbc62d70db55237e6635a142a332163a9e37"
        "96bd7a7a2ec9152306b0966a22e96c9f63d6c87671de41762ef9310369dea7c7c0260d"
        "a9af84ebb4ee9b7137c44f9e5cec383bd957131bcfc09cb4eafba04252980197db6170"
        "129cb8521c57b4b59aeaee914957882b4f105edaea4e9e5c530301000180017f198944"
        "3f968902c8a3fce33ec6e4a1d3a927d8730705c5bf5e7e7d8e411d31832a84b18fa173"
        "ca484d2c5363c337e528475b646f4c70daf26b881f1f137c05cc13719bd627db264131"
        "dc5a74cd965f00c07f747a63ddeadaf4e48556eae1482617b8afd3b75fdcbca269b2c1"
        "c66d6964644eec69c08d7c2243303e9b795ea1409cc3e6b084f7a30d1529ff82a3fc99"
        "7abf2889e790648b7b92e449c426ef75724aaebf0dba61298622d4b877be847a67beee"
        "ea9b256d95a874304ac66029435540ff3f0cb297dafb4cccf5fbe3bc08fd0a0ba334f1"
        "af3a01f928f974ce3d45f2098b48b4c63641af627851496a48a246899c6ab356f009d5"
        "35dbba91e645b17107"
    )


@pytest.fixture()
def system():
    """A small in-process REED deployment (one data server)."""
    return build_system(num_data_servers=1, rng=HmacDrbg(b"system-fixture"))


@pytest.fixture()
def cluster():
    """The paper's topology: four data servers plus a key store."""
    return build_system(num_data_servers=4, rng=HmacDrbg(b"cluster-fixture"))
