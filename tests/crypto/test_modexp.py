"""The modular-exponentiation kernel against ``pow``, its reference.

Every RSA operation runs on :class:`~repro.crypto.modexp.ModExp`, so
these tests pin it to ``pow`` at the key sizes REED uses, at the edges
of the domain, across threads and across the pickling that carries a
key into worker processes — and run the RSA, OPRF and key-regression
suites once more with ``libcrypto`` unloadable, so the ``pow`` leg that
such hosts run stays tested too.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parallel import RekeyPool
from repro.crypto import modexp
from repro.crypto.drbg import HmacDrbg
from repro.crypto.modexp import EvenModulusError, ModExp
from repro.crypto.rsa import PUBLIC_EXPONENT, RSAPrivateKey, RSAPublicKey, generate_prime
from repro.keyreg.rsa_keyreg import KeyRegressionOwner, KeyState
from repro.mle.keymanager import KeyManager
from repro.util import spanpool
from repro.util.errors import ConfigurationError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SIZES = [(bits, count) for bits in (512, 1024, 2048) for count in (2, 3)]


@functools.cache
def key(bits: int, count: int) -> RSAPrivateKey:
    """A ``bits``-bit key over ``count`` primes (the modulus may come out
    a bit short of ``bits``; the kernel does not care)."""
    rng = HmacDrbg(f"modexp/{bits}/{count}".encode())
    primes: list[int] = []
    while len(primes) < count:
        prime = generate_prime(bits // count, rng)
        if prime not in primes and math.gcd(PUBLIC_EXPONENT, prime - 1) == 1:
            primes.append(prime)
    phi = math.prod(prime - 1 for prime in primes)
    return RSAPrivateKey(
        n=math.prod(primes),
        e=PUBLIC_EXPONENT,
        d=pow(PUBLIC_EXPONENT, -1, phi),
        primes=tuple(primes),
    )


def inputs(modulus: int, above: bool = True):
    """0, 1, modulus - 1, anything in the domain and, with ``above``,
    values at or above the modulus (reduced first, as ``pow`` does)."""
    domain = st.one_of(
        st.sampled_from([0, 1, modulus - 1]),
        st.integers(min_value=0, max_value=modulus - 1),
    )
    if not above:
        return domain
    return st.one_of(
        domain,
        st.sampled_from([modulus, modulus + 1]),
        st.integers(min_value=modulus, max_value=4 * modulus),
    )


@given(size=st.sampled_from(SIZES), data=st.data())
def test_private_powers_match_pow(size, data):
    private = key(*size)
    for prime in private.primes:
        exponent = private.d % (prime - 1)
        x = data.draw(inputs(prime))
        assert ModExp(exponent, prime, secret=True)(x) == pow(x, exponent, prime)
    x = data.draw(inputs(private.n, above=False))
    assert private.apply(x) == pow(x, private.d, private.n)


@given(size=st.sampled_from(SIZES), data=st.data())
def test_public_power_matches_pow(size, data):
    private = key(*size)
    x = data.draw(inputs(private.n))
    assert ModExp(private.e, private.n)(x) == pow(x, private.e, private.n)
    if x < private.n:
        assert private.public.apply(x) == pow(x, private.e, private.n)


def test_exponent_zero_and_one():
    prime = key(512, 2).primes[0]
    assert ModExp(0, prime, secret=True)(12345) == 1
    assert ModExp(1, prime)(prime + 7) == 7


def test_even_modulus_is_refused_by_name():
    with pytest.raises(EvenModulusError):
        ModExp(PUBLIC_EXPONENT, 1 << 64)
    with pytest.raises(EvenModulusError):
        RSAPublicKey(n=2 * key(512, 2).n, e=PUBLIC_EXPONENT).apply(3)
    # It is a configuration error like every other refused parameter.
    assert issubclass(EvenModulusError, ConfigurationError)


def test_degenerate_parameters_are_refused():
    with pytest.raises(ConfigurationError):
        ModExp(3, 1)
    with pytest.raises(ConfigurationError):
        ModExp(-1, 101)


def test_engine_is_named():
    assert modexp.engine() in ("libcrypto", "pow")


def test_four_threads_share_one_key():
    private = key(1024, 3)
    values = [pow(7, index + 3, private.n) for index in range(4 * 25)]
    expected = [pow(value, private.d, private.n) for value in values]
    results: dict[int, int] = {}
    failures: list[BaseException] = []
    start = threading.Barrier(4)

    def work(offset: int) -> None:
        try:
            start.wait()
            for index in range(offset, len(values), 4):
                signature = private.apply(values[index])
                assert private.public.apply(signature) == values[index]
                results[index] = signature
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over as often as it can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert [results[index] for index in range(len(values))] == expected


@pytest.fixture()
def spawned_workers(monkeypatch):
    """Worker pools of two processes that receive their start-up state by
    pickling (``spawn``) instead of inheriting it (``fork``)."""
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
    monkeypatch.setattr(spanpool, "default_worker_count", lambda cap=8: 2)


def test_warm_key_pickles_into_signers_and_winders(spawned_workers):
    private = key(1024, 3)
    values = [pow(11, index + 5, private.n) for index in range(6)]
    private.apply(values[0])  # the engines exist before the key travels
    private.public.apply(values[0])
    copy = pickle.loads(pickle.dumps(private))
    assert copy == private and copy.apply(values[1]) == private.apply(values[1])

    manager = KeyManager(private_key=private, rate_limit=100, burst=100)
    try:
        assert manager.sign_batch("alice", values) == [
            pow(value, private.d, private.n) for value in values
        ]
        assert manager._signers.parallel_batches == 1
    finally:
        manager.close()

    states = [KeyState(version=index, value=value) for index, value in enumerate(values)]
    with RekeyPool(workers=2, owner=KeyRegressionOwner(private)) as pool:
        wound, on_workers = pool.wind(states)
    assert on_workers
    assert wound == [
        KeyState(version=state.version + 1, value=pow(state.value, private.d, private.n))
        for state in states
    ]


def test_suites_pass_without_libcrypto():
    """tests/crypto, tests/mle and tests/keyreg on the ``pow`` engine."""
    this_test = "tests/crypto/test_modexp.py::test_suites_pass_without_libcrypto"
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-o", "addopts=",
            "-p", "tests.crypto.libcrypto_absent",
            "--deselect", this_test,
            "tests/crypto", "tests/mle", "tests/keyreg",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-4000:]
    assert " passed" in completed.stdout and "modexp engine: pow" in completed.stdout
