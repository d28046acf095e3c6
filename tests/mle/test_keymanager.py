"""Tests for the key manager: signing, rate limiting, accounting."""

import os
import signal
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import blindrsa
from repro.crypto.drbg import HmacDrbg
from repro.mle.keymanager import DEFAULT_BURST, KeyManager
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.util.clock import SimClock
from repro.util.errors import ConfigurationError, KeyManagerError, RateLimitExceeded


@pytest.fixture()
def manager(rsa_512):
    return KeyManager(private_key=rsa_512, rate_limit=100, burst=100)


class TestSigning:
    def test_sign_batch_matches_direct(self, manager, rsa_512, rng):
        fps = [bytes([i]) * 32 for i in range(5)]
        blinded = []
        states = []
        for fp in fps:
            b, s = blindrsa.blind(manager.public_key, fp, rng)
            blinded.append(b)
            states.append(s)
        signatures = manager.sign_batch("alice", blinded)
        for fp, state, sig in zip(fps, states, signatures):
            unblinded = blindrsa.unblind(manager.public_key, state, sig)
            key = blindrsa.signature_to_key(unblinded, manager.public_key.byte_size)
            assert key == blindrsa.derive_mle_key_directly(rsa_512, fp)

    def test_empty_batch(self, manager):
        assert manager.sign_batch("alice", []) == []

    def test_oversized_batch_rejected(self, manager):
        with pytest.raises(ConfigurationError):
            manager.sign_batch("alice", [1] * 101)

    def test_generates_key_if_none_given(self):
        manager = KeyManager(key_bits=512, rng=HmacDrbg(b"km"))
        assert manager.public_key.bits == 512


class TestRateLimiting:
    def test_burst_then_reject(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(
            private_key=rsa_512, rate_limit=10, burst=20, clock=clock
        )
        manager.sign_batch("alice", [123] * 20)
        with pytest.raises(RateLimitExceeded):
            manager.sign_batch("alice", [123])

    def test_refill_allows_more(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=10, burst=20, clock=clock)
        manager.sign_batch("alice", [123] * 20)
        clock.advance(1.0)  # 10 tokens back
        assert len(manager.sign_batch("alice", [123] * 10)) == 10

    def test_limits_are_per_client(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=10, burst=10, clock=clock)
        manager.sign_batch("alice", [1] * 10)
        # Bob has his own bucket.
        assert len(manager.sign_batch("bob", [1] * 10)) == 10

    def test_backoff_hint(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=10, burst=10, clock=clock)
        manager.sign_batch("alice", [1] * 10)
        assert manager.seconds_until_allowed("alice", 5) == pytest.approx(0.5)

    def test_rejected_batch_is_all_or_nothing(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=10, burst=10, clock=clock)
        manager.sign_batch("alice", [1] * 8)
        with pytest.raises(RateLimitExceeded):
            manager.sign_batch("alice", [1] * 5)
        # The failed batch consumed nothing: 2 tokens remain usable.
        assert len(manager.sign_batch("alice", [1] * 2)) == 2


class TestAccounting:
    def test_stats(self, manager):
        manager.sign_batch("alice", [1, 2, 3])
        manager.sign_batch("bob", [4])
        assert manager.stats.signatures == 4
        assert manager.stats.batches == 2
        assert manager.stats.clients == 2
        assert manager.client_stats("alice")["requests"] == 3

    def test_rejections_counted(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=1, burst=2, clock=clock)
        manager.sign_batch("alice", [1, 2])
        with pytest.raises(RateLimitExceeded):
            manager.sign_batch("alice", [1])
        assert manager.stats.rejected == 1
        assert manager.client_stats("alice")["rejected"] == 1


class TestParallelSigning:
    """Every admitted batch of two values or more is signed on worker
    processes, however small; admission and results are those of the
    in-process path."""

    @pytest.fixture(scope="class")
    def signer(self, rsa_512):
        manager = KeyManager(private_key=rsa_512, rate_limit=1e9, burst=1e9)
        yield manager
        manager.close()

    @settings(max_examples=25)
    @given(
        count=st.one_of(st.integers(1, 192), st.sampled_from([1, 2, 3, 8, 63, 64])),
        seed=st.binary(min_size=1, max_size=8),
    )
    def test_parallel_equals_in_process(self, signer, rsa_512, count, seed):
        draw = HmacDrbg(seed)
        values = [draw.randint_below(rsa_512.n) for _ in range(count)]
        pool = signer._signers
        before = (pool.parallel_batches, pool.serial_batches)
        assert signer.sign_batch("alice", values) == [
            rsa_512.apply(value) for value in values
        ]
        # A single value has nothing to split and stays on the handler
        # thread; anything more goes to the workers.
        on_workers = count >= 2
        assert (pool.parallel_batches, pool.serial_batches) == (
            before[0] + on_workers,
            before[1] + (not on_workers),
        )
        if on_workers:
            assert isinstance(pool._executor, ProcessPoolExecutor)

    def test_three_prime_key_round_trips_through_the_signers(self, rsa_1024, rng):
        """blind_many -> signing on the workers -> unblind, with the
        three-prime key every 1024-bit key manager now holds."""
        assert len(rsa_1024.primes) == 3
        manager = KeyManager(private_key=rsa_1024)
        fps = [bytes([i]) * 32 for i in range(6)]
        blinded, states = blindrsa.blind_many(manager.public_key, fps, rng)
        signatures = manager.sign_batch("alice", blinded)
        assert manager._signers.parallel_batches == 1
        manager.close()
        keys = [
            blindrsa.signature_to_key(
                blindrsa.unblind(manager.public_key, state, signature),
                manager.public_key.byte_size,
            )
            for state, signature in zip(states, signatures)
        ]
        assert keys == [blindrsa.derive_mle_key_directly(rsa_1024, fp) for fp in fps]

    def test_one_worker_manager_signs_in_process(self, rsa_512, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        manager = KeyManager(private_key=rsa_512)
        assert manager.sign_batch("alice", [5] * 100) == [rsa_512.apply(5)] * 100
        assert manager._signers._executor is None
        assert manager._signers.serial_batches == 1

    def test_rejected_batches_reach_no_worker_and_cost_no_tokens(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=1, burst=8, clock=clock)
        with pytest.raises(ConfigurationError):
            manager.sign_batch("alice", [5] * 9)  # oversize
        # The oversize batch started no worker and took no token...
        assert manager._signers._executor is None
        assert manager.seconds_until_allowed("alice", 8) == 0
        # ...and once the burst is spent, a rate-limited batch neither
        # reaches a worker (reaped here, none restarts) nor charges
        # anything: two refilled tokens are still two tokens afterwards.
        assert len(manager.sign_batch("alice", [5] * 8)) == 8
        manager.close()
        clock.advance(2.0)
        with pytest.raises(RateLimitExceeded):
            manager.sign_batch("alice", [5] * 3)
        assert manager._signers._executor is None
        assert len(manager.sign_batch("alice", [5] * 2)) == 2
        assert manager._signers.parallel_batches == 2  # only admitted batches
        assert manager.stats.batches == 2
        assert manager.stats.rejected == 3
        manager.close()

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_out_of_domain_value_is_refused_before_signing(self, rsa_512, bad):
        manager = KeyManager(private_key=rsa_512)
        batch = [5, 6, rsa_512.n if bad == "n" else bad]
        with pytest.raises(KeyManagerError):
            manager.sign_batch("alice", batch)
        assert manager._signers._executor is None
        assert manager.stats.signatures == 0
        assert manager.seconds_until_allowed("alice", int(DEFAULT_BURST)) == 0

    def test_killed_worker_degrades_to_in_process_signing(self, rsa_512):
        manager = KeyManager(private_key=rsa_512)
        values = list(range(2, 10))
        expected = [rsa_512.apply(value) for value in values]
        assert manager.sign_batch("alice", values) == expected
        signers = list(manager._signers._executor._processes.values())
        os.kill(signers[0].pid, signal.SIGKILL)
        assert manager.sign_batch("alice", values) == expected
        manager.close()
        assert not any(signer.is_alive() for signer in signers)

    def test_sign_telemetry_lands_on_the_bound_registry(self, rsa_512):
        metrics = MetricsRegistry()
        manager = KeyManager(private_key=rsa_512)
        manager.observe_on(metrics, Tracer(metrics=metrics, node="key-manager"))
        manager.sign_batch("alice", [5] * 3)
        manager.close()
        assert metrics.value("km_sign_batches_total", mode="serial") == 0
        assert metrics.value("km_sign_batches_total", mode="parallel") == 1
        assert metrics.get("span_seconds").labels(span="km.sign").count == 1
