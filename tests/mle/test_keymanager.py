"""Tests for the key manager: signing, rate limiting, accounting."""

import os
import sys
import threading

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
        metrics = _observed(manager)
        manager.sign_batch("alice", [1, 2, 3])
        manager.sign_batch("bob", [4])
        assert metrics.value("km_signatures_total") == 4
        assert metrics.value("km_sign_batches_total") == 2
        assert metrics.value("km_clients") == 2
        assert metrics.value("km_signatures_total", client="alice") == 3

    def test_rejections_counted(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=1, burst=2, clock=clock)
        metrics = _observed(manager)
        manager.sign_batch("alice", [1, 2])
        with pytest.raises(RateLimitExceeded):
            manager.sign_batch("alice", [1])
        assert metrics.value("km_rejected_total") == 1
        assert metrics.value("km_rejected_total", client="alice") == 1

    def test_rebinding_carries_the_client_count(self, manager):
        manager.sign_batch("alice", [1])
        metrics = _observed(manager)
        assert metrics.value("km_clients") == 1
        assert metrics.value("km_signatures_total") == 0  # counted where bound


def _observed(manager: KeyManager) -> MetricsRegistry:
    """Bind ``manager``'s telemetry to a fresh registry and return it."""
    metrics = MetricsRegistry()
    manager.observe_on(metrics, Tracer(metrics=metrics, node="key-manager"))
    return metrics


def _modes(metrics: MetricsRegistry) -> tuple[float, float]:
    """(serial, parallel) admitted batches, as the mode counter reads."""
    return tuple(
        metrics.value("km_sign_batches_total", mode=mode)
        for mode in ("serial", "parallel")
    )


class TestParallelSigning:
    """Every admitted batch of two values or more is split over the
    signer threads, however small; admission and results are those of
    signing on the handler thread.  ``os.cpu_count`` reads 2 here, so
    the split happens on any host."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    @pytest.fixture(scope="class")
    def signer(self, rsa_512):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "cpu_count", lambda: 2)
            manager = KeyManager(private_key=rsa_512, rate_limit=1e9, burst=1e9)
        return manager, _observed(manager)

    @settings(max_examples=25)
    @given(
        count=st.one_of(st.integers(1, 192), st.sampled_from([1, 2, 3, 8, 63, 64])),
        seed=st.binary(min_size=1, max_size=8),
    )
    def test_parallel_equals_in_process(self, signer, rsa_512, count, seed):
        manager, metrics = signer
        draw = HmacDrbg(seed)
        values = [draw.randint_below(rsa_512.n) for _ in range(count)]
        before = _modes(metrics)
        assert manager.sign_batch("alice", values) == [
            rsa_512.apply(value) for value in values
        ]
        # A single value has nothing to split and stays on the handler
        # thread; anything more goes to the signer threads.
        on_threads = count >= 2
        assert _modes(metrics) == (
            before[0] + (not on_threads),
            before[1] + on_threads,
        )

    def test_three_prime_key_round_trips_through_the_signers(self, rsa_1024, rng):
        """blind_many -> signing on the signer threads -> unblind, with
        the three-prime key every 1024-bit key manager now holds."""
        assert len(rsa_1024.primes) == 3
        manager = KeyManager(private_key=rsa_1024)
        metrics = _observed(manager)
        fps = [bytes([i]) * 32 for i in range(6)]
        blinded, states = blindrsa.blind_many(manager.public_key, fps, rng)
        signatures = manager.sign_batch("alice", blinded)
        assert _modes(metrics) == (0, 1)
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
        metrics = _observed(manager)
        assert manager.sign_batch("alice", [5] * 100) == [rsa_512.apply(5)] * 100
        assert _modes(metrics) == (1, 0)

    def test_concurrent_callers_get_the_serial_signatures(self, rsa_512):
        """Four handler threads share one manager's signer threads; each
        gets its own batch's signatures, in order, and no update to the
        accounting is lost."""
        manager = KeyManager(private_key=rsa_512, rate_limit=1e9, burst=1e9)
        metrics = _observed(manager)
        batches = [
            [pow(7 + caller, index + 3, rsa_512.n) for index in range(40)]
            for caller in range(4)
        ]
        expected = [[rsa_512.apply(value) for value in batch] for batch in batches]
        barrier = threading.Barrier(len(batches))
        results = {}

        def call(caller: int) -> None:
            barrier.wait()
            for _ in range(5):
                got = manager.sign_batch(f"client{caller}", batches[caller])
                results.setdefault(caller, []).append(got)

        threads = [
            threading.Thread(target=call, args=(caller,)) for caller in range(4)
        ]
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
        assert results == {caller: [expected[caller]] * 5 for caller in range(4)}
        assert _modes(metrics) == (0, 20)
        assert metrics.value("km_signatures_total") == 20 * 40

    def test_rejected_batches_reach_no_worker_and_cost_no_tokens(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=1, burst=8, clock=clock)
        metrics = _observed(manager)
        with pytest.raises(ConfigurationError):
            manager.sign_batch("alice", [5] * 9)  # oversize
        # The oversize batch reached no signer and took no token...
        assert _modes(metrics) == (0, 0)
        assert manager.seconds_until_allowed("alice", 8) == 0
        # ...and once the burst is spent, a rate-limited batch neither
        # reaches a signer nor charges anything: two refilled tokens are
        # still two tokens afterwards.
        assert len(manager.sign_batch("alice", [5] * 8)) == 8
        clock.advance(2.0)
        with pytest.raises(RateLimitExceeded):
            manager.sign_batch("alice", [5] * 3)
        assert _modes(metrics) == (0, 1)
        assert len(manager.sign_batch("alice", [5] * 2)) == 2
        assert _modes(metrics) == (0, 2)  # only admitted batches
        assert metrics.value("km_rejected_total", client="alice") == 3

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_out_of_domain_value_is_refused_before_signing(self, rsa_512, bad):
        manager = KeyManager(private_key=rsa_512)
        metrics = _observed(manager)
        batch = [5, 6, rsa_512.n if bad == "n" else bad]
        with pytest.raises(KeyManagerError):
            manager.sign_batch("alice", batch)
        assert _modes(metrics) == (0, 0)
        assert metrics.value("km_signatures_total") == 0
        assert manager.seconds_until_allowed("alice", int(DEFAULT_BURST)) == 0

    def test_sign_telemetry_lands_on_the_bound_registry(self, rsa_512):
        manager = KeyManager(private_key=rsa_512)
        metrics = _observed(manager)
        manager.sign_batch("alice", [5] * 3)
        assert metrics.value("km_sign_batches_total", mode="serial") == 0
        assert metrics.value("km_sign_batches_total", mode="parallel") == 1
        assert metrics.get("span_seconds").labels(span="km.sign").count == 1
