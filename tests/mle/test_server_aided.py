"""Tests for the server-aided MLE key client (batching, caching, retry)."""

import sys
import threading

import pytest

from repro.crypto import blindrsa
from repro.crypto.drbg import HmacDrbg
from repro.mle.cache import MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import (
    LocalKeyManagerChannel,
    ServerAidedKeyClient,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.util.clock import SimClock
from repro.util.errors import ConfigurationError, KeyManagerError, RateLimitExceeded


@pytest.fixture()
def metrics():
    """The test's own registry: the manager's and the clients' series."""
    return MetricsRegistry()


def observed(manager, metrics):
    manager.observe_on(metrics, Tracer(metrics))
    return manager


@pytest.fixture()
def manager(rsa_512, metrics):
    return observed(
        KeyManager(private_key=rsa_512, rate_limit=10_000, burst=16_384), metrics
    )


def make_client(manager, **kwargs):
    kwargs.setdefault("rng", HmacDrbg(b"client"))
    return ServerAidedKeyClient(
        LocalKeyManagerChannel(manager), client_id="alice", **kwargs
    )


def counts(metrics) -> tuple[int, int, int]:
    """The client's (round trips, OPRF evaluations, cache hits)."""
    return tuple(
        int(metrics.value(f"key_{name}_total", client="alice"))
        for name in ("round_trips", "oprf_evaluations", "cache_hits")
    )


class TestCorrectness:
    def test_keys_match_direct_oprf(self, manager, rsa_512):
        client = make_client(manager)
        fps = [bytes([i]) * 32 for i in range(10)]
        keys = client.derive_keys(fps)
        for fp, key in zip(fps, keys):
            assert key == blindrsa.derive_mle_key_directly(rsa_512, fp)

    def test_order_preserved(self, manager):
        client = make_client(manager)
        fps = [bytes([i]) * 32 for i in range(7)]
        keys = client.derive_keys(list(reversed(fps)))
        assert keys == list(reversed(client.derive_keys(fps)))

    def test_single_key(self, manager, rsa_512):
        client = make_client(manager)
        fp = b"\x09" * 32
        assert client.derive_keys([fp]) == [
            blindrsa.derive_mle_key_directly(rsa_512, fp)
        ]

    def test_empty_request(self, manager):
        assert make_client(manager).derive_keys([]) == []


class TestBatching:
    def test_requests_split_into_batches(self, manager, metrics):
        client = make_client(manager, batch_size=4)
        client.derive_keys([bytes([i]) * 32 for i in range(10)])
        assert metrics.value("km_sign_batches_total") == 3  # 4 + 4 + 2
        assert metrics.value("km_signatures_total") == 10

    def test_duplicates_within_call_deduplicated(self, manager, metrics):
        client = make_client(manager)
        fp = b"\x01" * 32
        keys = client.derive_keys([fp, fp, fp])
        assert keys[0] == keys[1] == keys[2]
        assert metrics.value("km_signatures_total") == 1

    def test_bad_batch_size(self, manager):
        with pytest.raises(ConfigurationError):
            make_client(manager, batch_size=0)


class TestCaching:
    def test_cache_hit_skips_key_manager(self, manager, metrics):
        client = make_client(manager, cache=MLEKeyCache(1 << 20), metrics=metrics)
        fps = [bytes([i]) * 32 for i in range(5)]
        client.derive_keys(fps)
        before = metrics.value("km_signatures_total")
        client.derive_keys(fps)
        assert metrics.value("km_signatures_total") == before
        assert counts(metrics)[2] == 5

    def test_clear_cache_forces_regeneration(self, manager, metrics):
        client = make_client(manager, cache=MLEKeyCache(1 << 20))
        fps = [bytes([i]) * 32 for i in range(3)]
        client.derive_keys(fps)
        client.clear_cache()
        client.derive_keys(fps)
        assert metrics.value("km_signatures_total") == 6

    def test_no_cache_configured(self, manager, metrics):
        client = make_client(manager, cache=None)
        fp = b"\x02" * 32
        client.derive_keys([fp])
        client.derive_keys([fp])
        assert metrics.value("km_signatures_total") == 2


class TestBlindFinish:
    """``derive_keys`` split in two, as the upload pipeline calls it."""

    def test_awaited_key_is_a_cache_hit_in_finish(self, manager, metrics, rsa_512):
        """Window 2 is blinded before window 1 is finished; a fingerprint
        window 1 is deriving is looked up in finish, not blinded again."""
        client = make_client(manager, cache=MLEKeyCache(1 << 20), metrics=metrics)
        fps = [bytes([i]) * 32 for i in range(6)]
        first = client.blind(fps[:4])
        second = client.blind(fps[2:], awaited=set(fps[2:4]))
        assert [len(batch) for batch, _, _ in second.batches] == [2]
        assert metrics.value("km_sign_batches_total") == 0  # blinding sends nothing
        keys = client.finish(first) + client.finish(second)
        assert keys == [
            blindrsa.derive_mle_key_directly(rsa_512, fp) for fp in fps[:4] + fps[2:]
        ]
        assert counts(metrics) == (2, 6, 2)

    def test_awaited_key_gone_from_the_cache_is_evaluated(self, manager, metrics, rsa_512):
        client = make_client(manager, cache=MLEKeyCache(1 << 20), metrics=metrics)
        fps = [bytes([i]) * 32 for i in range(3)]
        pending = client.blind(fps, awaited={fps[0]})
        assert pending.deferred == [fps[0]]
        keys = client.finish(pending)
        assert keys == [blindrsa.derive_mle_key_directly(rsa_512, fp) for fp in fps]
        assert counts(metrics)[:2] == (2, 3)

    def test_counters_lose_no_update_across_threads(self, manager, metrics):
        """The key and derive stages of an upload, and concurrent uploads,
        bump one client's counters from several threads."""
        client = make_client(manager, cache=MLEKeyCache(1 << 20), metrics=metrics)
        threads, rounds = 4, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def derive(worker):
            for i in range(rounds):
                fp = bytes([worker]) + i.to_bytes(2, "big") + bytes(29)
                client.finish(client.blind([fp, fp]))
                client.derive_keys([fp])

        try:
            workers = [
                threading.Thread(target=derive, args=(w,)) for w in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads * rounds
        assert counts(metrics) == (total, total, total)

    def test_awaited_is_ignored_without_a_cache(self, manager, metrics):
        client = make_client(manager, cache=None, metrics=metrics)
        fp = b"\x04" * 32
        pending = client.blind([fp], awaited={fp})
        assert pending.deferred == []
        client.finish(pending)
        assert counts(metrics)[0] == 1


class TestDeriveKeys:
    """The whole-file ``derive_keys`` path of the batched upload protocol."""

    def test_bit_identical_across_batch_sizes(self, manager, rsa_512):
        fps = [bytes([i]) * 32 for i in range(17)]
        batched = make_client(manager).derive_keys(fps)
        reference = make_client(manager, batch_size=1).derive_keys(fps)
        assert batched == reference
        for fp, key in zip(fps, batched):
            assert key == blindrsa.derive_mle_key_directly(rsa_512, fp)

    def test_one_round_trip_per_file(self, manager, metrics):
        client = make_client(manager, metrics=metrics)
        client.derive_keys([bytes([i]) * 32 for i in range(50)])
        assert counts(metrics)[0] == 1
        assert metrics.value("km_sign_batches_total") == 1
        assert metrics.value("km_signatures_total") == 50

    def test_round_trips_bounded_by_batch_size(self, manager, metrics):
        client = make_client(manager, batch_size=8, metrics=metrics)
        count = 50
        client.derive_keys([bytes([i]) * 32 for i in range(count)])
        assert counts(metrics)[0] == -(-count // 8)  # ceil(50/8) == 7

    def test_cache_consulted_before_the_wire(self, manager, metrics):
        client = make_client(manager, cache=MLEKeyCache(1 << 20), metrics=metrics)
        fps = [bytes([i]) * 32 for i in range(5)]
        client.derive_keys(fps)
        assert counts(metrics)[0] == 1
        client.derive_keys(fps)  # fully warm: nothing crosses the wire
        assert counts(metrics)[0] == 1
        assert counts(metrics)[2] == 5

    def test_rate_limiter_charged_per_fingerprint(self, rsa_512, metrics):
        # A frozen clock: no wall-clock stall can refill a token mid-test.
        manager = observed(
            KeyManager(private_key=rsa_512, rate_limit=10, burst=10, clock=SimClock()),
            metrics,
        )
        client = make_client(manager, max_retries=0, metrics=metrics)
        client.derive_keys([bytes([i]) * 32 for i in range(10)])  # drains bucket
        with pytest.raises(RateLimitExceeded):
            client.derive_keys([b"\xee" * 32])
        assert metrics.value("km_signatures_total", client="alice") == 10
        assert metrics.value("km_rejected_total", client="alice") == 1
        assert metrics.value("key_rate_limited_total", client="alice") == 1


class TestRateLimitBackoff:
    def test_retry_after_backoff(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=10, burst=10, clock=clock)
        client = ServerAidedKeyClient(
            LocalKeyManagerChannel(manager),
            client_id="alice",
            rng=HmacDrbg(b"c"),
            sleep=clock.sleep,
            batch_size=10,
        )
        client.derive_keys([bytes([i]) * 32 for i in range(10)])  # drains bucket
        # The next batch must back off (via the injected sleeping clock)
        # and then succeed.
        keys = client.derive_keys([bytes([i + 50]) * 32 for i in range(10)])
        assert len(keys) == 10

    def test_retries_bounded(self, rsa_512):
        clock = SimClock()
        manager = KeyManager(private_key=rsa_512, rate_limit=10, burst=10, clock=clock)

        def frozen_sleep(_seconds: float) -> None:
            pass  # clock never advances -> bucket never refills

        client = ServerAidedKeyClient(
            LocalKeyManagerChannel(manager),
            client_id="alice",
            rng=HmacDrbg(b"c"),
            sleep=frozen_sleep,
            batch_size=10,
            max_retries=2,
        )
        client.derive_keys([bytes([i]) * 32 for i in range(10)])
        with pytest.raises(RateLimitExceeded):
            client.derive_keys([b"\xff" * 32])


class TestRobustness:
    def test_short_response_detected(self, manager):
        client = make_client(manager)

        class TruncatingChannel(LocalKeyManagerChannel):
            def derive_batch(self, client_id, blinded_values):
                return super().derive_batch(client_id, blinded_values)[:-1]

        client._channel = TruncatingChannel(manager)
        with pytest.raises(KeyManagerError):
            client.derive_keys([b"\x01" * 32, b"\x02" * 32])

    def test_corrupted_signature_detected(self, manager):
        class CorruptingChannel(LocalKeyManagerChannel):
            def derive_batch(self, client_id, blinded_values):
                out = super().derive_batch(client_id, blinded_values)
                return [value ^ 1 for value in out]

        client = ServerAidedKeyClient(
            CorruptingChannel(manager), client_id="alice", rng=HmacDrbg(b"c")
        )
        with pytest.raises(KeyManagerError):
            client.derive_keys([b"\x01" * 32])


class TestStats:
    def test_round_trips_counted(self, manager, metrics):
        client = make_client(manager, batch_size=4, metrics=metrics)
        client.derive_keys([bytes([i]) * 32 for i in range(10)])
        assert counts(metrics)[0] == 3  # 4 + 4 + 2

    def test_stats_snapshot(self, manager, metrics):
        client = make_client(manager, cache=MLEKeyCache(1 << 20), metrics=metrics)
        fps = [bytes([i]) * 32 for i in range(5)]
        client.derive_keys(fps)
        client.derive_keys(fps)
        assert counts(metrics) == (1, 5, 5)
        assert len(client.cache) == 5

    def test_stats_without_cache(self, manager, metrics):
        client = make_client(manager, cache=None, metrics=metrics)
        client.derive_keys([b"\x07" * 32])
        assert client.cache is None
        assert counts(metrics)[0] == 1
