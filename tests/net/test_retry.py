"""Tests for the RPC retry policy, with injected transport faults."""

import pytest

from repro.core.server import REEDServer
from repro.core.service import (
    register_key_manager,
    register_keystate_service,
    register_storage_service,
)
from repro.mle.keymanager import KeyManager
from repro.net.retry import (
    IDEMPOTENT_METHOD_SUFFIXES,
    RetryPolicy,
    is_idempotent_method,
)
from repro.net.rpc import LoopbackTransport, ServiceRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import register_traces
from repro.obs.rpc import register_metrics
from repro.obs.tracing import Tracer
from repro.storage.keystore import KeyStore
from repro.util.errors import (
    ConfigurationError,
    IntegrityError,
    NotFoundError,
    ProtocolError,
    RateLimitExceeded,
)


class FlakyTransport:
    """Wraps a loopback client; fails the first ``failures`` calls."""

    def __init__(self, failures: int):
        registry = ServiceRegistry()
        registry.register("echo", lambda p: p)

        def missing(_p):
            raise NotFoundError("semantically gone")

        registry.register("missing", missing)
        self._inner = LoopbackTransport(registry).client()
        self.remaining_failures = failures
        self.calls = 0

    def call(self, method, payload=b""):
        self.calls += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise ProtocolError("injected transport fault")
        return self._inner.call(method, payload)


def no_sleep(_seconds):
    pass


class Retrying:
    """An RPC client whose calls run through ``policy.run`` — only the
    idempotent ones when ``idempotent_only``, as the TCP transport does."""

    def __init__(self, client, policy, idempotent_only=False):
        self._client = client
        self._policy = policy
        self._idempotent_only = idempotent_only

    def call(self, method, payload=b""):
        if self._idempotent_only and not is_idempotent_method(method):
            return self._client.call(method, payload)
        return self._policy.run(lambda: self._client.call(method, payload))


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        flaky = FlakyTransport(failures=2)
        client = Retrying(
            flaky, RetryPolicy(attempts=4, sleep=no_sleep)
        )
        assert client.call("echo", b"hello") == b"hello"
        assert flaky.calls == 3

    def test_gives_up_after_budget(self):
        flaky = FlakyTransport(failures=10)
        client = Retrying(
            flaky, RetryPolicy(attempts=3, sleep=no_sleep)
        )
        with pytest.raises(ProtocolError, match="after 3 attempts"):
            client.call("echo", b"x")
        assert flaky.calls == 3

    def test_semantic_errors_not_retried(self):
        flaky = FlakyTransport(failures=0)
        client = Retrying(
            flaky, RetryPolicy(attempts=5, sleep=no_sleep)
        )
        with pytest.raises(NotFoundError):
            client.call("missing")
        assert flaky.calls == 1

    def test_backoff_schedule(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, cap=0.5, sleep=no_sleep)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.5)  # capped

    def test_sleeps_between_attempts(self):
        slept = []
        flaky = FlakyTransport(failures=2)
        client = Retrying(
            flaky, RetryPolicy(attempts=3, base_delay=0.01, sleep=slept.append)
        )
        client.call("echo", b"x")
        assert len(slept) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1)


class TestSemanticErrorsNotRetried:
    """Retries are for the transport, never for application verdicts."""

    def _registry(self):
        registry = ServiceRegistry()

        def limited(_p):
            raise RateLimitExceeded("slow down")

        def corrupt(_p):
            raise IntegrityError("fingerprint mismatch")

        registry.register("limited", limited)
        registry.register("corrupt", corrupt)
        return registry

    def test_rate_limit_not_retried_by_transport_layer(self):
        metrics = MetricsRegistry()
        inner = LoopbackTransport(self._registry(), metrics=metrics).client()
        slept = []
        client = Retrying(
            inner, RetryPolicy(attempts=5, sleep=slept.append)
        )
        with pytest.raises(RateLimitExceeded):
            client.call("limited")
        # One wire call, no blind retries.
        assert metrics.value("rpc_client_requests_total") == 1
        assert slept == []  # backoff is the key client's job, not ours

    def test_integrity_error_not_retried(self):
        metrics = MetricsRegistry()
        inner = LoopbackTransport(self._registry(), metrics=metrics).client()
        client = Retrying(inner, RetryPolicy(attempts=5, sleep=no_sleep))
        with pytest.raises(IntegrityError, match="fingerprint mismatch"):
            client.call("corrupt")
        assert metrics.value("rpc_client_requests_total") == 1

    def test_rate_limited_key_client_backs_off_not_the_transport(self):
        """End to end: a rate-limited key manager behind a retrying RPC
        stub.  The transport layer passes ``RateLimitExceeded`` straight
        through; the *key client* honors it by sleeping the hinted
        backoff and retrying the batch."""
        from repro.core.service import RemoteKeyManagerChannel, register_key_manager
        from repro.crypto.drbg import HmacDrbg
        from repro.mle.keymanager import KeyManager
        from repro.mle.server_aided import ServerAidedKeyClient
        from repro.util.clock import SimClock

        clock = SimClock()
        manager = KeyManager(
            key_bits=512, rate_limit=10, burst=10, clock=clock, rng=HmacDrbg(b"km")
        )
        registry = ServiceRegistry()
        register_key_manager(registry, manager)
        metrics = MetricsRegistry()
        inner = LoopbackTransport(registry, metrics=metrics).client()
        rpc = Retrying(inner, RetryPolicy(attempts=3, sleep=no_sleep))
        key_client = ServerAidedKeyClient(
            RemoteKeyManagerChannel(rpc),
            client_id="alice",
            rng=HmacDrbg(b"c"),
            sleep=clock.sleep,
            batch_size=10,
        )
        key_client.derive_keys([bytes([i]) * 32 for i in range(10)])  # drains bucket
        calls_when_drained = metrics.value("rpc_client_requests_total")
        keys = key_client.derive_keys([bytes([i + 50]) * 32 for i in range(10)])
        assert len(keys) == 10
        # Exactly one rejected derive, one backoff_hint query, and one
        # successful derive — no blind transport-level retry storm.
        assert metrics.value("rpc_client_requests_total") == calls_when_drained + 3
        assert clock.now > 0  # the key client actually slept


class TestEndToEndWithStorage:
    def test_remote_storage_over_flaky_transport(self):
        """A storage stub behind a flaky transport completes an upload's
        worth of calls once wrapped with retries."""
        from repro.core.server import REEDServer
        from repro.core.service import RemoteStorageService, register_storage_service
        from repro.crypto.hashing import fingerprint

        registry = ServiceRegistry()
        register_storage_service(registry, REEDServer())
        inner = LoopbackTransport(registry).client()

        class EveryOtherCallFails:
            def __init__(self):
                self.count = 0

            def call(self, method, payload=b""):
                self.count += 1
                if self.count % 2:
                    raise ProtocolError("flaky network")
                return inner.call(method, payload)

        client = Retrying(
            EveryOtherCallFails(), RetryPolicy(attempts=3, sleep=no_sleep)
        )
        storage = RemoteStorageService(client)
        data = b"chunk bytes"
        assert storage.chunk_put_many([(fingerprint(data), data)]) == [True]
        assert storage.chunk_get_batch([fingerprint(data)]) == [data]
        assert storage.file_commit([("f", b"s", b"r")]) == [None]
        assert storage.recipe_list() == ["f"]


    def test_gc_status_retried_gc_run_not(self):
        """``gc_status`` is a read the idempotent-only transport retries
        through a dropped connection; ``gc_run`` compacts, so its
        transport fault surfaces instead of a blind re-send."""
        from repro.core.service import RemoteStorageService

        registry = ServiceRegistry(metrics=MetricsRegistry())
        register_storage_service(registry, REEDServer())
        inner = LoopbackTransport(registry).client()

        class FirstCallPerMethodFails:
            def __init__(self):
                self.failed = set()

            def call(self, method, payload=b""):
                if method not in self.failed:
                    self.failed.add(method)
                    raise ProtocolError("connection reset")
                return inner.call(method, payload)

        client = Retrying(
            FirstCallPerMethodFails(),
            RetryPolicy(attempts=2, sleep=no_sleep),
            idempotent_only=True,
        )
        storage = RemoteStorageService(client)
        assert storage.gc_status()["dead_bytes"] == 0
        with pytest.raises(ProtocolError):
            storage.gc_run()


class TestIdempotentMethodList:
    def test_every_suffix_names_a_registered_method(self, rsa_512):
        """Each blind-retry suffix must match a method some ``register_*``
        binding serves, so the list cannot drift from the wire surface."""
        metrics = MetricsRegistry()
        registry = ServiceRegistry(metrics=metrics)
        register_storage_service(registry, REEDServer())
        register_keystate_service(registry, KeyStore())
        register_key_manager(registry, KeyManager(private_key=rsa_512))
        register_metrics(registry, metrics)
        register_traces(registry, Tracer(metrics=metrics))
        served = {method.rsplit(".", 1)[-1] for method in registry.methods()}
        assert sorted(IDEMPOTENT_METHOD_SUFFIXES - served) == []
