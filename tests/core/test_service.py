"""Tests for the RPC service bindings (remote stubs == local objects)."""

import pytest

from repro.core.server import REEDServer
from repro.core.service import (
    RemoteKeyManagerChannel,
    RemoteKeyStore,
    RemoteStorageService,
    register_key_manager,
    register_keystate_service,
    register_storage_service,
)
from repro.crypto import blindrsa
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import fingerprint
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import ServerAidedKeyClient
from repro.net.retry import IDEMPOTENT_METHOD_SUFFIXES
from repro.net.rpc import LoopbackTransport, ServiceRegistry
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import register_traces
from repro.obs.rpc import register_metrics
from repro.obs.tracing import Tracer
from repro.storage.datastore import DataStore
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.util.errors import (
    ConfigurationError,
    NotFoundError,
    RateLimitExceeded,
)


@pytest.fixture()
def wired(rsa_512):
    """One registry exposing all three services over loopback RPC."""
    registry = ServiceRegistry()
    # A per-test metrics registry keeps the GC's lifetime counters
    # isolated from every other test sharing the process default.
    server = REEDServer(DataStore(metrics=MetricsRegistry()))
    keystore = KeyStore()
    # A near-zero refill rate keeps the rate-limit test deterministic
    # regardless of how long the 50-signature burst takes in real time.
    manager = KeyManager(private_key=rsa_512, rate_limit=0.001, burst=50)
    register_storage_service(registry, server)
    register_keystate_service(registry, keystore)
    register_key_manager(registry, manager)
    client = LoopbackTransport(registry).client()
    return server, keystore, manager, client


class TestRemoteStorage:
    def test_registered_methods(self, rsa_512):
        """The whole wire surface, one batch RPC per operation: no
        single-item metadata or key-state calls, no count-reply put, no
        second name for ``has_many``; and every blind-retry suffix names
        a bound method, so a dead one cannot linger."""
        metrics = MetricsRegistry()
        registry = ServiceRegistry(metrics=metrics)
        register_storage_service(registry, REEDServer())
        register_keystate_service(registry, KeyStore())
        register_key_manager(registry, KeyManager(private_key=rsa_512))
        register_metrics(registry, metrics)
        register_traces(registry, Tracer(metrics=metrics))
        storage = (
            "has_many", "put_many", "get", "release", "refcounts", "addref",
            "recipe_list", "stub_list", "recipe_get_many", "file_commit",
            "file_get_many", "meta_delete_many", "flush", "chunk_list",
            "gc_status", "gc_run",
        )
        assert registry.methods() == sorted(
            [f"storage.{name}" for name in storage]
            + [f"keystore.{name}" for name in ("put_many", "get_many", "delete_many")]
            + [f"km.{name}" for name in ("public_key", "derive_batch", "backoff_hint")]
            + ["metrics", "traces"]
        )
        served = {method.rsplit(".", 1)[-1] for method in registry.methods()}
        assert IDEMPOTENT_METHOD_SUFFIXES <= served

    def test_chunk_roundtrip(self, wired):
        _server, _ks, _km, rpc = wired
        remote = RemoteStorageService(rpc)
        fp = fingerprint(b"chunk")
        assert remote.chunk_put_many([(fp, b"chunk")]) == [True]
        assert remote.chunk_put_many([(fp, b"chunk")]) == [False]
        assert remote.chunk_exists_batch([fp, b"\x00" * 32]) == [True, False]
        assert remote.chunk_get_batch([fp]) == [b"chunk"]
        remote.chunk_release_batch([fp])
        remote.chunk_release_batch([fp])
        assert remote.chunk_exists_batch([fp]) == [False]

    def test_release_tolerates_missing_fingerprints(self, wired):
        """A missing fingerprint mid-batch must not abort the releases
        that follow it (replicated deletes hit this on owners that never
        held an under-replicated chunk)."""
        _server, _ks, _km, rpc = wired
        remote = RemoteStorageService(rpc)
        fp = fingerprint(b"held")
        remote.chunk_put_many([(fp, b"held")])
        remote.chunk_release_batch([fingerprint(b"never-stored"), fp])
        assert remote.chunk_exists_batch([fp]) == [False]

    def test_refcount_roundtrip(self, wired):
        _server, _ks, _km, rpc = wired
        remote = RemoteStorageService(rpc)
        fp = fingerprint(b"counted")
        remote.chunk_put_many([(fp, b"counted")])
        remote.chunk_put_many([(fp, b"counted")])  # dedup hit: refcount 2
        missing = fingerprint(b"unknown")
        assert remote.chunk_refcount_batch([fp, missing]) == [2, 0]
        remote.chunk_addref_batch([(fp, 3)])
        assert remote.chunk_refcount_batch([fp]) == [5]
        with pytest.raises(NotFoundError):
            remote.chunk_addref_batch([(missing, 1)])

    def test_recipes_and_stubs(self, wired):
        _server, _ks, _km, rpc = wired
        remote = RemoteStorageService(rpc)
        assert remote.file_commit([("f", b"s", b"r")]) == [None]
        assert remote.recipe_get_many(["f"]) == [b"r"]
        assert remote.file_get_many(["f"]) == [(b"s", b"r")]
        assert remote.recipe_list() == ["f"]
        assert remote.stub_list() == ["f"]
        assert remote.meta_delete_many(["f"]) == [None]
        assert remote.recipe_list() == []
        assert remote.stub_list() == []
        remote.flush()

    def test_errors_propagate(self, wired):
        _server, _ks, _km, rpc = wired
        remote = RemoteStorageService(rpc)
        with pytest.raises(NotFoundError):
            remote.chunk_get_batch([fingerprint(b"missing")])
        [item] = remote.recipe_get_many(["missing"])
        assert isinstance(item, NotFoundError)


class TestGcRpc:
    def _seed_dead_space(self, server, rpc):
        remote = RemoteStorageService(rpc)
        pairs = [(fingerprint(bytes([i]) * 64), bytes([i]) * 64) for i in range(8)]
        remote.chunk_put_many(pairs)
        remote.flush()
        remote.chunk_release_batch([fp for fp, _ in pairs[:4]])
        return remote, pairs

    def test_status_and_run_round_trip(self, wired):
        server, _ks, _km, rpc = wired
        remote, pairs = self._seed_dead_space(server, rpc)
        status = remote.gc_status()
        assert status["dead_bytes"] == 256
        assert status["live_bytes"] == 256
        assert status["dead_space_ratio"] == pytest.approx(0.5)
        assert status["passes"] == 0
        after = remote.gc_run()
        assert after["passes"] == 1
        assert after["bytes_reclaimed_total"] == 256
        assert after["last_reclaimed_bytes"] == 256
        assert after["dead_bytes"] == 0
        # Survivors still served over the wire.
        assert remote.chunk_get_batch([pairs[5][0]]) == [pairs[5][1]]

    def test_one_off_threshold_crosses_rpc(self, wired):
        server, _ks, _km, rpc = wired
        remote, _pairs = self._seed_dead_space(server, rpc)
        # Too strict to trigger: nothing is 90% dead.
        untouched = remote.gc_run(threshold=0.9)
        assert untouched["bytes_reclaimed_total"] == 0
        assert untouched["dead_bytes"] == 256
        # The configured threshold (default 0.25) still applies next.
        assert remote.gc_run()["dead_bytes"] == 0

    def test_invalid_threshold_propagates(self, wired):
        _server, _ks, _km, rpc = wired
        remote = RemoteStorageService(rpc)
        with pytest.raises(ConfigurationError):
            remote.gc_run(threshold=0.0)


class TestRemoteKeyStore:
    def test_roundtrip(self, wired):
        """All three batch RPCs carry per-item status over the wire: a
        missing id fails in its own slot and its neighbour succeeds; each
        call is one round trip, counted once even though loopback
        dispatches the server's handler on the caller's thread."""
        _server, _ks, _km, rpc = wired
        remote = RemoteKeyStore(rpc)
        record = KeyStateRecord(
            file_id="f",
            policy_text="(a or b)",
            key_version=2,
            encrypted_state=b"\x01",
            owner_public_key=b"\x02",
        )
        with obs_scope.attribution() as scope:
            assert remote.put_many([record]) == [None]
            stored, missing = remote.get_many(["f", "nope"])
            deleted, absent = remote.delete_many(["f", "nope"])
            [gone] = remote.get_many(["f"])
        assert stored == record
        assert isinstance(missing, NotFoundError)
        assert deleted is None
        assert isinstance(absent, NotFoundError)
        assert isinstance(gone, NotFoundError)
        assert scope.get_int("keystore_round_trips") == 4


class TestRemoteKeyManager:
    def test_oprf_over_rpc(self, wired, rsa_512):
        _server, _ks, manager, rpc = wired
        channel = RemoteKeyManagerChannel(rpc)
        assert channel.public_key().n == manager.public_key.n
        client = ServerAidedKeyClient(channel, "alice", rng=HmacDrbg(b"c"))
        fp = b"\x0a" * 32
        assert client.derive_keys([fp])[0] == blindrsa.derive_mle_key_directly(rsa_512, fp)

    def test_rate_limit_crosses_rpc(self, wired):
        _server, _ks, _manager, rpc = wired
        channel = RemoteKeyManagerChannel(rpc)
        channel.derive_batch("alice", [5] * 50)
        with pytest.raises(RateLimitExceeded):
            channel.derive_batch("alice", [5])
        assert channel.backoff_hint("alice", 10) > 0
