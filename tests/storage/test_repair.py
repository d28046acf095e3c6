"""Tests for the replica repairer, its background daemon and the ring
rebalancer."""

import time

import pytest

from repro.core.cluster import TcpCluster
from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.storage.datastore import DataStore
from repro.storage.repair import ReplicaRepairer, rebalance
from repro.storage.sharding import ShardedStorageService
from repro.util.daemon import IntervalDaemon
from repro.util.errors import ConfigurationError, NotFoundError, ProtocolError


def make_store(n=3, replicas=2):
    return ShardedStorageService(
        [REEDServer() for _ in range(n)], replicas=replicas
    )


def node_store(store, node):
    """The in-process data store behind one ring node."""
    return store.node_service(node).store


def payloads(count, tag=b"x"):
    chunks = [tag + b"-%d" % i for i in range(count)]
    return [(fingerprint(c), c) for c in chunks]


class TestReplicaRepairer:
    def test_clean_store_needs_no_repairs(self):
        store = make_store()
        store.chunk_put_many(payloads(32))
        metrics = MetricsRegistry()
        report = ReplicaRepairer(store, metrics=metrics).run_once()
        assert report.repairs == 0
        assert report.missing_replicas == 0
        assert metrics.value("replicas_missing") == 0.0

    def test_rereplicates_after_node_outage(self):
        """Chunks written at quorum W=1 while a node was down get their
        missing replicas restored once the node is back."""
        store = make_store()
        down = store.node_ids()[0]
        store.mark_down(down)
        items = payloads(64)
        store.chunk_put_many(items)
        store.file_commit([("file-a", b"stub-bytes", b"recipe-bytes")])
        store.mark_up(down)

        metrics = MetricsRegistry()
        report = ReplicaRepairer(store, metrics=metrics).run_once()
        assert report.missing_replicas > 0
        assert report.repairs == report.missing_replicas
        assert report.unrepaired == 0
        assert metrics.value("replica_repairs_total") == report.repairs
        assert metrics.value("replicas_missing") == 0.0

        # Every chunk now lives on both its owners.
        for fp, data in items:
            for node in store.ring.preference(fp, store.replicas):
                assert node_store(store, node).has_chunk(fp), fp.hex()
                assert node_store(store, node).get_chunk(fp) == data
        second = ReplicaRepairer(store, metrics=metrics).run_once()
        assert second.missing_replicas == 0

    def test_repairs_wiped_node(self):
        """A node that lost its disk (fresh empty store) is refilled."""
        store = make_store()
        items = payloads(48, tag=b"wipe")
        store.chunk_put_many(items)
        victim = store.node_ids()[1]
        store._services[victim] = REEDServer()  # the replaced disk
        report = ReplicaRepairer(store).run_once()
        assert report.unrepaired == 0
        for fp, data in items:
            owners = store.ring.preference(fp, store.replicas)
            if victim in owners:
                assert node_store(store, victim).get_chunk(fp) == data

    def test_detects_and_heals_corrupt_replica(self):
        store = make_store(n=2, replicas=2)
        fp, data = payloads(1, tag=b"corrupt")[0]
        store.chunk_put_many([(fp, data)])
        store.flush()
        # Flip bits in node-0's copy on disk (both nodes own it at R=2).
        victim = node_store(store, "node-0")
        location = victim.index.lookup(fp)
        name = f"container/{location.container_id:012d}"
        blob = bytearray(victim.backend.get(name))
        blob[location.offset] ^= 0xFF
        victim.backend.put(name, bytes(blob))

        repairer = ReplicaRepairer(store, verify_hashes=True)
        report = repairer.run_once()
        assert report.corrupt_replicas == 1
        assert report.unrepaired == 0
        assert victim.get_chunk(fp) == data  # healed from the good copy

    def test_unrepairable_when_no_copy_survives(self):
        store = make_store()
        down = store.node_ids()[0]
        store.mark_down(down)
        items = payloads(16, tag=b"lost")
        store.chunk_put_many(items)
        # The only nodes holding copies vanish: wipe every up holder.
        for node in store.node_ids():
            if node != down:
                store._services[node] = REEDServer()
        store.mark_up(down)
        metrics = MetricsRegistry()
        report = ReplicaRepairer(store, metrics=metrics).run_once()
        # Chunks whose both owners lost their copies are beyond repair.
        assert report.unrepaired >= 0
        assert metrics.value("replicas_missing") == float(report.unrepaired)

    def test_repair_replays_reference_counts(self):
        """A restored replica carries the source's refcount: restoring
        with refcount 1 would let the first file delete garbage-collect
        a chunk other files still reference."""
        store = make_store()
        data = b"shared-by-three-files"
        fp = fingerprint(data)
        for _ in range(3):  # three files reference the chunk
            store.chunk_put_many([(fp, data)])
        victim = store.ring.preference(fp, store.replicas)[0]
        store._services[victim] = REEDServer()  # the wiped disk
        report = ReplicaRepairer(store, metrics=MetricsRegistry()).run_once()
        assert report.chunks_repaired >= 1
        assert node_store(store, victim).index.refcount(fp) == 3
        # Two file deletes leave the third reference intact everywhere.
        store.chunk_release_batch([fp])
        store.chunk_release_batch([fp])
        for node in store.ring.preference(fp, store.replicas):
            assert node_store(store, node).has_chunk(fp)
        store.chunk_release_batch([fp])
        with pytest.raises(NotFoundError):
            store.chunk_get_batch([fp])

    def test_run_once_excludes_node_dying_mid_scan(self):
        """A node failing between the liveness probe and its inventory
        read is dropped from the pass (and marked down on a transport
        error) instead of aborting the whole scan."""
        store = make_store()
        store.chunk_put_many(payloads(24, tag=b"midscan"))
        victim = store.node_ids()[1]
        original = store.node_chunk_list

        def flaky(node_id):
            if node_id == victim:
                raise ProtocolError("connection reset by peer")
            return original(node_id)

        store.node_chunk_list = flaky
        report = ReplicaRepairer(store, metrics=MetricsRegistry()).run_once()
        assert victim in report.failed_nodes
        assert not store.ring.is_up(victim)
        assert report.nodes_scanned == len(store.node_ids()) - 1

    def test_transport_failure_mid_scan_counts_as_node_failure(self):
        """Repair classifies a failing node with the engine's rule, so a
        transport failure it detects shows in the engine's failure count."""
        metrics = MetricsRegistry()
        store = ShardedStorageService(
            [REEDServer() for _ in range(3)], metrics=metrics, replicas=2
        )
        store.chunk_put_many(payloads(8, tag=b"counted"))
        victim = store.node_ids()[2]
        original = store.node_chunk_list

        def flaky(node_id):
            if node_id == victim:
                raise OSError("connection refused")
            return original(node_id)

        store.node_chunk_list = flaky
        report = ReplicaRepairer(store, metrics=MetricsRegistry()).run_once()
        assert report.failed_nodes == [victim]
        assert not store.ring.is_up(victim)
        assert metrics.value("store_node_failures_total") == 1
        assert metrics.value("store_nodes_down") == 1

    def test_requires_ring_store(self):
        with pytest.raises(ConfigurationError):
            ReplicaRepairer(DataStore())


class TestRemoteRehash:
    """``verify_hashes`` over RPC: a node whose store is out of reach
    re-hashes the replicas it serves instead of running fsck."""

    def _corrupted(self, cluster, damage):
        store = ShardedStorageService(
            [cluster.connect_storage(i) for i in range(2)], replicas=2
        )
        fp, data = payloads(1, tag=b"remote")[0]
        store.chunk_put_many([(fp, data)], flush=True)
        victim = cluster.servers[0].store
        location = victim.index.lookup(fp)
        name = f"container/{location.container_id:012d}"
        blob = bytearray(victim.backend.get(name))
        damage(blob)
        victim.backend.put(name, bytes(blob))
        return store, fp, data

    def _check(self, store, fp, data):
        report = ReplicaRepairer(store, verify_hashes=True).run_once()
        assert report.corrupt_replicas == 1
        assert report.failed_nodes == []
        assert report.nodes_scanned == 2
        assert store.chunk_get_batch([fp]) == [data]  # the intact replica

    def test_corrupt_container_header_is_corruption_not_node_failure(self):
        def smash_magic(blob):
            blob[:4] = b"XXXX"

        with TcpCluster(num_data_servers=2, replicas=2) as cluster:
            self._check(*self._corrupted(cluster, smash_magic))

    def test_flipped_payload_byte_fails_the_rehash(self):
        def flip(blob):
            blob[-1] ^= 0xFF

        with TcpCluster(num_data_servers=2, replicas=2) as cluster:
            self._check(*self._corrupted(cluster, flip))

    def test_transport_error_during_rehash_is_node_failure(self):
        with TcpCluster(num_data_servers=2, replicas=2) as cluster:
            store, _fp, _data = self._corrupted(cluster, lambda blob: None)
            original = store.node_get_many

            def reset(node, fingerprints):
                if node == "node-0":
                    raise ProtocolError("connection reset by peer")
                return original(node, fingerprints)

            store.node_get_many = reset
            report = ReplicaRepairer(store, verify_hashes=True).run_once()
            assert report.failed_nodes == ["node-0"]
            assert report.corrupt_replicas == 0


class TestFileRepair:
    """A file's metadata is repaired as one ``(stub file, recipe)`` pair."""

    def _owners(self, store, file_id):
        return store.ring.preference(file_id, store.replicas)

    def test_stub_only_owner_receives_the_full_pair(self):
        """An owner left with only the stub file by an interrupted commit
        does not count as holding the file: it gets the full pair from a
        full holder and then serves ``file_get_many``."""
        store = make_store()
        full, half = self._owners(store, "interrupted")
        store.node_service(full).file_commit(
            [("interrupted", b"stub-bytes", b"recipe-bytes")]
        )
        node_store(store, half).put_stub_file("interrupted", b"stub-bytes")

        report = ReplicaRepairer(store, metrics=MetricsRegistry()).run_once()
        assert report.missing_replicas == 1
        assert report.files_repaired == 1
        assert report.repairs == 1
        assert report.unrepaired == 0
        assert store.node_service(half).file_get_many(["interrupted"]) == [
            (b"stub-bytes", b"recipe-bytes")
        ]
        assert ReplicaRepairer(store).run_once().missing_replicas == 0

    def test_file_no_node_holds_in_full_is_unrepaired(self):
        """With no whole copy anywhere, both owners count as unrepaired
        and neither receives half a file."""
        store = make_store()
        stub_only, recipe_only = self._owners(store, "torn")
        node_store(store, stub_only).put_stub_file("torn", b"stub-bytes")
        node_store(store, recipe_only).put_recipe("torn", b"recipe-bytes")

        metrics = MetricsRegistry()
        report = ReplicaRepairer(store, metrics=metrics).run_once()
        assert report.files_repaired == 0
        assert report.missing_replicas == 2
        assert report.unrepaired == 2
        assert metrics.value("replicas_missing") == 2.0
        assert not node_store(store, stub_only).has_recipe("torn")
        assert node_store(store, recipe_only).list_stub_files() == []
        for node in store.node_ids():
            if node not in (stub_only, recipe_only):
                assert node_store(store, node).list_recipes() == []
                assert node_store(store, node).list_stub_files() == []


class TestRepairDaemon:
    def test_background_passes(self):
        store = make_store()
        down = store.node_ids()[0]
        store.mark_down(down)
        store.chunk_put_many(payloads(8, tag=b"daemon"))
        store.mark_up(down)
        repairer = ReplicaRepairer(store)
        daemon = IntervalDaemon(
            repairer.run_once, repairer.pass_failures, interval=30.0
        )
        with daemon:
            report = daemon.run_now()
        assert daemon.passes >= 1
        assert report.unrepaired == 0
        assert daemon.last_report is not None

    def test_rejects_bad_interval(self):
        repairer = ReplicaRepairer(make_store())
        with pytest.raises(ConfigurationError):
            IntervalDaemon(repairer.run_once, repairer.pass_failures, interval=0)

    def test_survives_failing_passes(self):
        """A pass blowing up must not kill the daemon thread — the
        self-healing loop records the error and retries next interval."""
        metrics = MetricsRegistry()
        repairer = ReplicaRepairer(make_store(), metrics=metrics)
        calls = []

        def boom():
            calls.append(1)
            raise ProtocolError("node died mid-scan")

        repairer.run_once = boom
        daemon = IntervalDaemon(
            repairer.run_once, repairer.pass_failures, interval=0.01
        )
        with daemon:
            deadline = time.time() + 5.0
            while len(calls) < 2 and time.time() < deadline:
                time.sleep(0.005)
        assert len(calls) >= 2  # the loop outlived the first failure
        assert daemon.failed_passes >= 2
        assert isinstance(daemon.last_error, ProtocolError)
        assert metrics.value("repair_scan_failures_total") == daemon.failed_passes


class TestRebalance:
    def test_join_migrates_only_moved_keys(self):
        store = make_store(n=3, replicas=2)
        items = payloads(128, tag=b"join")
        store.chunk_put_many(items)
        store.file_commit([("file-r", b"stub", b"recipe")])

        old_ring = store.ring.copy()
        joined = store.add_service(REEDServer())
        metrics = MetricsRegistry()
        report = rebalance(store, old_ring, metrics=metrics)

        assert 0 < report.keys_moved < report.keys_checked
        assert metrics.value("ring_keys_moved_total") == report.keys_moved
        # Minimal movement: about 1/N of keys move on a join of the
        # fourth node; allow generous slack for the small sample.
        assert report.keys_moved / report.keys_checked < 0.65
        # Every key is fully replicated under the new ring.
        after = ReplicaRepairer(store).run_once()
        assert after.missing_replicas == 0
        # The joined node actually received its keys.
        assert len(node_store(store, joined).list_chunks()) > 0

    def test_reads_survive_membership_change_with_rebalance(self):
        store = make_store(n=2, replicas=2)
        items = payloads(64, tag=b"leave")
        store.chunk_put_many(items)
        old_ring = store.ring.copy()
        store.add_service(REEDServer())
        rebalance(store, old_ring)
        assert store.chunk_get_batch([fp for fp, _ in items]) == [
            data for _, data in items
        ]
