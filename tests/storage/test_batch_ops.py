"""Batch operations on the data store and the replication engine.

``has_many``/``put_many``/``get`` are the storage half of the
multi-chunk messages the batched protocol ships; they must behave
exactly like a loop of per-chunk calls — same answers, same bytes on
disk — while letting the engine send one sub-call per shard.
"""

import pytest

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.storage.datastore import DataStore
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import IntegrityError, NotFoundError


def make_chunks(count, prefix=b""):
    datas = [prefix + bytes([i]) * 64 for i in range(count)]
    return [(fingerprint(data), data) for data in datas]


def engine(nodes=4, replicas=1, server=REEDServer):
    return ShardedStorageService(
        [server() for _ in range(nodes)], replicas=replicas
    )


@pytest.fixture()
def sharded():
    return engine()


class TestDataStoreBatches:
    def test_has_many_matches_per_chunk_answers(self):
        store = DataStore()
        chunks = make_chunks(10)
        for fp, data in chunks[:5]:
            store.put_chunk(fp, data)
        fps = [fp for fp, _ in chunks]
        assert store.has_many(fps) == [store.has_chunk(fp) for fp in fps]
        assert store.has_many(fps) == [True] * 5 + [False] * 5

    def test_has_many_empty(self):
        assert DataStore().has_many([]) == []

    def test_put_many_matches_per_chunk_semantics(self):
        batched, reference = DataStore(), DataStore()
        chunks = make_chunks(8)
        duplicated = chunks + chunks[:3]
        assert batched.put_many(duplicated) == [
            reference.put_chunk(fp, data) for fp, data in duplicated
        ]
        assert batched.stats.chunks_stored == reference.stats.chunks_stored == 8

    def test_put_many_bytes_identical_to_per_chunk_path(self):
        """Same chunks in the same order must produce the same container
        layout regardless of which API stored them."""
        batched, reference = DataStore(), DataStore()
        chunks = make_chunks(20)
        batched.put_many(chunks)
        for fp, data in chunks:
            reference.put_chunk(fp, data)
        batched.flush()
        reference.flush()
        names = sorted(reference.backend.list())
        assert sorted(batched.backend.list()) == names
        for name in names:
            assert batched.backend.get(name) == reference.backend.get(name)

    def test_put_many_then_get(self):
        store = DataStore()
        chunks = make_chunks(6)
        store.put_many(chunks)
        for fp, data in chunks:
            assert store.get_chunk(fp) == data


class TestShardedBatches:
    def test_get_batch_routes_like_per_chunk(self, sharded):
        chunks = make_chunks(32)
        sharded.chunk_put_many(chunks[:16])
        fps = [fp for fp, _ in chunks]
        per_chunk = [sharded.chunk_get_batch([fp])[0] for fp in fps[:16]]
        assert sharded.chunk_get_batch(fps[:16]) == per_chunk
        for fp in fps[16:]:
            with pytest.raises(NotFoundError, match=fp.hex()):
                sharded.chunk_get_batch([fp])
        with pytest.raises(NotFoundError, match="16 chunk"):
            sharded.chunk_get_batch(fps)

    def test_put_many_equivalent_to_per_chunk_calls(self, sharded):
        reference = engine()
        chunks = make_chunks(32)
        answers = sharded.chunk_put_many(chunks + chunks[:5])
        expected = [
            reference.chunk_put_many([chunk])[0] for chunk in chunks + chunks[:5]
        ]
        assert answers == expected
        # Identical distribution across shards.
        assert [
            sharded.node_service(node).stats.chunks_stored
            for node in sharded.node_ids()
        ] == [
            reference.node_service(node).stats.chunks_stored
            for node in reference.node_ids()
        ]
        assert sharded.chunk_get_batch([fp for fp, _ in chunks]) == [
            data for _, data in chunks
        ]

    def test_batches_touch_each_shard_once(self):
        class CountingServer(REEDServer):
            def __init__(self):
                super().__init__()
                self.batch_calls = 0

            def chunk_get_batch(self, fingerprints):
                self.batch_calls += 1
                return super().chunk_get_batch(fingerprints)

            def chunk_put_many(self, chunks):
                self.batch_calls += 1
                return super().chunk_put_many(chunks)

        sharded = engine(server=CountingServer)
        chunks = make_chunks(64)  # lands on all four shards w.h.p.
        sharded.chunk_put_many(chunks)
        sharded.chunk_get_batch([fp for fp, _ in chunks])
        for node in sharded.node_ids():
            # one chunk_put_many + one chunk_get_batch
            assert sharded.node_service(node).batch_calls == 2

    def test_order_preserved_across_shards(self, sharded):
        chunks = make_chunks(48)
        sharded.chunk_put_many(chunks[:24])
        stored = chunks[:24][::-1]
        assert sharded.chunk_get_batch([fp for fp, _ in stored]) == [
            data for _, data in stored
        ]
        held = [False] * len(chunks)
        for node in sharded.node_ids():
            flags = sharded.node_service(node).chunk_exists_batch(
                [fp for fp, _ in chunks]
            )
            held = [a or b for a, b in zip(held, flags)]
        assert held == [True] * 24 + [False] * 24

    def test_empty_batches(self, sharded):
        assert sharded.chunk_get_batch([]) == []
        assert sharded.chunk_put_many([]) == []

    def test_get_batch_falls_back_to_later_replica(self):
        """A chunk that landed only on a non-primary owner (degraded
        write) must read back through the later replica."""
        sharded = engine(nodes=3, replicas=2)
        chunks = make_chunks(12, prefix=b"degraded")
        for fp, data in chunks:
            secondary = sharded.ring.preference(fp, 2)[1]
            sharded.node_service(secondary).chunk_put_many([(fp, data)])
        fps = [fp for fp, _ in chunks]
        for fp in fps:
            primary = sharded.ring.primary(fp)
            assert sharded.node_service(primary).chunk_exists_batch([fp]) == [False]
        assert sharded.chunk_get_batch(fps) == [data for _, data in chunks]

    def test_get_batch_routes_around_failing_shard(self):
        """One shard raising must re-route its positions to the other
        owners instead of propagating or reading false absences."""
        sharded = engine(nodes=3, replicas=2)
        chunks = make_chunks(12, prefix=b"broken")
        sharded.chunk_put_many(chunks)
        victim_id = sharded.node_ids()[0]
        victim = sharded.node_service(victim_id)

        def boom(fingerprints):
            raise OSError("disk gone")

        victim.chunk_get_batch = boom
        fps = [fp for fp, _ in chunks]
        assert sharded.chunk_get_batch(fps) == [data for _, data in chunks]
        assert not sharded.ring.is_up(victim_id)

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_put_batch_keeps_honest_chunks_behind_forged_one(self, replicas):
        """A forged chunk fails alone: the honest chunks queued behind it
        are stored, at any replication factor."""
        sharded = engine(nodes=3, replicas=replicas)
        honest = make_chunks(16, prefix=b"honest")
        forged = (fingerprint(b"claimed"), b"actual")
        statuses = sharded.chunk_put_many([forged] + honest)
        assert isinstance(statuses[0], IntegrityError)
        assert statuses[1:] == [True] * len(honest)
        fps = [fp for fp, _ in honest]
        assert sharded.chunk_get_batch(fps) == [data for _, data in honest]
        with pytest.raises(NotFoundError, match=forged[0].hex()):
            sharded.chunk_get_batch([forged[0]])
