"""Tests for ring placement through the replication engine."""

import pytest

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError, NotFoundError, StorageError


@pytest.fixture()
def sharded():
    return ShardedStorageService([REEDServer() for _ in range(4)])


def put(sharded, data):
    fp = fingerprint(data)
    (status,) = sharded.chunk_put_many([(fp, data)])
    return fp, status


def node_stats(sharded):
    return [sharded.node_service(node).stats for node in sharded.node_ids()]


class TestChunkRouting:
    def test_placement_deterministic(self, sharded):
        fp, _ = put(sharded, b"data")
        twin = ShardedStorageService([REEDServer() for _ in range(4)])
        primary = sharded.ring.primary(fp)
        assert twin.ring.primary(fp) == primary
        holders = [
            node
            for node in sharded.node_ids()
            if sharded.node_service(node).chunk_exists_batch([fp]) == [True]
        ]
        assert holders == [primary]

    def test_dedup_across_uploaders(self, sharded):
        # Two clients' engines over the same servers deduplicate against
        # each other: the second upload of a chunk is a hit.
        other = ShardedStorageService(
            [sharded.node_service(node) for node in sharded.node_ids()]
        )
        fp, first = put(sharded, b"data")
        _, second = put(other, b"data")
        assert (first, second) == (True, False)
        assert other.chunk_get_batch([fp]) == [b"data"]

    def test_chunks_spread_over_shards(self, sharded):
        for i in range(64):
            put(sharded, bytes([i]) * 10)
        populated = sum(1 for s in node_stats(sharded) if s.chunks_stored > 0)
        assert populated == 4  # 64 chunks land on all 4 shards w.h.p.

    def test_release_routes_correctly(self, sharded):
        fp, _ = put(sharded, b"x")
        sharded.chunk_release_batch([fp])
        with pytest.raises(NotFoundError):
            sharded.chunk_get_batch([fp])

    def test_aggregate_stats(self, sharded):
        for i in range(8):
            put(sharded, bytes([i]) * 100)
            put(sharded, bytes([i]) * 100)
        stats = node_stats(sharded)
        assert sum(s.chunks_received for s in stats) == 16
        assert sum(s.chunks_stored for s in stats) == 8
        assert sum(s.logical_bytes for s in stats) == 1600
        assert sum(s.physical_bytes for s in stats) == 800


class TestFileRouting:
    def test_recipes(self, sharded):
        assert sharded.file_commit(
            [("file-a", b"sa", b"ra"), ("file-b", b"sb", b"rb")]
        ) == [None, None]
        assert sharded.recipe_get_many(["file-a"]) == [b"ra"]
        assert sharded.recipe_list() == ["file-a", "file-b"]
        assert sharded.meta_delete_many(["file-a"]) == [None]
        assert sharded.recipe_list() == ["file-b"]
        [missing] = sharded.recipe_get_many(["file-a"])
        assert isinstance(missing, NotFoundError)

    def test_stub_files(self, sharded):
        sharded.file_commit([("file-a", b"stubby", b"ra")])
        assert sharded.file_get_many(["file-a"]) == [(b"stubby", b"ra")]
        owner = sharded.shard_for_file("file-a")
        assert sharded.node_service(owner).stats.stub_bytes == 6
        sharded.meta_delete_many(["file-a"])
        assert sum(s.stub_bytes for s in node_stats(sharded)) == 0

    def test_flush_all(self, sharded):
        for i in range(8):
            put(sharded, bytes([i]) * 10)
        with obs_scope.attribution() as scope:
            sharded.flush()
        assert scope.get_int("store_round_trips") == 4  # one per node


class ChunkReads:
    """Items of ``chunk_get_batch``: fingerprint -> chunk bytes."""

    method = "chunk_get_batch"

    def __init__(self):
        self.data = {}

    def key(self, index):
        data = b"walk-%d" % index
        self.data[fingerprint(data)] = data
        return fingerprint(data)

    def store(self, target, keys):
        target.chunk_put_many([(key, self.data[key]) for key in keys])

    def value(self, key):
        return self.data[key]


class FileReads:
    """Items of ``recipe_get_many``/``file_get_many``: file id -> recipe
    or ``(stub file, recipe)``."""

    def __init__(self, method):
        self.method = method

    def key(self, index):
        return "walk-%d" % index

    def store(self, target, keys):
        target.file_commit(
            [(key, b"stub " + key.encode(), b"recipe " + key.encode()) for key in keys]
        )

    def value(self, key):
        recipe = b"recipe " + key.encode()
        if self.method == "recipe_get_many":
            return recipe
        return (b"stub " + key.encode(), recipe)


def replicated(nodes=3, replicas=2, write_quorum=None):
    metrics = MetricsRegistry()
    engine = ShardedStorageService(
        [REEDServer() for _ in range(nodes)],
        metrics=metrics,
        replicas=replicas,
        write_quorum=write_quorum,
    )
    return engine, metrics


def keys_on(engine, make_key, node, count=3):
    """``count`` keys whose primary owner is ``node``."""
    keys = (make_key(index) for index in range(256))
    return [key for key in keys if engine.ring.primary(key) == node][:count]


def wrap(service, method, fault):
    """Replace ``service.method`` with ``fault(original, *args)``."""
    original = getattr(service, method)
    setattr(service, method, lambda *args: fault(original, *args))


class TestReadWalk:
    """One fault table for the replica walk every read goes through."""

    @pytest.fixture(params=["chunk_get_batch", "recipe_get_many", "file_get_many"])
    def reads(self, request):
        if request.param == "chunk_get_batch":
            return ChunkReads()
        return FileReads(request.param)

    @pytest.fixture()
    def walk(self, reads):
        engine, metrics = replicated()
        primary = engine.node_ids()[0]
        keys = keys_on(engine, reads.key, primary)
        secondary = engine.ring.preference(keys[0], 2)[1]
        return engine, metrics, primary, secondary, keys

    def read(self, engine, reads, keys):
        return getattr(engine, reads.method)(keys)

    def test_primary_failure_marks_it_down(self, reads, walk):
        engine, metrics, primary, _secondary, keys = walk
        reads.store(engine, keys)

        def fail(_original, _keys):
            raise OSError("connection reset")

        wrap(engine.node_service(primary), reads.method, fail)
        assert self.read(engine, reads, keys) == [reads.value(k) for k in keys]
        assert not engine.ring.is_up(primary)
        assert metrics.value("store_node_failures_total") == 1

    def test_primary_miss_falls_back_per_item(self, reads, walk):
        engine, metrics, primary, secondary, keys = walk
        reads.store(engine.node_service(secondary), keys[:1])
        reads.store(engine, keys[1:])
        assert self.read(engine, reads, keys) == [reads.value(k) for k in keys]
        assert metrics.value("store_read_fallbacks_total") == 1
        assert engine.ring.is_up(primary)
        assert metrics.value("store_node_failures_total") == 0

    def test_short_reply_reroutes_the_unanswered(self, reads, walk):
        engine, metrics, primary, _secondary, keys = walk
        reads.store(engine, keys)
        wrap(
            engine.node_service(primary),
            reads.method,
            lambda original, asked: original(asked)[:-1],
        )
        assert self.read(engine, reads, keys) == [reads.value(k) for k in keys]
        assert metrics.value("store_read_fallbacks_total") == 1
        assert engine.ring.is_up(primary)

    def test_exhausted_owners(self, reads, walk):
        engine, _metrics, _primary, _secondary, keys = walk
        reads.store(engine, keys[1:])
        if reads.method == "chunk_get_batch":
            with pytest.raises(NotFoundError, match=keys[0].hex()):
                self.read(engine, reads, keys)
            return
        first, *rest = self.read(engine, reads, keys)
        assert isinstance(first, NotFoundError)
        assert rest == [reads.value(k) for k in keys[1:]]


class TestShortReplies:
    """A shard answering fewer items than it was sent fails the
    unanswered items on that shard (reads: see ``TestReadWalk``)."""

    @pytest.mark.parametrize("write_quorum", [1, 2])
    def test_write_fails_the_tail_on_that_node(self, write_quorum):
        engine, metrics = replicated(write_quorum=write_quorum)
        files = FileReads("file_get_many")
        primary = engine.node_ids()[0]
        keys = keys_on(engine, files.key, primary)
        wrap(
            engine.node_service(primary),
            "file_commit",
            lambda original, items: original(items)[:-1],
        )
        statuses = engine.file_commit(
            [(key, b"stub", b"recipe") for key in keys]
        )
        assert statuses[:-1] == [None] * (len(keys) - 1)
        if write_quorum == 1:
            assert statuses[-1] is None
            assert metrics.value("store_degraded_writes_total") == 1
        else:
            assert isinstance(statuses[-1], StorageError)
            assert primary in str(statuses[-1])


class TestBroadcast:
    @pytest.mark.parametrize("method", ["gc_status", "recipe_list"])
    def test_every_node_attempted_first_error_raised(self, method):
        engine, metrics = replicated(nodes=4, replicas=1)
        called = []
        failing = engine.node_ids()[1:3]
        for node in engine.node_ids():

            def spy(original, *args, node=node):
                called.append(node)
                if node in failing:
                    raise OSError(f"{node} refused")
                return original(*args)

            wrap(engine.node_service(node), method, spy)
        with pytest.raises(OSError, match=f"{failing[0]} refused"):
            getattr(engine, method)()
        assert called == engine.node_ids()
        assert engine.ring.down_nodes() == sorted(failing)
        assert metrics.value("store_node_failures_total") == 2


def test_empty_shards_rejected():
    with pytest.raises(ConfigurationError):
        ShardedStorageService([])
