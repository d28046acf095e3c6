"""One commit per file: the folded flush, ``file_commit`` and ``file_get_many``.

An upload's flush rides its last chunk batch; nodes an earlier batch
touched but the last one did not get one bare flush, and the stub file
and recipe travel as one ``file_commit`` per owner before the key state
commits last.  Covered here:

* durability — every node restarted over its surviving backend restores
  every file bit-identically and fsck finds no journal gap, also with two
  concurrent uploads sharing one client's engine; honest chunks next to a
  forged one in a flushing batch are sealed and journaled;
* an interrupted commit leaves no partial file — a failure injected at
  the last chunk batch, at ``file_commit`` on one owner, or at the key
  state makes ``download`` raise a named error, and a retried upload
  restores bit-identically;
* the transport retries ``file_get_many`` blind across a server restart
  but never re-sends ``file_commit``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core.cluster import TcpCluster
from repro.core.server import REEDServer
from repro.core.service import RemoteStorageService
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import fingerprint
from repro.net import tcp
from repro.net.tcp import TcpConnection
from repro.obs.metrics import MetricsRegistry
from repro.storage.datastore import DataStore
from repro.storage.fsck import fsck
from repro.storage.recipes import FileRecipe
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import IntegrityError, NotFoundError, ProtocolError, StorageError

CHUNK = 4096
FIXED = ChunkingSpec(method="fixed", avg_size=CHUNK)


def _data(tag: bytes, chunks: int = 12) -> bytes:
    return HmacDrbg(tag).random_bytes(chunks * CHUNK)


# -- durability of the folded flush ------------------------------------------


def test_folded_flush_survives_a_restart_of_every_node():
    """One chunk per batch: nodes only an earlier batch touched get a bare
    flush, nodes nobody touched none, and everything survives a restart."""
    with TcpCluster(num_data_servers=4, chunking=FIXED, rng=HmacDrbg(b"fold")) as cluster:
        alice = cluster.new_client("alice")
        alice.upload_batch_bytes = CHUNK
        alice.storage.fetch_workers = 1
        files = {"solo": _data(b"solo")}
        result = alice.upload("solo", files["solo"])

        [recipe] = alice.storage.recipe_get_many(["solo"])
        refs = FileRecipe.decode(recipe).chunks
        ring = alice.storage.ring
        last = {ring.primary(refs[-1].fingerprint)}
        earlier = {ring.primary(ref.fingerprint) for ref in refs[:-1]}
        assert earlier - last, "the layout must leave a node for the bare flush"
        # One put per batch, one bare flush per node the last batch
        # missed, one file_commit (R=1): no other node is contacted.
        assert result.upload_batches == len(refs)
        assert result.store_round_trips == len(refs) + len(earlier - last) + 1

        # Two concurrent uploads share the client's engine and its set of
        # unflushed nodes.
        files.update(a=_data(b"concurrent-a", 9), b=_data(b"concurrent-b", 7))
        errors: list[Exception] = []

        def upload(name: str) -> None:
            try:
                alice.upload(name, files[name])
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=upload, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []

        for index in range(len(cluster.servers)):
            cluster.kill_data_server(index)
            cluster.restart_data_server(index)  # same backend, journal replayed
        alice.storage.probe_nodes()
        for name, data in files.items():
            assert alice.download(name).data == data
        for server in cluster.servers:
            report = fsck(server.store)
            assert report.clean and report.segment_gaps == []


def test_forged_chunk_in_a_flushing_batch_keeps_its_neighbours_durable():
    servers = [REEDServer() for _ in range(2)]
    engine = ShardedStorageService(servers, replicas=2)
    honest = [HmacDrbg(b"honest%d" % i).random_bytes(900) for i in range(4)]
    batch = [(fingerprint(data), data) for data in honest]
    batch.insert(2, (fingerprint(b"claimed"), b"forged bytes"))

    statuses = engine.chunk_put_many(batch, flush=True)

    assert isinstance(statuses[2], IntegrityError)
    assert [s for i, s in enumerate(statuses) if i != 2] == [True] * 4
    for server in servers:
        # A store rebuilt over the backend sees only what was sealed and
        # journaled before the reply left.
        rebooted = DataStore(server.store.backend)
        assert rebooted.get_many([fp for fp, _ in batch if fp != batch[2][0]]) == honest
        assert not rebooted.has_chunk(batch[2][0])
        assert fsck(rebooted).clean


UPLOADS_PER_WORKER = 25


def test_concurrent_uploads_leave_every_write_flushed():
    """Eight threads run uploads of one-chunk batches, each closed by a
    flushing batch, on one engine.  When a flushing batch returns, every
    chunk of its upload sits in a sealed container, and at the end a
    store rebuilt from each node's backend holds every chunk.  A lost
    update to the engine's set of unflushed nodes leaves a chunk behind
    in an open container."""
    servers = [REEDServer() for _ in range(4)]
    engine = ShardedStorageService(servers)
    errors: list[Exception] = []

    def sealed(fp: bytes) -> bool:
        store = engine.node_service(engine.ring.primary(fp)).store
        return store.index.lookup(fp).container_id < store.containers.open_container_id

    def upload(worker: int) -> None:
        try:
            rng = HmacDrbg(b"worker%d" % worker)
            for _upload in range(UPLOADS_PER_WORKER):
                batch = [rng.random_bytes(64) for _ in range(4)]
                fps = [fingerprint(data) for data in batch]
                for index, (fp, data) in enumerate(zip(fps, batch)):
                    last = index == len(batch) - 1
                    (status,) = engine.chunk_put_many([(fp, data)], flush=last)
                    assert status is True
                assert all(sealed(fp) for fp in fps)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=upload, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    durable = sum(len(DataStore(s.store.backend).list_chunks()) for s in servers)
    live = sum(len(s.store.list_chunks()) for s in servers)
    assert durable == live == 8 * UPLOADS_PER_WORKER * 4


# -- an interrupted commit leaves no partial file -----------------------------


def _fail_last_batch(system, client):
    real = client.storage.chunk_put_many

    def put_many(chunks, flush=False):
        if flush:
            raise RuntimeError("injected crash")
        return real(chunks, flush=flush)

    client.storage.chunk_put_many = put_many
    return lambda: setattr(client.storage, "chunk_put_many", real)


def _fail_commit_on_primary(system, client):
    """The file's primary owner writes the stub file, then dies."""
    node = client.storage.shard_for_file("doc")
    server = client.storage.node_service(node)
    real = server.file_commit

    def crash_after_stub(items):
        for file_id, stub_file, _recipe in items:
            server.store.put_stub_file(file_id, stub_file)
        raise OSError("injected crash")

    server.file_commit = crash_after_stub

    def undo():
        server.file_commit = real
        assert client.storage.probe_nodes() == [node]

    return undo


def _fail_keystate(system, client):
    real = system.keystore.put_many

    def put_many(records):
        return [RuntimeError("injected crash") for _ in records]

    system.keystore.put_many = put_many
    return lambda: setattr(system.keystore, "put_many", real)


@pytest.mark.parametrize(
    "inject, replicas, write_quorum",
    [
        (_fail_last_batch, 1, 1),
        (_fail_commit_on_primary, 1, 1),
        (_fail_commit_on_primary, 2, 2),
        (_fail_keystate, 1, 1),
    ],
    ids=["last-chunk-batch", "file-commit-w1", "file-commit-w2", "keystore-put"],
)
def test_interrupted_upload_leaves_no_partial_file(inject, replicas, write_quorum):
    system = build_system(
        num_data_servers=3,
        chunking=FIXED,
        rng=HmacDrbg(b"upload-crash"),
        replicas=replicas,
        write_quorum=write_quorum,
    )
    client = system.new_client("alice")
    client.upload_batch_bytes = 4 * CHUNK
    data = _data(b"doc")

    undo = inject(system, client)
    try:
        with pytest.raises((RuntimeError, OSError), match="injected crash"):
            client.upload("doc", data)
    finally:
        undo()
    # The key state commits last, so the file does not exist yet: a named
    # error, never bytes.
    with pytest.raises(StorageError):  # NotFoundError is one
        client.download("doc")

    client.upload("doc", data)
    assert client.download("doc").data == data


def test_commit_that_misses_one_owner_is_still_whole_at_w1():
    """R=2, W=1: the primary keeps only a stub file, the commit meets its
    quorum on the other owner, and the restore walks past the primary."""
    system = build_system(
        num_data_servers=3, chunking=FIXED, rng=HmacDrbg(b"degraded"), replicas=2
    )
    client = system.new_client("alice")
    data = _data(b"doc")
    undo = _fail_commit_on_primary(system, client)
    try:
        client.upload("doc", data)
    finally:
        undo()
    assert client.download("doc").data == data
    assert client.storage.metrics.value("store_degraded_writes_total") > 0


# -- transport retry: reads ride out a restart, commits are never re-sent -----


def _park_first(server, name: str):
    """Hold the first ``name`` call on ``server`` until released, then
    fail it, as in a process that died mid-call."""
    entered, release = threading.Event(), threading.Event()
    real = getattr(server, name)

    def parked(*args, **kwargs):
        if not entered.is_set():
            entered.set()
            release.wait(timeout=30)
            raise OSError("the process died mid-call")
        return real(*args, **kwargs)

    setattr(server, name, parked)
    return entered, release


def _patient_storage(
    cluster, monkeypatch
) -> tuple[ShardedStorageService, TcpConnection, MetricsRegistry]:
    """One node's engine over a connection that retries long enough to
    span a restart, and the registry that connection reports on."""
    monkeypatch.setattr(
        tcp, "RECONNECT_POLICY", dict(attempts=60, base_delay=0.01, cap=0.1)
    )
    metrics = MetricsRegistry()
    connection = TcpConnection(*cluster.storage_addresses[0], metrics=metrics)
    storage = ShardedStorageService([RemoteStorageService(connection.client())])
    return storage, connection, metrics


def _run(fn) -> tuple[threading.Thread, dict]:
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - asserted by the caller
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    return thread, outcome


def _restart_under(cluster, entered: threading.Event) -> REEDServer:
    """Kill and restart the node while a call is parked on it."""
    assert entered.wait(timeout=30)
    cluster.kill_data_server(0)  # the parked call's connection drops
    cluster.restart_data_server(0)
    return cluster.servers[0]


def test_restore_retries_file_get_across_a_restart(monkeypatch):
    with TcpCluster(num_data_servers=1, chunking=FIXED, rng=HmacDrbg(b"reread")) as cluster:
        alice = cluster.new_client("alice")
        data = _data(b"doc")
        alice.upload("doc", data)
        alice.storage, connection, metrics = _patient_storage(cluster, monkeypatch)

        entered, release = _park_first(cluster.servers[0], "file_get_many")
        thread, outcome = _run(lambda: alice.download("doc").data)
        _restart_under(cluster, entered)
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()

        assert outcome.get("value") == data, outcome.get("error")
        assert metrics.value("tcp_client_idempotent_retries_total") >= 1
        connection.close()


def test_interrupted_file_commit_is_never_resent(monkeypatch):
    with TcpCluster(num_data_servers=1, chunking=FIXED, rng=HmacDrbg(b"recommit")) as cluster:
        alice = cluster.new_client("alice")
        alice.storage, connection, _metrics = _patient_storage(cluster, monkeypatch)
        data = _data(b"doc")

        entered, release = _park_first(cluster.servers[0], "file_commit")
        thread, outcome = _run(lambda: alice.upload("doc", data))
        restarted = _restart_under(cluster, entered)
        resent: list = []
        real_commit = restarted.file_commit
        restarted.file_commit = lambda items: resent.append(items) or real_commit(items)
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()

        assert isinstance(outcome.get("error"), ProtocolError)
        assert resent == []
        with pytest.raises(NotFoundError):
            restarted.store.get_recipe("doc")
        with pytest.raises(NotFoundError):
            alice.download("doc")

        alice.storage.probe_nodes()
        alice.upload("doc", data)
        assert alice.download("doc").data == data
        assert len(resent) == 1
        connection.close()
