"""Stateful property test: the replication engine under outages and repair.

A hypothesis RuleBasedStateMachine drives batched chunk puts and
releases, file metadata puts and deletes, node outages and repair passes
against 3–4 in-process servers at R ∈ {1, 2, 3}, W = 1.  The model keeps
one reference-count table and one file table *per node*, because that
is what the engine promises: a write lands on every up owner, a release
or delete reaches only the up owners, and a repair pass revives the
nodes that answer, then copies every key onto the owners lacking it
(with the reference count of the lowest-id holder).

After every step it checks that

* every node's reference counts match the model exactly,
* every chunk one of whose up owners holds it reads back bit-identical
  through ``chunk_get_batch``, and every other chunk is ``NotFound``, and
* every file one of whose up owners holds it reads back through
  ``file_get_many`` as stored on its first such owner.

Deleted-stays-deleted across an outage is *not* asserted: a release or
delete that misses a down owner comes back at the next repair, and the
model reproduces that instead of forbidding it.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.storage.repair import ReplicaRepairer
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import NotFoundError, StorageError

PAYLOADS = [b"chunk-%d|" % i + bytes([i]) * (i % 5 + 1) for i in range(12)]
FINGERPRINTS = [fingerprint(payload) for payload in PAYLOADS]
BY_FP = dict(zip(FINGERPRINTS, PAYLOADS))
FILE_IDS = [f"file-{i}" for i in range(6)]

CHUNK_BATCHES = st.lists(st.sampled_from(FINGERPRINTS), min_size=1, max_size=6)
NODE_INDEX = st.integers(min_value=0, max_value=3)


class ReplicationMachine(RuleBasedStateMachine):
    @initialize(
        nodes=st.integers(min_value=3, max_value=4),
        replicas=st.integers(min_value=1, max_value=3),
    )
    def build(self, nodes, replicas):
        metrics = MetricsRegistry()
        self.engine = ShardedStorageService(
            [REEDServer() for _ in range(nodes)],
            metrics=metrics,
            replicas=replicas,
            write_quorum=1,
        )
        self.repairer = ReplicaRepairer(self.engine, metrics=metrics)
        self.nodes = self.engine.node_ids()
        self.up = {node: True for node in self.nodes}
        #: node -> fingerprint -> reference count (absent == 0)
        self.refs: dict[str, dict[bytes, int]] = {n: {} for n in self.nodes}
        #: node -> file id -> (recipe, stub file)
        self.files: dict[str, dict[str, tuple[bytes, bytes]]] = {
            n: {} for n in self.nodes
        }

    # -- model helpers --------------------------------------------------------

    def _owners(self, key) -> list[str]:
        return self.engine.ring.preference(key, self.engine.replicas)

    def _up_owners(self, key) -> list[str]:
        return [node for node in self._owners(key) if self.up[node]]

    def _readable(self, fp: bytes) -> bool:
        return any(self.refs[node].get(fp, 0) for node in self._up_owners(fp))

    def _file_read(self, file_id: str) -> tuple[bytes, bytes] | None:
        for node in self._up_owners(file_id):
            if file_id in self.files[node]:
                return self.files[node][file_id]
        return None

    # -- rules ------------------------------------------------------------------

    @rule(fps=CHUNK_BATCHES)
    def chunk_put_many(self, fps):
        statuses = self.engine.chunk_put_many([(fp, BY_FP[fp]) for fp in fps])
        for fp, status in zip(fps, statuses):
            owners = self._up_owners(fp)
            if not owners:
                assert isinstance(status, Exception)
                continue
            # The most-preferred up owner's answer: new iff it lacked it.
            assert status == (self.refs[owners[0]].get(fp, 0) == 0)
            for node in owners:
                self.refs[node][fp] = self.refs[node].get(fp, 0) + 1

    @rule(fps=CHUNK_BATCHES)
    def chunk_release_batch(self, fps):
        orphaned = False
        for fp in fps:
            owners = self._up_owners(fp)
            orphaned |= not owners
            for node in owners:
                if self.refs[node].get(fp, 0):
                    self.refs[node][fp] -= 1
        try:
            self.engine.chunk_release_batch(fps)
        except StorageError:
            assert orphaned  # some chunk had no up owner: quorum missed
        else:
            assert not orphaned

    @rule(
        items=st.lists(
            st.tuples(st.sampled_from(FILE_IDS), st.binary(min_size=1, max_size=24)),
            min_size=1,
            max_size=4,
            unique_by=lambda item: item[0],
        )
    )
    def file_commit(self, items):
        results = self.engine.file_commit(
            [(file_id, b"stub:" + recipe, recipe) for file_id, recipe in items]
        )
        for (file_id, recipe), result in zip(items, results):
            owners = self._up_owners(file_id)
            if not owners:
                assert isinstance(result, Exception)
                continue
            assert result is None
            for node in owners:
                self.files[node][file_id] = (recipe, b"stub:" + recipe)

    @rule(
        file_ids=st.lists(
            st.sampled_from(FILE_IDS), min_size=1, max_size=3, unique=True
        )
    )
    def meta_delete_many(self, file_ids):
        results = self.engine.meta_delete_many(file_ids)
        for file_id, result in zip(file_ids, results):
            owners = self._up_owners(file_id)
            if not owners:
                assert isinstance(result, Exception)
                continue
            assert result is None
            for node in owners:
                self.files[node].pop(file_id, None)

    @rule(index=NODE_INDEX)
    def mark_down(self, index):
        node = self.nodes[index % len(self.nodes)]
        self.engine.mark_down(node)
        self.up[node] = False

    @rule(index=NODE_INDEX)
    def mark_up(self, index):
        node = self.nodes[index % len(self.nodes)]
        self.engine.mark_up(node)
        self.up[node] = True

    @rule()
    def repair(self):
        report = self.repairer.run_once()
        # In-process servers always answer the probe: every node revives.
        assert sorted(report.revived_nodes) == sorted(
            node for node, up in self.up.items() if not up
        )
        self.up = {node: True for node in self.nodes}
        assert report.unrepaired == 0
        for fp in FINGERPRINTS:
            holders = sorted(n for n in self.nodes if self.refs[n].get(fp, 0))
            if not holders:
                continue
            count = self.refs[holders[0]][fp]
            for node in self._owners(fp):
                if not self.refs[node].get(fp, 0):
                    self.refs[node][fp] = count
        for file_id in FILE_IDS:
            holders = sorted(n for n in self.nodes if file_id in self.files[n])
            if not holders:
                continue
            stored = self.files[holders[0]][file_id]
            for node in self._owners(file_id):
                self.files[node].setdefault(file_id, stored)

    # -- invariants -------------------------------------------------------------

    @invariant()
    def refcounts_match_model(self):
        for node in self.nodes:
            counts = self.engine.node_service(node).store.refcount_many(
                FINGERPRINTS
            )
            assert counts == [self.refs[node].get(fp, 0) for fp in FINGERPRINTS]

    @invariant()
    def live_chunks_read_back(self):
        readable = [fp for fp in FINGERPRINTS if self._readable(fp)]
        assert self.engine.chunk_get_batch(readable) == [
            BY_FP[fp] for fp in readable
        ]
        for fp in FINGERPRINTS:
            if fp in readable:
                continue
            try:
                self.engine.chunk_get_batch([fp])
            except NotFoundError:
                continue
            raise AssertionError(f"chunk {fp.hex()} read back from no holder")

    @invariant()
    def files_read_back(self):
        recipes = self.engine.recipe_get_many(FILE_IDS)
        files = self.engine.file_get_many(FILE_IDS)
        for file_id, recipe, stored in zip(FILE_IDS, recipes, files):
            expected = self._file_read(file_id)
            if expected is None:
                assert isinstance(recipe, Exception)
                assert isinstance(stored, Exception)
            else:
                assert recipe == expected[0]
                assert stored == (expected[1], expected[0])


ReplicationMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestReplicationStateful = ReplicationMachine.TestCase
