"""Replica repair and ring rebalancing for replicated deployments.

Replication (``replicas`` > 1 on
:class:`~repro.storage.sharding.ShardedStorageService`) keeps a write
available through node failures, but leaves two kinds of debt behind:

* **under-replication** — a chunk written at quorum while one of its
  owners was down has fewer than R live copies, and a node that lost a
  disk comes back empty;
* **misplacement** — after a join/leave, ~1/N of the keyspace has new
  owners that do not hold their keys yet.

:class:`ReplicaRepairer` pays the first debt: it scans every node's
inventory (the ``chunk_list``/``recipe_list``/``stub_list`` surface),
compares it against ring ownership, and re-replicates anything missing
from an owner, copying from any intact holder.  A file's metadata moves
as one ``(stub file, recipe)`` pair (``file_get_many``/``file_commit``):
a node holds a file only when it lists both objects.  Corruption detection
runs :func:`repro.storage.fsck.fsck` when a node is an in-process
:class:`~repro.core.server.REEDServer` (its
:class:`~repro.storage.datastore.DataStore` is directly reachable), and
re-hashes fetched replicas over RPC.

:func:`rebalance` pays the second: given the ring as it was *before* a
membership change, it migrates exactly the keys whose ownership moved —
the minimal-movement property of consistent hashing means that is ~1/N
of the keyspace, not a full reshuffle.

Progress is reported through :mod:`repro.obs`:

* ``replica_repairs_total`` — replica copies restored by the repairer,
* ``replicas_missing`` — gauge: (key, owner) pairs still lacking a copy
  after the latest scan (0 when fully replicated),
* ``ring_keys_moved_total`` — keys migrated by :func:`rebalance`.

Deletes are *not* repaired (a delete that missed a down node resurfaces
when that node returns; full tombstoning is out of scope, matching the
garbage-collection item on the roadmap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint as _fingerprint
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.datastore import DataStore
from repro.storage.fsck import fsck
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError, NotFoundError, StorageError

#: Keys per batched copy (one ``get_many``/``put_many`` or
#: ``file_get_many``/``file_commit`` pair).
REPAIR_BATCH = 128


def _replay_refcounts(
    store: ShardedStorageService, source: str, target: str, batch: list[bytes]
) -> None:
    """Clone the source replica's reference counts onto fresh copies.

    ``put`` lands a restored chunk with refcount 1 regardless of how
    many files reference it; without the replay the first file delete
    would garbage-collect the restored replica while other files still
    point at it.
    """
    counts = store.node_refcounts(source, batch)
    extra = [(fp, count - 1) for fp, count in zip(batch, counts) if count > 1]
    if extra:
        store.node_addref_many(target, extra)


def _copy_chunks(
    store: ShardedStorageService, source: str, target: str, batch: list[bytes]
) -> None:
    blobs = store.node_get_many(source, batch)
    store.node_put_many(target, list(zip(batch, blobs)))
    _replay_refcounts(store, source, target, batch)


def _copy_files(
    store: ShardedStorageService, source: str, target: str, batch: list[str]
) -> None:
    pairs = store.node_file_get_many(source, batch)
    store.node_file_commit(
        target,
        [(file_id, stub, recipe) for file_id, (stub, recipe) in zip(batch, pairs)],
    )


def _files_on(store: ShardedStorageService, node: str) -> tuple[set[str], set[str]]:
    """(every file id the node lists, the ids it holds in full)."""
    stubs = set(store.node_stub_list(node))
    recipes = set(store.node_recipe_list(node))
    return stubs | recipes, stubs & recipes


def _batches(plans: dict[str, dict[str, list]]):
    """``(source, target, keys)`` per batched copy of a target→source plan."""
    for target, sources in plans.items():
        for source, keys in sources.items():
            for start in range(0, len(keys), REPAIR_BATCH):
                yield source, target, keys[start : start + REPAIR_BATCH]


def _local_store(store: ShardedStorageService, node: str) -> DataStore | None:
    """The node's data store when the node is an in-process server."""
    service = store.node_service(node)
    return service.store if isinstance(service, REEDServer) else None


@dataclass
class RepairReport:
    """Result of one repair scan."""

    nodes_scanned: int = 0
    #: Nodes revived by the pre-scan probe (previously marked down).
    revived_nodes: list[str] = field(default_factory=list)
    #: Nodes that failed mid-scan and were excluded from this pass
    #: (transport failures are also marked down on the ring).
    failed_nodes: list[str] = field(default_factory=list)
    chunks_checked: int = 0
    #: (chunk, owner) pairs found lacking a replica before repair.
    missing_replicas: int = 0
    #: Replicas whose stored bytes failed their integrity check.
    corrupt_replicas: int = 0
    chunks_repaired: int = 0
    #: Files whose ``(stub file, recipe)`` pair was copied to an owner.
    files_repaired: int = 0
    #: (key, owner) pairs that could not be restored — no intact holder
    #: or the copy itself failed.  Nonzero means data is at risk.
    unrepaired: int = 0

    @property
    def repairs(self) -> int:
        return self.chunks_repaired + self.files_repaired


@dataclass
class RebalanceReport:
    """Result of one post-membership-change migration."""

    keys_checked: int = 0
    #: Keys whose ring ownership changed relative to the old ring.
    keys_moved: int = 0
    copies_made: int = 0


class ReplicaRepairer:
    """Scan-and-repair engine over the replication engine.

    Uses the engine's per-node surface (``node_chunk_list``,
    ``node_get_many``, ``node_put_many``, the recipe/stub listings with
    ``node_file_get_many``/``node_file_commit``, and
    ``node_refcounts``/``node_addref_many`` for reference-count replay),
    which works the same over in-process servers and RPC stubs.
    """

    def __init__(
        self,
        store: ShardedStorageService,
        metrics: MetricsRegistry | None = None,
        verify_hashes: bool = False,
    ) -> None:
        if not isinstance(store, ShardedStorageService):
            raise ConfigurationError(
                "repairer needs a ring-placed store (ShardedStorageService)"
            )
        self.store = store
        self.verify_hashes = verify_hashes
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_repairs = self.metrics.counter(
            "replica_repairs_total",
            "Replica copies restored by the repair daemon.",
        )
        self._m_missing = self.metrics.gauge(
            "replicas_missing",
            "(key, owner) pairs lacking a replica after the latest scan.",
        )
        self._m_scans = self.metrics.counter(
            "repair_scans_total",
            "Repair scans completed.",
        )
        #: Bumped by the background daemon for every pass that raised.
        self.pass_failures = self.metrics.counter(
            "repair_scan_failures_total",
            "Repair passes aborted by an unexpected error.",
        )

    # -- inventory --------------------------------------------------------------

    def _live_nodes(self) -> list[str]:
        return [
            node
            for node in self.store.node_ids()
            if self.store.ring.is_up(node)
        ]

    def _corrupt_on(self, node: str, fingerprints: list[bytes]) -> set[bytes]:
        """Integrity-check one node's chunks.

        Runs a real :func:`fsck` pass (index-vs-container cross-check)
        when the node is an in-process server; over RPC it re-hashes the
        fetched replicas.  A read the node answers with a
        :class:`StorageError` marks the chunk corrupt; a transport error
        (``ProtocolError``, ``OSError``) propagates, and the scan counts
        the node as failed.
        """
        local = _local_store(self.store, node)
        if local is not None:
            return set(fsck(local, verify_hashes=True).corrupt)
        corrupt: set[bytes] = set()
        for start in range(0, len(fingerprints), REPAIR_BATCH):
            batch = fingerprints[start : start + REPAIR_BATCH]
            try:
                blobs = self.store.node_get_many(node, batch)
            except StorageError:
                # Indexed but unreadable (missing, or a damaged container
                # frame): every chunk of the batch is suspect; re-check
                # one by one.
                for fp in batch:
                    try:
                        blob = self.store.node_get_many(node, [fp])[0]
                    except StorageError:
                        corrupt.add(fp)
                        continue
                    if _fingerprint(blob) != fp:
                        corrupt.add(fp)
                continue
            for fp, blob in zip(batch, blobs):
                if _fingerprint(blob) != fp:
                    corrupt.add(fp)
        return corrupt

    def _purge_corrupt(self, node: str, fingerprints: set[bytes]) -> set[bytes]:
        """Drop corrupt replicas so a fresh copy can land.

        ``put`` deduplicates by fingerprint, so a corrupt-but-indexed
        chunk must leave the index before re-replication overwrites it.
        Only possible on an in-process server; over RPC the corrupt
        replicas are reported but kept (the read path already routes
        around them via fallback), and :meth:`_plan` sends no copy to
        them.  Returns the fingerprints purged.
        """
        store = _local_store(self.store, node)
        if store is None:
            return set()
        purged: set[bytes] = set()
        for fp in fingerprints:
            try:
                while store.has_chunk(fp):
                    store.release_chunk(fp)
            except NotFoundError:
                pass
            purged.add(fp)
        return purged

    def _owners_of(self, key, failed: set[str]) -> list[str]:
        return [
            node
            for node in self.store.ring.preference(key, self.store.replicas)
            if self.store.ring.is_up(node) and node not in failed
        ]

    # -- the scan ---------------------------------------------------------------

    def run_once(self) -> RepairReport:
        """One full scan-and-repair pass over chunks and files.

        A node failing mid-scan (e.g. dying between the liveness probe
        and its inventory read) is excluded from the pass instead of
        aborting it.  The engine's classifier
        (:meth:`~repro.storage.sharding.ShardedStorageService.note_failure`)
        also marks it down on a transport failure, so it is neither
        counted as a lacking owner nor targeted for copies until a later
        probe revives it; the next pass retries either way.
        """
        report = RepairReport(revived_nodes=self.store.probe_nodes())

        # Chunk inventory: fingerprint -> nodes holding an intact copy.
        holders: dict[bytes, set[str]] = {}
        #: Corrupt replicas left in place: no copy can land over them.
        stuck: dict[bytes, set[str]] = {}
        live: list[str] = []
        for node in self._live_nodes():
            try:
                inventory = self.store.node_chunk_list(node)
                corrupt = (
                    self._corrupt_on(node, inventory)
                    if self.verify_hashes
                    else set()
                )
            except Exception as exc:  # noqa: BLE001 - node died mid-scan
                report.failed_nodes.append(node)
                self.store.note_failure(node, exc)
                continue
            live.append(node)
            if corrupt:
                report.corrupt_replicas += len(corrupt)
                for fp in corrupt - self._purge_corrupt(node, corrupt):
                    stuck.setdefault(fp, set()).add(node)
            for fp in inventory:
                if fp not in corrupt:
                    holders.setdefault(fp, set()).add(node)
            for fp in corrupt:
                holders.setdefault(fp, set())
        report.nodes_scanned = len(live)
        report.chunks_checked = len(holders)
        plans = self._plan(holders, set(report.failed_nodes), report, stuck)
        report.chunks_repaired = self._copy(plans, _copy_chunks, report)
        report.files_repaired = self._repair_files(live, report)
        self._m_missing.set(float(report.unrepaired))
        self._m_scans.inc()
        return report

    def _plan(
        self,
        holders: dict,
        failed: set[str],
        report: RepairReport,
        stuck: dict | None = None,
    ) -> dict[str, dict[str, list]]:
        """Target node -> source node -> keys its owners lack.

        An owner in ``stuck[key]`` holds a corrupt copy that could not
        be purged: a copy would deduplicate against it (and add a
        reference), so it is counted unrepaired instead.
        """
        plans: dict[str, dict[str, list]] = {}
        for key, holding in holders.items():
            lacking = [
                node for node in self._owners_of(key, failed) if node not in holding
            ]
            if not lacking:
                continue
            report.missing_replicas += len(lacking)
            blocked = stuck.get(key, set()) if stuck else set()
            report.unrepaired += sum(node in blocked for node in lacking)
            lacking = [node for node in lacking if node not in blocked]
            if not lacking:
                continue
            if not holding:
                report.unrepaired += len(lacking)
                continue
            source = min(holding)  # deterministic pick
            for target in lacking:
                plans.setdefault(target, {}).setdefault(source, []).append(key)
        return plans

    def _copy(self, plans, copy, report: RepairReport) -> int:
        """Run every batched copy of ``plans``; returns the keys copied."""
        copied = 0
        for source, target, batch in _batches(plans):
            try:
                copy(self.store, source, target, batch)
            except Exception:  # noqa: BLE001 - keep scanning
                report.unrepaired += len(batch)
                continue
            copied += len(batch)
            self._m_repairs.inc(len(batch))
        return copied

    def _repair_files(self, live: list[str], report: RepairReport) -> int:
        """Re-replicate file metadata, one ``(stub file, recipe)`` pair
        per file.

        An owner left with one object (an interrupted commit) counts as
        lacking and receives the full pair; a file no up node holds in
        full is counted unrepaired and never half-copied.
        """
        holders: dict[str, set[str]] = {}
        for node in live:
            try:
                listed, full = _files_on(self.store, node)
            except Exception as exc:  # noqa: BLE001 - node died mid-scan
                report.failed_nodes.append(node)
                self.store.note_failure(node, exc)
                continue
            for file_id in listed:
                holding = holders.setdefault(file_id, set())
                if file_id in full:
                    holding.add(node)
        plans = self._plan(holders, set(report.failed_nodes), report)
        return self._copy(plans, _copy_files, report)


def rebalance(
    store: ShardedStorageService,
    old_ring,
    metrics: MetricsRegistry | None = None,
) -> RebalanceReport:
    """Migrate keys whose ring ownership changed between two rings.

    Call with a :meth:`~repro.storage.sharding.HashRing.copy` snapshot
    taken *before* ``add_service``/``remove_service``.  Only keys whose preference list changed are copied —
    ~1/N of the keyspace per single-node membership change — and copies
    land on the new owners without deleting the old replicas (space is
    reclaimed by garbage collection, not here, so a mid-migration crash
    never loses the only copy).
    """
    registry = metrics if metrics is not None else default_registry()
    moved_total = registry.counter(
        "ring_keys_moved_total",
        "Keys migrated to new ring owners by rebalancing.",
    )
    report = RebalanceReport()
    live = [node for node in store.node_ids() if store.ring.is_up(node)]

    def plan(holders: dict) -> dict[str, dict[str, list]]:
        plans: dict[str, dict[str, list]] = {}
        for key, holding in holders.items():
            report.keys_checked += 1
            old_owners = set(old_ring.preference(key, store.replicas))
            new_owners = set(store.ring.preference(key, store.replicas))
            if new_owners == old_owners:
                continue
            report.keys_moved += 1
            moved_total.inc()
            source = min(holding)
            for target in new_owners - holding:
                if store.ring.is_up(target):
                    plans.setdefault(target, {}).setdefault(source, []).append(key)
        return plans

    chunk_holders: dict[bytes, set[str]] = {}
    file_holders: dict[str, set[str]] = {}
    for node in live:
        for fp in store.node_chunk_list(node):
            chunk_holders.setdefault(fp, set()).add(node)
        for file_id in _files_on(store, node)[1]:
            file_holders.setdefault(file_id, set()).add(node)
    for holders, copy in ((chunk_holders, _copy_chunks), (file_holders, _copy_files)):
        for source, target, batch in _batches(plan(holders)):
            copy(store, source, target, batch)
            report.copies_made += len(batch)
    return report
