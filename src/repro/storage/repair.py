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
from an owner, copying from any intact holder.  Corruption detection
runs :func:`repro.storage.fsck.fsck` when a node is an in-process
:class:`~repro.core.server.REEDServer` (its
:class:`~repro.storage.datastore.DataStore` is directly reachable), and
re-hashes fetched replicas over RPC (the same integrity check
:mod:`repro.storage.audit` performs).

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

import threading
from dataclasses import dataclass, field

from repro.core.server import REEDServer
from repro.crypto.hashing import fingerprint as _fingerprint
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.datastore import DataStore
from repro.storage.fsck import fsck
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError, NotFoundError, ProtocolError

#: Chunk copies per batched transfer (one ``get_many``/``put_many`` pair).
REPAIR_BATCH = 128

#: Exceptions that mean "the node, not the request, failed" — a node
#: raising one mid-scan is marked down and skipped for the rest of the
#: pass (same classification the client-side router uses).
_TRANSPORT_FAILURES = (ProtocolError, OSError)


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
    recipes_repaired: int = 0
    stubs_repaired: int = 0
    #: (key, owner) pairs that could not be restored — no intact holder
    #: or the copy itself failed.  Nonzero means data is at risk.
    unrepaired: int = 0

    @property
    def repairs(self) -> int:
        return self.chunks_repaired + self.recipes_repaired + self.stubs_repaired


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
    ``node_get_many``, ``node_put_many``, the recipe/stub equivalents,
    and ``node_refcounts``/``node_addref_many`` for reference-count
    replay), which works the same over in-process servers and RPC stubs.
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
        fetched replicas, which is the audit module's detection primitive.
        """
        local = _local_store(self.store, node)
        if local is not None:
            return set(fsck(local, verify_hashes=True).corrupt)
        corrupt: set[bytes] = set()
        for start in range(0, len(fingerprints), REPAIR_BATCH):
            batch = fingerprints[start : start + REPAIR_BATCH]
            try:
                blobs = self.store.node_get_many(node, batch)
            except NotFoundError:
                # Indexed but unreadable: every chunk of the batch is
                # suspect; re-check one by one.
                for fp in batch:
                    try:
                        blob = self.store.node_get_many(node, [fp])[0]
                    except NotFoundError:
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
        around them via fallback).  Returns the fingerprints purged.
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

    def _exclude_node(self, node: str, exc: Exception, report: RepairReport) -> None:
        """Drop a node that failed mid-scan from the rest of this pass.

        A transport failure also marks it down on the ring (matching
        the client router's classification) so it is neither counted as
        a lacking owner nor targeted for copies until a later probe
        revives it; the next pass retries either way.
        """
        report.failed_nodes.append(node)
        if isinstance(exc, _TRANSPORT_FAILURES) and self.store.ring.is_up(node):
            self.store.mark_down(node)

    def _owners_of(self, key, failed: set[str]) -> list[str]:
        return [
            node
            for node in self.store.ring.preference(key, self.store.replicas)
            if self.store.ring.is_up(node) and node not in failed
        ]

    # -- the scan ---------------------------------------------------------------

    def run_once(self) -> RepairReport:
        """One full scan-and-repair pass over chunks, recipes, and stubs.

        A node failing mid-scan (e.g. dying between the liveness probe
        and its inventory read) is excluded from the pass instead of
        aborting it — see :meth:`_exclude_node`.
        """
        report = RepairReport(revived_nodes=self.store.probe_nodes())

        # Chunk inventory: fingerprint -> nodes holding an intact copy.
        holders: dict[bytes, set[str]] = {}
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
                self._exclude_node(node, exc, report)
                continue
            live.append(node)
            if corrupt:
                report.corrupt_replicas += len(corrupt)
                self._purge_corrupt(node, corrupt)
            for fp in inventory:
                if fp not in corrupt:
                    holders.setdefault(fp, set()).add(node)
            for fp in corrupt:
                holders.setdefault(fp, set())
        report.nodes_scanned = len(live)
        report.chunks_checked = len(holders)
        failed = set(report.failed_nodes)

        # Plan: target node -> source node -> fingerprints to copy.
        plans: dict[str, dict[str, list[bytes]]] = {}
        for fp, holding in holders.items():
            owners = self._owners_of(fp, failed)
            lacking = [node for node in owners if node not in holding]
            if not lacking:
                continue
            report.missing_replicas += len(lacking)
            if not holding:
                report.unrepaired += len(lacking)
                continue
            source = min(holding)  # deterministic pick
            for target in lacking:
                plans.setdefault(target, {}).setdefault(source, []).append(fp)

        for target, sources in plans.items():
            for source, fps in sources.items():
                for start in range(0, len(fps), REPAIR_BATCH):
                    batch = fps[start : start + REPAIR_BATCH]
                    try:
                        blobs = self.store.node_get_many(source, batch)
                        self.store.node_put_many(
                            target, list(zip(batch, blobs))
                        )
                        _replay_refcounts(self.store, source, target, batch)
                    except Exception:  # noqa: BLE001 - keep scanning
                        report.unrepaired += len(batch)
                        continue
                    report.chunks_repaired += len(batch)
                    self._m_repairs.inc(len(batch))

        report.recipes_repaired = self._repair_named(
            live,
            self.store.node_recipe_list,
            self.store.node_recipe_get,
            self.store.node_recipe_put,
            report,
        )
        report.stubs_repaired = self._repair_named(
            live,
            self.store.node_stub_list,
            self.store.node_stub_get,
            self.store.node_stub_put,
            report,
        )
        self._m_missing.set(float(report.unrepaired))
        self._m_scans.inc()
        return report

    def _repair_named(self, live, list_fn, get_fn, put_fn, report) -> int:
        """Re-replicate one named-blob namespace (recipes or stub files)."""
        holders: dict[str, set[str]] = {}
        for node in live:
            if node in report.failed_nodes:
                continue
            try:
                listing = list_fn(node)
            except Exception as exc:  # noqa: BLE001 - node died mid-scan
                self._exclude_node(node, exc, report)
                continue
            for file_id in listing:
                holders.setdefault(file_id, set()).add(node)
        failed = set(report.failed_nodes)
        repaired = 0
        for file_id, holding in holders.items():
            owners = self._owners_of(file_id, failed)
            lacking = [node for node in owners if node not in holding]
            if not lacking:
                continue
            report.missing_replicas += len(lacking)
            try:
                data = get_fn(min(holding), file_id)
            except Exception:  # noqa: BLE001 - keep scanning
                report.unrepaired += len(lacking)
                continue
            for target in lacking:
                try:
                    put_fn(target, file_id, data)
                except Exception:  # noqa: BLE001 - keep scanning
                    report.unrepaired += 1
                    continue
                repaired += 1
                self._m_repairs.inc()
        return repaired


class RepairDaemon:
    """Background thread running :meth:`ReplicaRepairer.run_once` on an
    interval — the deployment's self-healing loop.

    Use as a context manager or call :meth:`start`/:meth:`stop`.
    :meth:`run_now` forces an immediate pass (tests, post-restart).
    """

    def __init__(
        self,
        repairer: ReplicaRepairer,
        interval: float = 30.0,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("repair interval must be positive")
        self.repairer = repairer
        self.interval = interval
        self.last_report: RepairReport | None = None
        #: Exception that aborted the most recent pass (None after a
        #: pass completes) — the daemon's health surface.
        self.last_error: Exception | None = None
        self.passes = 0
        self.failed_passes = 0
        self._m_scan_failures = repairer.metrics.counter(
            "repair_scan_failures_total",
            "Repair passes aborted by an unexpected error.",
        )
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    def _loop(self) -> None:
        # A failing pass must never kill the thread: a daemon that died
        # silently looks healthy while the deployment stops self-healing.
        # The error is recorded and the next interval retries.
        while not self._stop.is_set():
            try:
                self.run_now()
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                self.last_error = exc
                self.failed_passes += 1
                self._m_scan_failures.inc()
            self._wake.wait(self.interval)
            self._wake.clear()

    def run_now(self) -> RepairReport:
        with self._lock:
            report = self.repairer.run_once()
            self.last_report = report
            self.last_error = None
            self.passes += 1
            return report

    def start(self) -> None:
        if self._thread is not None:
            raise ConfigurationError("repair daemon already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="reed-repair", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> RepairDaemon:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


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

    # Chunks.
    holders: dict[bytes, set[str]] = {}
    for node in live:
        for fp in store.node_chunk_list(node):
            holders.setdefault(fp, set()).add(node)
    plans: dict[str, dict[str, list[bytes]]] = {}
    for fp, holding in holders.items():
        report.keys_checked += 1
        old_owners = set(old_ring.preference(fp, store.replicas))
        new_owners = set(store.ring.preference(fp, store.replicas))
        if new_owners == old_owners:
            continue
        report.keys_moved += 1
        moved_total.inc()
        targets = [
            node
            for node in new_owners - holding
            if store.ring.is_up(node)
        ]
        if not targets or not holding:
            continue
        source = min(holding)
        for target in targets:
            plans.setdefault(target, {}).setdefault(source, []).append(fp)
    for target, sources in plans.items():
        for source, fps in sources.items():
            for start in range(0, len(fps), REPAIR_BATCH):
                batch = fps[start : start + REPAIR_BATCH]
                blobs = store.node_get_many(source, batch)
                store.node_put_many(target, list(zip(batch, blobs)))
                _replay_refcounts(store, source, target, batch)
                report.copies_made += len(batch)

    # Recipes and stub files.
    for list_fn, get_fn, put_fn in (
        (store.node_recipe_list, store.node_recipe_get, store.node_recipe_put),
        (store.node_stub_list, store.node_stub_get, store.node_stub_put),
    ):
        named: dict[str, set[str]] = {}
        for node in live:
            for file_id in list_fn(node):
                named.setdefault(file_id, set()).add(node)
        for file_id, holding in named.items():
            report.keys_checked += 1
            old_owners = set(old_ring.preference(file_id, store.replicas))
            new_owners = set(store.ring.preference(file_id, store.replicas))
            if new_owners == old_owners:
                continue
            report.keys_moved += 1
            moved_total.inc()
            targets = [
                node
                for node in new_owners - holding
                if store.ring.is_up(node)
            ]
            if not targets or not holding:
                continue
            data = get_fn(min(holding), file_id)
            for target in targets:
                put_fn(target, file_id, data)
                report.copies_made += 1
    return report
