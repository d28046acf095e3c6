"""Replicated placement across the data-store servers.

The paper's testbed runs four data-store servers plus one key-store
server; a client spreads its data across all data servers so each
processes a smaller share (Section V-B, "Parallelization").  This module
routes chunk operations by fingerprint (so a chunk deterministically
lives on the same nodes and global deduplication is preserved) and
recipes/stub files by file identifier.

Placement is a seeded **consistent-hash ring with virtual nodes**
(:class:`HashRing`): every node owns many pseudo-random arcs of a
64-bit circle, a key belongs to the first ``replicas`` distinct nodes
clockwise of its hashed position, and membership changes move only the
keys whose arcs changed owner (~1/N of them) instead of reshuffling
every placement the way ``hash mod N`` does.

:class:`ShardedStorageService` is the one replication engine on top of
the ring: it stripes and replicates over any list of storage services
(in-process :class:`~repro.core.server.REEDServer` nodes or RPC stubs),
enforces the write quorum, falls back through replicas on reads, and
exposes the per-node surface that :mod:`repro.storage.repair` and
compaction fan-out use.

.. note:: **Placement compatibility.**  Earlier revisions placed chunks
   with ``int(fingerprint) mod shards`` and files with
   ``sum(file_id.encode()) mod shards`` — the latter collided all
   anagram file ids onto one shard.  Both now route through the same
   ring hash, so data written by an older deployment must be migrated
   (see :func:`repro.storage.repair.rebalance`) before a new client can
   find it.
"""

from __future__ import annotations

import bisect
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.crypto.hashing import sha256
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.util.errors import (
    ConfigurationError,
    NotFoundError,
    ProtocolError,
    StorageError,
)

if TYPE_CHECKING:
    from repro.core.server import StorageService

#: Upper bound on the scatter-gather pool: reads fan out one task per
#: shard touched, and more threads than shards never helps.
DEFAULT_FETCH_WORKERS = 8

#: Virtual nodes per physical node.  64 arcs keep per-node ownership
#: within a few percent of 1/N while membership changes stay cheap.
DEFAULT_VNODES = 64

#: Default seed for ring hashing.  Every client of one deployment must
#: use the same seed (and the same node order) or placements diverge.
RING_SEED = b"reed-ring-v1"


class HashRing:
    """A seeded consistent-hash ring with virtual nodes.

    Nodes are opaque string ids.  Each node projects ``vnodes``
    pseudo-random points onto a 64-bit circle; a key's **preference
    list** is the first ``n`` *distinct* nodes clockwise of the key's
    own hashed position.  The ring is fully deterministic in
    ``(seed, vnodes, node ids)`` — two clients that agree on those see
    identical placement with no coordination.

    Nodes can be marked **down** without leaving the ring: a down node
    keeps owning its arcs (so its keys come home when it recovers) but
    readers and writers skip it.  ``remove_node`` is the membership
    change: its arcs are re-owned by the survivors.
    """

    def __init__(
        self,
        nodes: list[str] | tuple[str, ...] = (),
        vnodes: int = DEFAULT_VNODES,
        seed: bytes = RING_SEED,
    ) -> None:
        if vnodes < 1:
            raise ConfigurationError("need at least one virtual node per node")
        self.vnodes = vnodes
        self.seed = seed
        self._up: dict[str, bool] = {}
        self._positions: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add_node(node)

    # -- hashing ---------------------------------------------------------------

    def _hash(self, token: bytes) -> int:
        return int.from_bytes(sha256(self.seed + token)[:8], "big")

    def key_position(self, key: bytes | str) -> int:
        """Ring position of a key (chunk fingerprint or file id)."""
        if isinstance(key, str):
            key = key.encode("utf-8")
        return self._hash(b"k|" + key)

    # -- membership ------------------------------------------------------------

    def nodes(self) -> list[str]:
        """All member nodes, up or down, sorted."""
        return sorted(self._up)

    def live_nodes(self) -> list[str]:
        return sorted(node for node, up in self._up.items() if up)

    def down_nodes(self) -> list[str]:
        return sorted(node for node, up in self._up.items() if not up)

    def __len__(self) -> int:
        return len(self._up)

    def __contains__(self, node: str) -> bool:
        return node in self._up

    def is_up(self, node: str) -> bool:
        if node not in self._up:
            raise ConfigurationError(f"node {node!r} is not on the ring")
        return self._up[node]

    def add_node(self, node: str) -> None:
        if node in self._up:
            raise ConfigurationError(f"node {node!r} already on the ring")
        self._up[node] = True
        for index in range(self.vnodes):
            position = self._hash(f"n|{node}|{index}".encode("utf-8"))
            at = bisect.bisect_left(self._positions, position)
            # Equal positions (astronomically rare) order by node name so
            # every client breaks the tie the same way.
            while (
                at < len(self._positions)
                and self._positions[at] == position
                and self._owners[at] < node
            ):
                at += 1
            self._positions.insert(at, position)
            self._owners.insert(at, node)

    def remove_node(self, node: str) -> None:
        if node not in self._up:
            raise ConfigurationError(f"node {node!r} is not on the ring")
        del self._up[node]
        kept = [i for i, owner in enumerate(self._owners) if owner != node]
        self._positions = [self._positions[i] for i in kept]
        self._owners = [self._owners[i] for i in kept]

    def mark_down(self, node: str) -> None:
        """Flag a node unreachable; it keeps its arcs (see class docs)."""
        if node not in self._up:
            raise ConfigurationError(f"node {node!r} is not on the ring")
        self._up[node] = False

    def mark_up(self, node: str) -> None:
        if node not in self._up:
            raise ConfigurationError(f"node {node!r} is not on the ring")
        self._up[node] = True

    def copy(self) -> "HashRing":
        """A snapshot (same seed/vnodes/membership); used by rebalancing."""
        twin = HashRing(vnodes=self.vnodes, seed=self.seed)
        for node, up in self._up.items():
            twin.add_node(node)
            if not up:
                twin.mark_down(node)
        return twin

    # -- placement -------------------------------------------------------------

    def preference(self, key: bytes | str, n: int = 1) -> list[str]:
        """The first ``n`` distinct nodes clockwise of ``key`` — its owners.

        Down nodes are **included**: ownership is a property of
        membership, not liveness, so a recovering node finds its keys
        where repair re-replicated them.  Callers skip down owners at
        read/write time.
        """
        if not self._up:
            raise ConfigurationError("ring has no nodes")
        n = min(n, len(self._up))
        start = bisect.bisect_right(self._positions, self.key_position(key))
        chosen: list[str] = []
        seen: set[str] = set()
        for step in range(len(self._owners)):
            owner = self._owners[(start + step) % len(self._owners)]
            if owner not in seen:
                seen.add(owner)
                chosen.append(owner)
                if len(chosen) == n:
                    break
        return chosen

    def primary(self, key: bytes | str) -> str:
        return self.preference(key, 1)[0]

    def ownership_shares(self, samples: int = 4096) -> dict[str, float]:
        """Approximate fraction of key space owned (primarily) per node.

        Deterministic: samples ``samples`` synthetic keys derived from
        the ring seed.  Used by ``reed ring`` and the balance tests.
        """
        counts = {node: 0 for node in self._up}
        for index in range(samples):
            counts[self.primary(b"sample|%d" % index)] += 1
        return {node: count / samples for node, count in sorted(counts.items())}


#: Transport-level exception classes that mean "the node, not the
#: request, failed" — these mark the node down on the ring and re-route
#: the work to its replicas.  Semantic errors (NotFound, Integrity, …)
#: never do.
_NODE_FAILURES = (ProtocolError, OSError)

#: Sentinel distinguishing "no replica answered yet" from a real ``None``
#: status in the per-item quorum fold.
_UNSET = object()


class ShardedStorageService:
    """Client-side striping over several storage services.

    Chunks are routed by fingerprint so global deduplication still works
    with any number of clients; recipes and stub files are routed by file
    identifier through the **same** consistent-hash ring (the old
    byte-sum file hash collided anagram ids).  Works identically over
    in-process servers and RPC stubs.

    With ``replicas`` R > 1 every key is written to its first R owners
    on the ring and a write succeeds once ``write_quorum`` W of them
    acknowledged; reads prefer the primary and fall back through the
    remaining owners on a miss or node failure.  Transport-level
    failures mark the node down (skipped until :meth:`probe_nodes` or
    :meth:`mark_up` revives it); the repair daemon
    (:class:`repro.storage.repair.ReplicaRepairer`) restores full
    replication afterwards.

    Every sub-service call is one round trip when the services are
    remote stubs; each is counted in ``store_round_trips_total`` and
    reported to the active :mod:`repro.obs.scope`, so callers attribute
    round trips to one operation without diffing.
    """

    def __init__(
        self,
        services: list[StorageService],
        metrics: MetricsRegistry | None = None,
        fetch_workers: int | None = None,
        replicas: int = 1,
        write_quorum: int | None = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if not services:
            raise ConfigurationError("need at least one storage service")
        if replicas < 1:
            raise ConfigurationError("need at least one replica")
        if replicas > len(services):
            raise ConfigurationError(
                f"cannot keep {replicas} replicas on {len(services)} node(s)"
            )
        if write_quorum is None:
            write_quorum = 1
        if not 1 <= write_quorum <= replicas:
            raise ConfigurationError(
                f"write quorum {write_quorum} outside 1..{replicas}"
            )
        self.replicas = replicas
        self.write_quorum = write_quorum
        #: Node ids are positional (``node-0``, ``node-1``, …): every
        #: client that lists the same services in the same order computes
        #: identical ring placement with no coordination.
        self._services: dict[str, StorageService] = {}
        self._order: list[str] = []
        self._next_node = 0
        self.ring = HashRing(vnodes=vnodes)
        for service in services:
            self._attach(service)
        if fetch_workers is None:
            fetch_workers = min(len(services), DEFAULT_FETCH_WORKERS)
        if fetch_workers < 1:
            raise ConfigurationError("need at least one fetch worker")
        self.fetch_workers = fetch_workers
        self._fetch_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # Mirrored into the registry (process totals + per-shard routing)
        # and the active attribution scope (per-upload deltas).
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_trips = self.metrics.counter(
            "store_round_trips_total",
            "Storage-layer sub-service calls (RPC round trips when remote).",
        )
        self._m_shard = self.metrics.counter(
            "store_shard_requests_total",
            "Storage-layer calls routed to each shard.",
            labelnames=("shard",),
        )
        self._m_fallbacks = self.metrics.counter(
            "store_read_fallbacks_total",
            "Reads served by a non-preferred replica after a miss/failure.",
        )
        self._m_degraded = self.metrics.counter(
            "store_degraded_writes_total",
            "Writes acknowledged below full replication (quorum still met).",
        )
        self._m_node_failures = self.metrics.counter(
            "store_node_failures_total",
            "Transport-level node failures that marked a shard down.",
        )
        self._m_down = self.metrics.gauge(
            "store_nodes_down",
            "Shards currently marked down on this client's ring.",
        )

    # -- membership ------------------------------------------------------------

    def _attach(self, service: StorageService, node_id: str | None = None) -> str:
        node = node_id if node_id is not None else f"node-{self._next_node}"
        self._next_node += 1
        self.ring.add_node(node)
        self._services[node] = service
        self._order.append(node)
        return node

    def node_ids(self) -> list[str]:
        """Node ids in attach order (the order services were listed)."""
        return list(self._order)

    def add_service(self, service: StorageService, node_id: str | None = None) -> str:
        """Join a node; returns its id.

        Membership changes must be applied in the same order on every
        client of a deployment.  Joining moves ~1/N of ring ownership —
        run :func:`repro.storage.repair.rebalance` with the pre-join
        ring snapshot to migrate exactly those keys.
        """
        return self._attach(service, node_id)

    def remove_service(self, node_id: str) -> StorageService:
        """Leave the ring; data on the departed node is NOT migrated
        automatically — rebalance first."""
        if node_id not in self._services:
            raise ConfigurationError(f"node {node_id!r} is not attached")
        if len(self._order) == 1:
            raise ConfigurationError("cannot remove the last storage node")
        if self.replicas > len(self._order) - 1:
            raise ConfigurationError(
                f"removing {node_id!r} leaves fewer nodes than replicas"
            )
        self.ring.remove_node(node_id)
        self._order.remove(node_id)
        service = self._services.pop(node_id)
        self._update_down_gauge()
        return service

    def mark_down(self, node_id: str) -> None:
        """Manually flag a node unreachable (reads/writes route around it)."""
        self.ring.mark_down(node_id)
        self._update_down_gauge()

    def mark_up(self, node_id: str) -> None:
        self.ring.mark_up(node_id)
        self._update_down_gauge()

    def probe_nodes(self) -> list[str]:
        """Re-check marked-down nodes with one cheap RPC each.

        Returns the node ids revived.  Called by the repair daemon at
        the start of every scan; callers can also invoke it manually
        after restoring a node.
        """
        revived: list[str] = []
        for node in self.ring.down_nodes():
            try:
                self._trip(node)
                self._services[node].chunk_exists_batch([])
            except Exception:  # noqa: BLE001 - still down
                continue
            self.ring.mark_up(node)
            revived.append(node)
        self._update_down_gauge()
        return revived

    def _update_down_gauge(self) -> None:
        self._m_down.set(float(len(self.ring.down_nodes())))

    def _note_failure(self, node: str, exc: Exception) -> bool:
        """Classify an exception; transport failures mark the node down.

        Returns True when the error was a node failure (caller should
        re-route), False for semantic errors (caller should fall back
        per item or surface them).
        """
        if not isinstance(exc, _NODE_FAILURES):
            return False
        if node in self.ring.nodes() and self.ring.is_up(node):
            self.ring.mark_down(node)
            self._m_node_failures.inc()
            self._update_down_gauge()
        return True

    # -- plumbing ---------------------------------------------------------------

    def _trip(self, node: str) -> None:
        self._m_trips.inc()
        self._m_shard.labels(shard=node).inc()
        obs_scope.add("store_round_trips")

    def _get_fetch_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._fetch_pool is None:
                self._fetch_pool = ThreadPoolExecutor(
                    max_workers=self.fetch_workers,
                    thread_name_prefix="reed-fetch",
                )
            return self._fetch_pool

    def close(self) -> None:
        """Reap the scatter-gather pool; it restarts lazily on next use."""
        with self._pool_lock:
            pool, self._fetch_pool = self._fetch_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- placement -------------------------------------------------------------

    def _owners(self, key: bytes | str) -> list[str]:
        return self.ring.preference(key, self.replicas)

    def _up_owners(self, key: bytes | str) -> list[str]:
        return [node for node in self._owners(key) if self.ring.is_up(node)]

    def shard_for_file(self, file_id: str) -> str:
        """Primary owner of a file id (ring-hashed, anagram-safe)."""
        return self.ring.primary(file_id)

    # -- replicated write/read engines -----------------------------------------

    def _replicated_batch_write(self, keys: list, items: list, call) -> list:
        """Write every item to all its up owners; fold to per-item status.

        ``call(service, sub_items)`` must return one status per item
        (``Exception`` marks a failed item).  The folded status is the
        most-preferred replica's answer when at least ``write_quorum``
        replicas succeeded, else the first error (never raises — the
        per-item batch protocol carries errors as values).
        """
        placements = [self._owners(key) for key in keys]
        per_node: dict[str, list[int]] = {}
        for position, owners in enumerate(placements):
            for node in owners:
                if self.ring.is_up(node):
                    per_node.setdefault(node, []).append(position)
        answers: dict[str, list] = {}
        slots: dict[str, dict[int, int]] = {}
        for node, positions in per_node.items():
            self._trip(node)
            try:
                answers[node] = call(
                    self._services[node], [items[p] for p in positions]
                )
            except Exception as exc:  # noqa: BLE001 - folded per item
                self._note_failure(node, exc)
                answers[node] = [exc] * len(positions)
            slots[node] = {p: i for i, p in enumerate(positions)}
        results: list = []
        for position, owners in enumerate(placements):
            successes = 0
            status: object = _UNSET
            first_error: Exception | None = None
            for node in owners:
                slot = slots.get(node, {}).get(position)
                if slot is None:
                    continue
                answer = answers[node][slot]
                if isinstance(answer, Exception):
                    if first_error is None:
                        first_error = answer
                else:
                    successes += 1
                    if status is _UNSET:
                        status = answer
            if successes >= self.write_quorum:
                if successes < len(owners):
                    self._m_degraded.inc()
                results.append(None if status is _UNSET else status)
            else:
                results.append(
                    first_error
                    or StorageError(
                        f"write quorum {self.write_quorum} not met "
                        f"({successes}/{len(owners)} replicas reachable)"
                    )
                )
        return results

    def _write_meta(self, file_id: str, call, tolerate=()) -> None:
        """Single-item replicated write (recipe/stub put and delete)."""
        successes = 0
        attempted = 0
        first_error: Exception | None = None
        for node in self._owners(file_id):
            if not self.ring.is_up(node):
                continue
            attempted += 1
            self._trip(node)
            try:
                call(self._services[node])
                successes += 1
            except tolerate:
                successes += 1
            except Exception as exc:  # noqa: BLE001 - folded into quorum
                self._note_failure(node, exc)
                if first_error is None:
                    first_error = exc
        if successes < self.write_quorum:
            if first_error is not None:
                raise first_error
            raise StorageError(
                f"write quorum {self.write_quorum} not met for {file_id!r} "
                f"({successes}/{attempted} replicas reachable)"
            )
        if successes < self.replicas:
            self._m_degraded.inc()

    def _read_meta(self, file_id: str, call):
        """Single-item read walking the owners in preference order."""
        last: Exception | None = None
        for node in self._owners(file_id):
            if not self.ring.is_up(node):
                continue
            self._trip(node)
            try:
                value = call(self._services[node])
            except Exception as exc:  # noqa: BLE001 - next replica
                self._note_failure(node, exc)
                last = exc
                continue
            if last is not None:
                self._m_fallbacks.inc()
            return value
        if last is not None:
            raise last
        raise StorageError(f"no live replica holds {file_id!r}")

    # -- chunk API --------------------------------------------------------------

    def chunk_exists_batch(self, fingerprints: list[bytes]) -> list[bool]:
        # One batched existence check per shard touched, never one per
        # fingerprint — the multi-chunk message of the batch protocol.
        # A "no", or a down/failed owner, falls back to the next replica,
        # so a chunk only a later owner holds (degraded write) reads
        # present, as it does for chunk_get_batch.  An unreachable key
        # conservatively reads "absent" (re-uploading is always safe —
        # the server deduplicates).
        flags = [False] * len(fingerprints)
        candidates = [self._up_owners(fp) for fp in fingerprints]
        cursor = [0] * len(fingerprints)
        unresolved = [p for p in range(len(fingerprints)) if candidates[p]]
        while unresolved:
            groups: dict[str, list[int]] = {}
            for position in unresolved:
                options = candidates[position]
                while (
                    cursor[position] < len(options)
                    and not self.ring.is_up(options[cursor[position]])
                ):
                    cursor[position] += 1
                if cursor[position] < len(options):
                    groups.setdefault(
                        options[cursor[position]], []
                    ).append(position)
            retry: list[int] = []
            for node, positions in groups.items():
                self._trip(node)
                try:
                    answers = self._services[node].chunk_exists_batch(
                        [fingerprints[p] for p in positions]
                    )
                except Exception as exc:  # noqa: BLE001 - re-route
                    self._note_failure(node, exc)
                    for position in positions:
                        cursor[position] += 1
                        retry.append(position)
                    continue
                for position, flag in zip(positions, answers):
                    if flag:
                        flags[position] = True
                    else:
                        cursor[position] += 1
                        retry.append(position)
            unresolved = retry
        return flags

    def chunk_put_batch(self, chunks: list[tuple[bytes, bytes]]) -> int:
        """Count-reply batch put over :meth:`chunk_put_many`.

        Every item is attempted (an honest chunk queued behind a forged
        one still lands), then the first per-item error is raised, since
        this entry point has no per-item error channel.
        """
        statuses = self.chunk_put_many(chunks)
        for status in statuses:
            if isinstance(status, Exception):
                raise status
        return sum(1 for status in statuses if status is True)

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]]
    ) -> list[bool | Exception]:
        """Per-item-status batch put, one sub-batch per shard touched.

        With replication each chunk lands on its R owners; the item
        succeeds at write quorum W and reports the most-preferred
        replica's new/dup status.
        """
        return self._replicated_batch_write(
            [fp for fp, _data in chunks],
            chunks,
            lambda service, batch: service.chunk_put_many(batch),
        )

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]:
        # Scatter-gather: group by preferred owner, issue all per-shard
        # sub-fetches concurrently, then restore request order by
        # position.  Counters and attribution scopes are preserved by
        # running each sub-fetch under a copy of the caller's context.
        # Items a node cannot serve fall back through the remaining
        # replicas (probing with ``has_many`` to split semantic misses
        # from node failures).
        results: list[bytes | None] = [None] * len(fingerprints)
        candidates = [self._up_owners(fp) for fp in fingerprints]
        cursor = [0] * len(fingerprints)
        unresolved = list(range(len(fingerprints)))
        first_round = True

        def fetch(node: str, positions: list[int]) -> list[bytes]:
            self._trip(node)
            return self._services[node].chunk_get_batch(
                [fingerprints[p] for p in positions]
            )

        while unresolved:
            groups: dict[str, list[int]] = {}
            exhausted: list[int] = []
            for position in unresolved:
                options = candidates[position]
                while (
                    cursor[position] < len(options)
                    and not self.ring.is_up(options[cursor[position]])
                ):
                    cursor[position] += 1
                if cursor[position] >= len(options):
                    exhausted.append(position)
                else:
                    groups.setdefault(
                        options[cursor[position]], []
                    ).append(position)
            if exhausted:
                shown = ", ".join(fingerprints[p].hex() for p in exhausted[:8])
                suffix = (
                    "" if len(exhausted) <= 8 else f" (+{len(exhausted) - 8} more)"
                )
                raise NotFoundError(
                    f"{len(exhausted)} chunk(s) missing from storage: "
                    f"{shown}{suffix}"
                )
            ordered = list(groups.items())
            if first_round and len(ordered) > 1 and self.fetch_workers > 1:
                pool = self._get_fetch_pool()
                futures = [
                    pool.submit(
                        contextvars.copy_context().run, fetch, node, positions
                    )
                    for node, positions in ordered
                ]
                answer_sets: list = []
                for future in futures:
                    try:
                        answer_sets.append(future.result())
                    except Exception as exc:  # noqa: BLE001 - handled below
                        answer_sets.append(exc)
            else:
                answer_sets = []
                for node, positions in ordered:
                    try:
                        answer_sets.append(fetch(node, positions))
                    except Exception as exc:  # noqa: BLE001 - handled below
                        answer_sets.append(exc)
            retry: list[int] = []
            for (node, positions), answer_set in zip(ordered, answer_sets):
                if isinstance(answer_set, Exception):
                    retry.extend(
                        self._salvage_group(
                            node, positions, fingerprints, results, cursor,
                            answer_set,
                        )
                    )
                else:
                    # A short reply (a buggy or truncating shard) must
                    # not silently drop chunks: treat the unanswered
                    # tail as misses on this node and re-route them.
                    for position in positions[len(answer_set):]:
                        cursor[position] += 1
                        retry.append(position)
                    for position, data in zip(positions, answer_set):
                        results[position] = data
                        if cursor[position] > 0:
                            self._m_fallbacks.inc()
            unresolved = retry
            first_round = False
        return [data for data in results if data is not None]

    def _salvage_group(
        self,
        node: str,
        positions: list[int],
        fingerprints: list[bytes],
        results: list,
        cursor: list[int],
        error: Exception,
    ) -> list[int]:
        """Recover from one failed ``chunk_get_batch`` sub-fetch.

        A node failure re-routes every item to its next replica.  A
        semantic failure (some fingerprint missing on this node) probes
        ``has_many`` to learn which items the node *does* hold, fetches
        those, and re-routes only the misses.  Returns the positions
        still unresolved.
        """
        if self._note_failure(node, error):
            for position in positions:
                cursor[position] += 1
            return list(positions)
        try:
            self._trip(node)
            held = self._services[node].chunk_exists_batch(
                [fingerprints[p] for p in positions]
            )
        except Exception as exc:  # noqa: BLE001 - node died mid-salvage
            self._note_failure(node, exc)
            for position in positions:
                cursor[position] += 1
            return list(positions)
        have = [p for p, flag in zip(positions, held) if flag]
        lack = [p for p, flag in zip(positions, held) if not flag]
        if have:
            try:
                self._trip(node)
                fetched = self._services[node].chunk_get_batch(
                    [fingerprints[p] for p in have]
                )
            except Exception as exc:  # noqa: BLE001 - node died mid-salvage
                self._note_failure(node, exc)
                lack = list(positions)
            else:
                for position, data in zip(have, fetched):
                    results[position] = data
                    if cursor[position] > 0:
                        self._m_fallbacks.inc()
        for position in lack:
            cursor[position] += 1
        return lack

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None:
        """Replicated release: every up owner drops one reference.

        One node's failure never aborts the other owners' sub-batches.
        A replica that never held a chunk (degraded write, or a wiped
        node the repair daemon refilled) counts as released — the
        server tolerates missing fingerprints item by item — and a
        transport failure marks the node down and moves on; the
        references it leaks are GC debt, not data loss.  A chunk raises
        (after every node was attempted) only when fewer than
        ``write_quorum`` owners acknowledged its release.
        """
        placements = [self._owners(fp) for fp in fingerprints]
        per_node: dict[str, list[int]] = {}
        for position, owners in enumerate(placements):
            for node in owners:
                if self.ring.is_up(node):
                    per_node.setdefault(node, []).append(position)
        successes = [0] * len(fingerprints)
        errors: list[Exception | None] = [None] * len(fingerprints)
        for node, positions in per_node.items():
            self._trip(node)
            try:
                self._services[node].chunk_release_batch(
                    [fingerprints[p] for p in positions]
                )
            except NotFoundError:
                # A pre-tolerance server aborts its sub-batch at the
                # first fingerprint it never held; everything it does
                # hold before that point was released, and a missing
                # replica needs no release — count the node as done.
                pass
            except Exception as exc:  # noqa: BLE001 - folded into quorum
                self._note_failure(node, exc)
                for position in positions:
                    if errors[position] is None:
                        errors[position] = exc
                continue
            for position in positions:
                successes[position] += 1
        for position, owners in enumerate(placements):
            if successes[position] >= self.write_quorum:
                if successes[position] < self.replicas:
                    self._m_degraded.inc()
                continue
            raise errors[position] or StorageError(
                f"write quorum {self.write_quorum} not met releasing "
                f"{fingerprints[position].hex()} "
                f"({successes[position]}/{len(owners)} replicas up)"
            )

    # -- recipes and stub files --------------------------------------------------

    def recipe_put(self, file_id: str, data: bytes) -> None:
        self._write_meta(
            file_id, lambda service: service.recipe_put(file_id, data)
        )

    def recipe_get(self, file_id: str) -> bytes:
        return self._read_meta(
            file_id, lambda service: service.recipe_get(file_id)
        )

    def recipe_delete(self, file_id: str) -> None:
        self._write_meta(
            file_id,
            lambda service: service.recipe_delete(file_id),
            tolerate=(NotFoundError,),
        )

    def recipe_list(self) -> list[str]:
        names: set[str] = set()
        for node in self._order:
            if not self.ring.is_up(node):
                continue
            self._trip(node)
            names.update(self._services[node].recipe_list())
        return sorted(names)

    def stub_put(self, file_id: str, data: bytes) -> None:
        self._write_meta(
            file_id, lambda service: service.stub_put(file_id, data)
        )

    def stub_get(self, file_id: str) -> bytes:
        return self._read_meta(
            file_id, lambda service: service.stub_get(file_id)
        )

    def stub_delete(self, file_id: str) -> None:
        self._write_meta(
            file_id,
            lambda service: service.stub_delete(file_id),
            tolerate=(NotFoundError,),
        )

    # -- batched metadata (rekey/delete pipelines) ----------------------------

    def _scatter_meta_puts(
        self, method: str, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]:
        """One per-item-status sub-batch per shard touched, file-routed."""
        return self._replicated_batch_write(
            [file_id for file_id, _data in items],
            items,
            lambda service, batch: getattr(service, method)(batch),
        )

    def _scatter_meta_gets(
        self, method: str, file_ids: list[str]
    ) -> list[bytes | Exception]:
        """Concurrent per-shard sub-fetches, like :meth:`chunk_get_batch`.

        Per-item failures (missing file on one shard) come back in place
        after falling back through the file's replicas; they never abort
        the other shards' sub-batches.
        """
        results: list[bytes | Exception | None] = [None] * len(file_ids)
        candidates = [self._up_owners(f) for f in file_ids]
        cursor = [0] * len(file_ids)
        last_error: list[Exception | None] = [None] * len(file_ids)
        unresolved = list(range(len(file_ids)))
        first_round = True

        def fetch(node: str, positions: list[int]) -> list:
            self._trip(node)
            return getattr(self._services[node], method)(
                [file_ids[p] for p in positions]
            )

        while unresolved:
            groups: dict[str, list[int]] = {}
            for position in unresolved:
                options = candidates[position]
                while (
                    cursor[position] < len(options)
                    and not self.ring.is_up(options[cursor[position]])
                ):
                    cursor[position] += 1
                if cursor[position] >= len(options):
                    results[position] = last_error[position] or NotFoundError(
                        f"no live replica holds {file_ids[position]!r}"
                    )
                else:
                    groups.setdefault(
                        options[cursor[position]], []
                    ).append(position)
            ordered = list(groups.items())
            if first_round and len(ordered) > 1 and self.fetch_workers > 1:
                pool = self._get_fetch_pool()
                futures = [
                    pool.submit(
                        contextvars.copy_context().run, fetch, node, positions
                    )
                    for node, positions in ordered
                ]
                answer_sets: list = []
                for future in futures:
                    try:
                        answer_sets.append(future.result())
                    except Exception as exc:  # noqa: BLE001 - handled below
                        answer_sets.append(exc)
            else:
                answer_sets = []
                for node, positions in ordered:
                    try:
                        answer_sets.append(fetch(node, positions))
                    except Exception as exc:  # noqa: BLE001 - handled below
                        answer_sets.append(exc)
            retry: list[int] = []
            for (node, positions), answer_set in zip(ordered, answer_sets):
                if isinstance(answer_set, Exception):
                    self._note_failure(node, answer_set)
                    for position in positions:
                        last_error[position] = answer_set
                        cursor[position] += 1
                        retry.append(position)
                    continue
                for position, answer in zip(positions, answer_set):
                    if isinstance(answer, Exception):
                        last_error[position] = answer
                        cursor[position] += 1
                        retry.append(position)
                    else:
                        results[position] = answer
                        if cursor[position] > 0:
                            self._m_fallbacks.inc()
            unresolved = retry
            first_round = False
        return results  # type: ignore[return-value]

    def recipe_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]:
        return self._scatter_meta_puts("recipe_put_many", items)

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        return self._scatter_meta_gets("recipe_get_many", file_ids)

    def stub_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]:
        return self._scatter_meta_puts("stub_put_many", items)

    def stub_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        return self._scatter_meta_gets("stub_get_many", file_ids)

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        """Replicated per-item delete: an item succeeds when every
        reachable owner deleted it (a replica that never held the file
        counts as deleted)."""
        return self._replicated_batch_write(
            file_ids,
            file_ids,
            lambda service, batch: [
                None if isinstance(answer, NotFoundError) else answer
                for answer in service.meta_delete_many(batch)
            ],
        )

    def flush(self) -> None:
        for node in self._order:
            if not self.ring.is_up(node):
                continue
            self._trip(node)
            self._services[node].flush()

    # -- compaction GC -------------------------------------------------------

    def _gc_fanout(self, op) -> dict:
        """Apply a per-node gc call on every up node; sum the counters
        and recompute the aggregate dead-space ratio."""
        total: dict = {}
        reached = 0
        for node in self._order:
            if not self.ring.is_up(node):
                continue
            self._trip(node)
            status = op(self._services[node])
            reached += 1
            for name, value in status.items():
                total[name] = total.get(name, 0) + value
        live = total.get("live_bytes", 0)
        dead = total.get("dead_bytes", 0)
        accounted = live + dead
        total["dead_space_ratio"] = dead / accounted if accounted else 0.0
        if reached:
            # Summing thresholds is meaningless; report the nodes' mean.
            total["threshold"] = total.get("threshold", 0.0) / reached
        return total

    def gc_status(self) -> dict:
        """Cluster-wide dead-space accounting (summed over up nodes)."""
        return self._gc_fanout(lambda service: service.gc_status())

    def gc_run(self, threshold: float | None = None) -> dict:
        """Run a compaction pass on every up node; summed status."""
        return self._gc_fanout(lambda service: service.gc_run(threshold))

    # -- per-node access (repair daemon / rebalancer) ---------------------------

    def node_service(self, node_id: str) -> StorageService:
        if node_id not in self._services:
            raise ConfigurationError(f"node {node_id!r} is not attached")
        return self._services[node_id]

    def node_chunk_list(self, node_id: str) -> list[bytes]:
        self._trip(node_id)
        return self.node_service(node_id).chunk_list()

    def node_get_many(self, node_id: str, fingerprints: list[bytes]) -> list[bytes]:
        self._trip(node_id)
        return self.node_service(node_id).chunk_get_batch(fingerprints)

    def node_put_many(
        self, node_id: str, chunks: list[tuple[bytes, bytes]]
    ) -> None:
        self._trip(node_id)
        for status in self.node_service(node_id).chunk_put_many(chunks):
            if isinstance(status, Exception):
                raise status

    def node_refcounts(self, node_id: str, fingerprints: list[bytes]) -> list[int]:
        self._trip(node_id)
        return self.node_service(node_id).chunk_refcount_batch(fingerprints)

    def node_addref_many(
        self, node_id: str, refs: list[tuple[bytes, int]]
    ) -> None:
        self._trip(node_id)
        self.node_service(node_id).chunk_addref_batch(refs)

    def node_recipe_list(self, node_id: str) -> list[str]:
        self._trip(node_id)
        return self.node_service(node_id).recipe_list()

    def node_recipe_get(self, node_id: str, file_id: str) -> bytes:
        self._trip(node_id)
        return self.node_service(node_id).recipe_get(file_id)

    def node_recipe_put(self, node_id: str, file_id: str, data: bytes) -> None:
        self._trip(node_id)
        self.node_service(node_id).recipe_put(file_id, data)

    def node_stub_list(self, node_id: str) -> list[str]:
        self._trip(node_id)
        return self.node_service(node_id).stub_list()

    def node_stub_get(self, node_id: str, file_id: str) -> bytes:
        self._trip(node_id)
        return self.node_service(node_id).stub_get(file_id)

    def node_stub_put(self, node_id: str, file_id: str, data: bytes) -> None:
        self._trip(node_id)
        self.node_service(node_id).stub_put(file_id, data)
