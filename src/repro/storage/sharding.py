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
compaction fan-out use.  Every read walks replicas through one engine
(:meth:`ShardedStorageService._replicated_read`), every write folds
per-item quorum through one (``_replicated_batch_write``), and every
all-node call goes through one broadcast (``_broadcast``).
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
    outcome,
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
    identifier through the **same** consistent-hash ring.  Works
    identically over in-process servers and RPC stubs.

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
        #: Threads of the scatter-gather pool: one per shard, capped
        #: (1 fetches serially).
        self.fetch_workers = min(len(services), DEFAULT_FETCH_WORKERS)
        self._fetch_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        #: Nodes whose chunk writes or releases may not be sealed and
        #: journaled yet, each with the sequence number of its latest
        #: write; an upload's last batch flushes them.
        self._unflushed: dict[str, int] = {}
        self._writes = 0
        self._unflushed_lock = threading.Lock()
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

    def note_failure(self, node: str, exc: Exception) -> bool:
        """Classify an exception; transport failures mark the node down.

        Returns True when the error was a node failure (caller should
        re-route), False for semantic errors (caller should fall back
        per item or surface them).  The repair scan shares this rule.
        """
        if not isinstance(exc, _NODE_FAILURES):
            return False
        if node in self.ring and self.ring.is_up(node):
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

    # -- the three engines: quorum write, replica read, broadcast -------------

    def _replicated_batch_write(
        self, keys: list, items: list, call, reached: set[str] | None = None
    ) -> list:
        """Write every item to all its up owners; fold to per-item status.

        ``call(service, sub_items)`` must return one status per item
        (``Exception`` marks a failed item; see :meth:`_per_item`).  The
        folded status is the most-preferred replica's answer when at
        least ``write_quorum`` replicas succeeded, else the first error
        (never raises — the per-item batch protocol carries errors as
        values).  Nodes whose sub-batch returned are added to
        ``reached``.
        """
        placements = [self._owners(key) for key in keys]
        per_node: dict[str, list[int]] = {}
        for position, owners in enumerate(placements):
            for node in owners:
                if self.ring.is_up(node):
                    per_node.setdefault(node, []).append(position)
        answers: dict[str, dict[int, object]] = {}
        for node, positions in per_node.items():
            self._trip(node)
            batch = [items[p] for p in positions]
            reply = outcome(call, self._services[node], batch)
            if reached is not None and not isinstance(reply, Exception):
                reached.add(node)
            answers[node] = dict(
                zip(positions, self._per_item(node, reply, len(batch)))
            )
        results: list = []
        for position, owners in enumerate(placements):
            successes = 0
            status: object = _UNSET
            first_error: Exception | None = None
            for node in owners:
                if node not in answers:
                    continue
                answer = answers[node][position]
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

    def _replicated_read(self, keys: list, call) -> list:
        """Per key, the answer of its first up owner that serves it.

        ``call(node, sub_keys)`` returns one answer per key (an
        ``Exception`` marks a miss on that node; see :meth:`_per_item`).
        Positions are grouped by their next up owner; the first round's
        groups fan out concurrently on the fetch pool, each under a copy
        of the caller's context so counters and attribution scopes carry
        over.  A failed key moves to its next replica.  A key whose
        owners are all exhausted gets its last error, or
        :class:`NotFoundError` if it has none.
        """
        results: list = [None] * len(keys)
        candidates = [self._up_owners(key) for key in keys]
        cursor = [0] * len(keys)
        last_error: list[Exception | None] = [None] * len(keys)
        unresolved = list(range(len(keys)))
        first_round = True

        def fetch(node: str, positions: list[int]) -> list:
            self._trip(node)
            return call(node, [keys[p] for p in positions])

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
                else:
                    results[position] = last_error[position] or NotFoundError(
                        f"no live replica holds {keys[position]!r}"
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
                replies = [outcome(future.result) for future in futures]
            else:
                replies = [outcome(fetch, *group) for group in ordered]
            unresolved = []
            for (node, positions), reply in zip(ordered, replies):
                answers = self._per_item(node, reply, len(positions))
                for position, answer in zip(positions, answers):
                    if isinstance(answer, Exception):
                        last_error[position] = answer
                        cursor[position] += 1
                        unresolved.append(position)
                    else:
                        results[position] = answer
                        if cursor[position] > 0:
                            self._m_fallbacks.inc()
            first_round = False
        return results

    def _per_item(self, node: str, reply, count: int) -> list:
        """One node's reply to a ``count``-item sub-batch, as exactly
        ``count`` answers.

        An exception the call raised answers every item (a node failure
        also marks the node down, :meth:`note_failure`); items a short
        reply left out fail on this node.
        """
        if isinstance(reply, Exception):
            self.note_failure(node, reply)
            return [reply] * count
        missing = count - len(reply)
        if missing <= 0:
            return reply
        unanswered = StorageError(f"{node} left the item unanswered")
        return [*reply, *[unanswered] * missing]

    def _broadcast(self, call, nodes: set[str] | None = None) -> list:
        """``call(node)`` on every up node (of ``nodes``), in attach
        order, one round trip each; the successful nodes' answers.

        Every node is attempted: a failure goes through
        :meth:`note_failure`, and the first one is raised at the end.
        """
        answers: list = []
        first_error: Exception | None = None
        for node in self._order:
            if not self.ring.is_up(node) or (nodes is not None and node not in nodes):
                continue
            self._trip(node)
            try:
                answers.append(call(node))
            except Exception as exc:  # noqa: BLE001 - raised after the rest
                self.note_failure(node, exc)
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        return answers

    # -- chunk API --------------------------------------------------------------

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]], flush: bool = False
    ) -> list[bool | Exception]:
        """Per-item-status batch put, one sub-batch per shard touched.

        With replication each chunk lands on its R owners; the item
        succeeds at write quorum W and reports the most-preferred
        replica's new/dup status.

        ``flush`` marks an upload's last batch.  It snapshots the nodes
        with unflushed writes *before* sending, has every node of this
        batch seal and journal right after its sub-batch, and sends one
        bare ``flush`` to each other node of the snapshot; nodes nobody
        wrote to are not contacted.  A node enters the set once its put
        returned and leaves it only when a flush that began after its
        latest write completed, so every earlier write of the upload is
        durable when this call returns, whatever concurrent uploads on
        the engine do.
        """
        keys = [fp for fp, _data in chunks]
        reached: set[str] = set()
        if not flush:
            results = self._replicated_batch_write(
                keys,
                chunks,
                lambda service, batch: service.chunk_put_many(batch),
                reached,
            )
            self._mark_unflushed(reached)
            return results
        with self._unflushed_lock:
            pending = dict(self._unflushed)
        results = self._replicated_batch_write(
            keys,
            chunks,
            lambda service, batch: service.chunk_put_many(batch, flush=True),
            reached,
        )
        self._flush_nodes(set(pending) - reached, pending, reached)
        return results

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]:
        """Chunks in request order, replicas walked per item; raises
        :class:`NotFoundError` naming the chunks no up owner served."""
        results = self._replicated_read(fingerprints, self._node_chunk_reads)
        missing = [
            fp for fp, data in zip(fingerprints, results)
            if isinstance(data, Exception)
        ]
        if missing:
            shown = ", ".join(fp.hex() for fp in missing[:8])
            suffix = "" if len(missing) <= 8 else f" (+{len(missing) - 8} more)"
            raise NotFoundError(
                f"{len(missing)} chunk(s) missing from storage: {shown}{suffix}"
            )
        return results

    def _node_chunk_reads(
        self, node: str, fingerprints: list[bytes]
    ) -> list[bytes | Exception]:
        """One node's whole-call chunk ``get`` as per-item results.

        A node failure propagates (the read walk re-routes the group).
        Any other failure means some chunk is missing there: a
        ``has_many`` probe learns which ones the node holds, those are
        fetched, and the rest come back as the original error.
        """
        service = self._services[node]
        try:
            return service.chunk_get_batch(fingerprints)
        except _NODE_FAILURES:
            raise
        except Exception as exc:  # noqa: BLE001 - probe which chunks it holds
            miss = exc
        self._trip(node)
        held = service.chunk_exists_batch(fingerprints)
        fetched = iter(())
        if any(held):
            self._trip(node)
            fetched = iter(
                service.chunk_get_batch(
                    [fp for fp, flag in zip(fingerprints, held) if flag]
                )
            )
        return [next(fetched, miss) if flag else miss for flag in held]

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None:
        """Replicated release: every up owner drops one reference.

        One node's failure never aborts the other owners' sub-batches.
        A replica that never held a chunk (degraded write, or a wiped
        node the repair daemon refilled) counts as released — the
        server skips fingerprints it does not index — and a transport
        failure marks the node down and moves on; the references it
        leaks are GC debt, not data loss.  After every node was
        attempted, the first chunk whose release fewer than
        ``write_quorum`` owners acknowledged raises its error.
        """

        def release(service, batch: list[bytes]) -> list[None]:
            service.chunk_release_batch(batch)
            return [None] * len(batch)

        reached: set[str] = set()
        results = self._replicated_batch_write(
            fingerprints, fingerprints, release, reached
        )
        self._mark_unflushed(reached)
        for status in results:
            if isinstance(status, Exception):
                raise status

    # -- file metadata (upload, restore, rekey, delete and listing) ------------

    def recipe_list(self) -> list[str]:
        listed = self._broadcast(lambda node: self._services[node].recipe_list())
        return sorted(set().union(*listed))

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        return self._replicated_read(
            file_ids, lambda node, ids: self._services[node].recipe_get_many(ids)
        )

    def file_commit(
        self, items: list[tuple[str, bytes, bytes]]
    ) -> list[None | Exception]:
        """Replicated ``(file_id, stub_file, recipe)`` writes: one
        per-item-status sub-batch per owner, both objects in it."""
        return self._replicated_batch_write(
            [file_id for file_id, _stub, _recipe in items],
            items,
            lambda service, batch: service.file_commit(batch),
        )

    def file_get_many(
        self, file_ids: list[str]
    ) -> list[tuple[bytes, bytes] | Exception]:
        """``(stub_file, recipe)`` per file, replicas walked per item."""
        return self._replicated_read(
            file_ids, lambda node, ids: self._services[node].file_get_many(ids)
        )

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
        """Seal and journal every up node."""
        with self._unflushed_lock:
            pending = dict(self._unflushed)
        self._flush_nodes(set(self._order), pending, set())

    def _mark_unflushed(self, nodes: set[str]) -> None:
        with self._unflushed_lock:
            for node in nodes:
                self._writes += 1
                self._unflushed[node] = self._writes

    def _flush_nodes(
        self, nodes: set[str], pending: dict[str, int], flushed: set[str]
    ) -> None:
        """Broadcast a bare ``flush`` to the up nodes of ``nodes``; then
        drop from the unflushed set every node of ``flushed`` (which
        gains the nodes just flushed) not written to since the
        ``pending`` snapshot was taken.  A failed node stays in the set.
        """

        def flush_node(node: str) -> None:
            self._services[node].flush()
            flushed.add(node)

        try:
            self._broadcast(flush_node, nodes)
        finally:
            with self._unflushed_lock:
                for node in flushed:
                    if node in pending and self._unflushed.get(node) == pending[node]:
                        del self._unflushed[node]

    # -- compaction GC -------------------------------------------------------

    def _gc_fanout(self, op) -> dict:
        """Apply a per-node gc call on every up node; sum the counters
        and recompute the aggregate dead-space ratio."""
        statuses = self._broadcast(lambda node: op(self._services[node]))
        total: dict = {}
        for status in statuses:
            for name, value in status.items():
                total[name] = total.get(name, 0) + value
        live = total.get("live_bytes", 0)
        dead = total.get("dead_bytes", 0)
        accounted = live + dead
        total["dead_space_ratio"] = dead / accounted if accounted else 0.0
        if statuses:
            # Summing thresholds is meaningless; report the nodes' mean.
            total["threshold"] = total.get("threshold", 0.0) / len(statuses)
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
        statuses = self.node_service(node_id).chunk_put_many(chunks)
        self._mark_unflushed({node_id})
        for status in statuses:
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
        self._mark_unflushed({node_id})

    def node_recipe_list(self, node_id: str) -> list[str]:
        self._trip(node_id)
        return self.node_service(node_id).recipe_list()

    def node_stub_list(self, node_id: str) -> list[str]:
        self._trip(node_id)
        return self.node_service(node_id).stub_list()

    def node_file_get_many(
        self, node_id: str, file_ids: list[str]
    ) -> list[tuple[bytes, bytes]]:
        """``(stub_file, recipe)`` per file from one node; raises the
        first per-item error."""
        self._trip(node_id)
        pairs = self.node_service(node_id).file_get_many(file_ids)
        for pair in pairs:
            if isinstance(pair, Exception):
                raise pair
        return pairs

    def node_file_commit(
        self, node_id: str, items: list[tuple[str, bytes, bytes]]
    ) -> None:
        self._trip(node_id)
        for status in self.node_service(node_id).file_commit(items):
            if isinstance(status, Exception):
                raise status
