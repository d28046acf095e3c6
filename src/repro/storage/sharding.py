"""Sharding across multiple data-store servers.

The paper's testbed runs four data-store servers plus one key-store
server; a client spreads its data across all data servers so each
processes a smaller share (Section V-B, "Parallelization").  This module
routes chunk operations by fingerprint (so a chunk deterministically
lives on one shard and global deduplication is preserved) and
recipes/stub files by file identifier.

Placement is a seeded **consistent-hash ring with virtual nodes**
(:class:`HashRing`): every node owns many pseudo-random arcs of a
64-bit circle, a key belongs to the first ``replicas`` distinct nodes
clockwise of its hashed position, and membership changes move only the
keys whose arcs changed owner (~1/N of them) instead of reshuffling
every placement the way ``hash mod N`` does.

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
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.crypto.hashing import sha256
from repro.storage.datastore import DataStore, DataStoreStats
from repro.util.errors import ConfigurationError, NotFoundError, StorageError

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


class ShardedDataStore:
    """Fans a DataStore-shaped API out over several shards.

    Placement follows a :class:`HashRing` keyed by fingerprint (chunks)
    or file id (recipes and stub files), so two clients uploading the
    same chunk hit the same shard and deduplicate against each other
    exactly as with a single server.  With ``replicas`` > 1, every key
    is written to its first R owners and a write succeeds once
    ``write_quorum`` of them acknowledged; reads fall back through the
    remaining owners when the preferred one misses or fails.
    """

    def __init__(
        self,
        shards: list[DataStore],
        fetch_workers: int | None = None,
        replicas: int = 1,
        write_quorum: int | None = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if not shards:
            raise ConfigurationError("need at least one data-store shard")
        if replicas < 1:
            raise ConfigurationError("need at least one replica")
        if replicas > len(shards):
            raise ConfigurationError(
                f"cannot keep {replicas} replicas on {len(shards)} shard(s)"
            )
        if write_quorum is None:
            write_quorum = 1
        if not 1 <= write_quorum <= replicas:
            raise ConfigurationError(
                f"write quorum {write_quorum} outside 1..{replicas}"
            )
        self.replicas = replicas
        self.write_quorum = write_quorum
        self._stores: dict[str, DataStore] = {}
        self._order: list[str] = []
        self._next_node = 0
        self.ring = HashRing(vnodes=vnodes)
        for shard in shards:
            self._attach(shard)
        if fetch_workers is None:
            fetch_workers = min(len(shards), DEFAULT_FETCH_WORKERS)
        if fetch_workers < 1:
            raise ConfigurationError("need at least one fetch worker")
        self.fetch_workers = fetch_workers
        self._fetch_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- membership ------------------------------------------------------------

    def _attach(self, store: DataStore, node_id: str | None = None) -> str:
        node = node_id if node_id is not None else f"node-{self._next_node}"
        self._next_node += 1
        self.ring.add_node(node)
        self._stores[node] = store
        self._order.append(node)
        return node

    def node_ids(self) -> list[str]:
        """Node ids in attach order (defines the ``shards`` list order)."""
        return list(self._order)

    def add_shard(self, store: DataStore, node_id: str | None = None) -> str:
        """Join a shard; returns its node id.

        Joining changes ring ownership for ~1/N of the keys — run
        :func:`repro.storage.repair.rebalance` (with the pre-join ring
        snapshot) to migrate exactly those keys.
        """
        if store in self._stores.values():
            raise ConfigurationError("shard already attached")
        return self._attach(store, node_id)

    def remove_shard(self, node_id: str) -> DataStore:
        """Leave the ring; the departed shard's data is NOT migrated
        automatically — rebalance before dropping the store."""
        if node_id not in self._stores:
            raise ConfigurationError(f"node {node_id!r} is not attached")
        if len(self._order) == 1:
            raise ConfigurationError("cannot remove the last shard")
        if self.replicas > len(self._order) - 1:
            raise ConfigurationError(
                f"removing {node_id!r} leaves fewer shards than replicas"
            )
        self.ring.remove_node(node_id)
        self._order.remove(node_id)
        return self._stores.pop(node_id)

    def mark_down(self, node_id: str) -> None:
        self.ring.mark_down(node_id)

    def mark_up(self, node_id: str) -> None:
        self.ring.mark_up(node_id)

    @property
    def shards(self) -> list[DataStore]:
        return [self._stores[node] for node in self._order]

    # -- placement -------------------------------------------------------------

    def _owners(self, key: bytes | str) -> list[str]:
        return self.ring.preference(key, self.replicas)

    def _up_owners(self, key: bytes | str) -> list[str]:
        return [n for n in self._owners(key) if self.ring.is_up(n)]

    def shard_for_chunk(self, fingerprint: bytes) -> DataStore:
        return self._stores[self.ring.primary(fingerprint)]

    def shard_index(self, fingerprint: bytes) -> int:
        """Attach-order index of the chunk's primary owner."""
        return self._order.index(self.ring.primary(fingerprint))

    def shard_for_file(self, file_id: str) -> DataStore:
        # File ids take the same fingerprint-quality ring hash as chunks
        # (the old byte-sum hash collided all anagram ids onto one shard).
        return self._stores[self.ring.primary(file_id)]

    # -- replicated read/write helpers ----------------------------------------

    def _write_all(self, key: bytes | str, op, tolerate=()) -> list:
        """Apply ``op`` to every up owner; enforce the write quorum.

        Returns the per-owner results in preference order.  Exceptions
        of a type in ``tolerate`` count as success (e.g. NotFound on
        delete of an under-replicated key).
        """
        owners = self._owners(key)
        results: list = []
        successes = 0
        first_error: Exception | None = None
        for node in owners:
            if not self.ring.is_up(node):
                results.append(None)
                continue
            try:
                results.append(op(self._stores[node]))
                successes += 1
            except tolerate as exc:
                results.append(exc)
                successes += 1
            except Exception as exc:  # noqa: BLE001 - folded into quorum
                results.append(exc)
                if first_error is None:
                    first_error = exc
        if successes < self.write_quorum:
            if first_error is not None:
                raise first_error
            raise StorageError(
                f"write quorum {self.write_quorum} not met "
                f"({successes}/{len(owners)} replicas up)"
            )
        return results

    def _read_any(self, key: bytes | str, op):
        """Try ``op`` on each up owner in preference order."""
        last: Exception | None = None
        for node in self._up_owners(key):
            try:
                return op(self._stores[node])
            except Exception as exc:  # noqa: BLE001 - fall through replicas
                last = exc
        if last is not None:
            raise last
        raise StorageError(f"no live replica for key {key!r}")

    # -- chunk API -------------------------------------------------------------

    def has_chunk(self, fingerprint: bytes) -> bool:
        for node in self._up_owners(fingerprint):
            if self._stores[node].has_chunk(fingerprint):
                return True
        return False

    def put_chunk(self, fingerprint: bytes, data: bytes) -> bool:
        results = self._write_all(
            fingerprint, lambda store: store.put_chunk(fingerprint, data)
        )
        for status in results:
            if isinstance(status, bool):
                return status
        return False

    def has_many(self, fingerprints: list[bytes]) -> list[bool]:
        """Batch existence check routed per shard (order-preserving).

        Each shard sees one ``has_many`` sub-batch, so over RPC the cost
        is one message per *shard touched*, not one per fingerprint.
        Like :meth:`has_chunk`, every up owner is consulted before a
        fingerprint reads absent: a "no" (or a failure) on the preferred
        replica falls back through the remaining owners, so a chunk that
        landed only on a later replica (degraded write) is still found.
        """
        flags = [False] * len(fingerprints)
        candidates = [self._up_owners(fp) for fp in fingerprints]
        cursor = [0] * len(fingerprints)
        unresolved = [p for p in range(len(fingerprints)) if candidates[p]]
        while unresolved:
            groups: dict[str, list[int]] = {}
            for position in unresolved:
                groups.setdefault(
                    candidates[position][cursor[position]], []
                ).append(position)
            retry: list[int] = []
            for node, positions in groups.items():
                try:
                    answers = self._stores[node].has_many(
                        [fingerprints[p] for p in positions]
                    )
                except Exception:  # noqa: BLE001 - ask the next replica
                    answers = [False] * len(positions)
                for position, flag in zip(positions, answers):
                    if flag:
                        flags[position] = True
                    elif cursor[position] + 1 < len(candidates[position]):
                        cursor[position] += 1
                        retry.append(position)
            unresolved = retry
        return flags

    def put_many(self, chunks: list[tuple[bytes, bytes]]) -> list[bool]:
        """Store many chunks, one ``put_many`` sub-batch per shard.

        Returns per-item "was new" status (from the most-preferred
        replica that answered) in request order.  Placement is
        deterministic by fingerprint, so the stored bytes are identical
        to per-chunk puts.  Raises when any item misses the write
        quorum.
        """
        placements = [self._owners(fp) for fp, _data in chunks]
        per_node: dict[str, list[int]] = {}
        for position, owners in enumerate(placements):
            for node in owners:
                if self.ring.is_up(node):
                    per_node.setdefault(node, []).append(position)
        answers: dict[str, list] = {}
        for node, positions in per_node.items():
            try:
                answers[node] = self._stores[node].put_many(
                    [chunks[p] for p in positions]
                )
            except Exception as exc:  # noqa: BLE001 - folded per item
                answers[node] = [exc] * len(positions)
        slots = {
            node: {position: i for i, position in enumerate(positions)}
            for node, positions in per_node.items()
        }
        statuses = [False] * len(chunks)
        for position, owners in enumerate(placements):
            successes = 0
            status: bool | None = None
            first_error: Exception | None = None
            for node in owners:
                if not self.ring.is_up(node):
                    continue
                answer = answers[node][slots[node][position]]
                if isinstance(answer, Exception):
                    first_error = first_error or answer
                else:
                    successes += 1
                    if status is None:
                        status = answer
            if successes < self.write_quorum:
                raise first_error or StorageError(
                    f"write quorum {self.write_quorum} not met for chunk "
                    f"{chunks[position][0].hex()}"
                )
            statuses[position] = bool(status)
        return statuses

    def get_chunk(self, fingerprint: bytes) -> bytes:
        return self._read_any(
            fingerprint, lambda store: store.get_chunk(fingerprint)
        )

    def _get_fetch_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._fetch_pool is None:
                self._fetch_pool = ThreadPoolExecutor(
                    max_workers=self.fetch_workers,
                    thread_name_prefix="shard-fetch",
                )
            return self._fetch_pool

    def close(self) -> None:
        """Reap the scatter-gather pool; it restarts lazily on next use."""
        with self._pool_lock:
            pool, self._fetch_pool = self._fetch_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def get_many(self, fingerprints: list[bytes]) -> list[bytes]:
        """Read many chunks, sub-fetching the shards concurrently.

        One ``get_many`` sub-batch per preferred shard, issued in
        parallel on a bounded pool (scatter), results restored to
        request order by position (gather).  Items the preferred owner
        cannot serve fall back through the remaining replicas; a
        fingerprint no live replica holds raises
        :class:`~repro.util.errors.NotFoundError` naming it.
        """
        results: list[bytes | None] = [None] * len(fingerprints)
        candidates = [self._up_owners(fp) for fp in fingerprints]
        cursor = [0] * len(fingerprints)
        unresolved = list(range(len(fingerprints)))

        def fetch(node: str, positions: list[int]) -> list[bytes]:
            return self._stores[node].get_many(
                [fingerprints[p] for p in positions]
            )

        first_round = True
        while unresolved:
            groups: dict[str, list[int]] = {}
            exhausted: list[int] = []
            for position in unresolved:
                if cursor[position] >= len(candidates[position]):
                    exhausted.append(position)
                else:
                    node = candidates[position][cursor[position]]
                    groups.setdefault(node, []).append(position)
            if exhausted:
                shown = ", ".join(
                    fingerprints[p].hex() for p in exhausted[:8]
                )
                suffix = (
                    "" if len(exhausted) <= 8 else f" (+{len(exhausted) - 8} more)"
                )
                raise NotFoundError(
                    f"{len(exhausted)} chunk(s) missing from every replica: "
                    f"{shown}{suffix}"
                )
            ordered = list(groups.items())
            retry: list[int] = []
            if first_round and len(ordered) > 1 and self.fetch_workers > 1:
                pool = self._get_fetch_pool()
                futures = [
                    pool.submit(fetch, node, positions)
                    for node, positions in ordered
                ]
                answer_sets = []
                for future in futures:
                    try:
                        answer_sets.append(future.result())
                    except Exception as exc:  # noqa: BLE001 - retried below
                        answer_sets.append(exc)
            else:
                answer_sets = []
                for node, positions in ordered:
                    try:
                        answer_sets.append(fetch(node, positions))
                    except Exception as exc:  # noqa: BLE001 - retried below
                        answer_sets.append(exc)
            for (node, positions), answer_set in zip(ordered, answer_sets):
                if isinstance(answer_set, Exception):
                    # Batch failed (some item missing on this shard):
                    # resolve per item so only the misses fall through.
                    for position in positions:
                        try:
                            results[position] = self._stores[node].get_chunk(
                                fingerprints[position]
                            )
                        except Exception:  # noqa: BLE001 - next replica
                            cursor[position] += 1
                            retry.append(position)
                else:
                    # A short reply must not silently drop chunks:
                    # re-route the unanswered tail to the next replica.
                    for position in positions[len(answer_set):]:
                        cursor[position] += 1
                        retry.append(position)
                    for position, data in zip(positions, answer_set):
                        results[position] = data
            unresolved = retry
            first_round = False
        return [data for data in results if data is not None]

    def release_chunk(self, fingerprint: bytes) -> None:
        self._write_all(
            fingerprint,
            lambda store: store.release_chunk(fingerprint),
            tolerate=(NotFoundError,),
        )

    def release_many(self, fingerprints: list[bytes]) -> None:
        """Drop one reference per fingerprint on its owners; an owner
        that does not index one is tolerated (``DataStore.release_many``)."""
        for fp in fingerprints:
            self.release_chunk(fp)

    def refcount_many(self, fingerprints: list[bytes]) -> list[int]:
        """Highest per-replica reference count for each fingerprint.

        Replicas can disagree after degraded writes or repairs; the
        maximum is the count the repair path replays onto fresh copies.
        """
        counts = [0] * len(fingerprints)
        for position, fp in enumerate(fingerprints):
            for node in self._up_owners(fp):
                counts[position] = max(
                    counts[position], self._stores[node].index.refcount(fp)
                )
        return counts

    def addref_many(self, refs: list[tuple[bytes, int]]) -> None:
        """Add extra references on every up owner holding each chunk.

        Raises :class:`~repro.util.errors.StorageError` on a
        non-positive count — the same contract as ``index.addref`` and
        ``DataStore.addref_many``.
        """
        for fp, count in refs:
            if count < 1:
                raise StorageError("reference count delta must be positive")
            for node in self._up_owners(fp):
                try:
                    self._stores[node].index.addref(fp, count)
                except NotFoundError:
                    continue  # replica never held it

    def flush(self) -> None:
        for node in self._order:
            if self.ring.is_up(node):
                self._stores[node].flush()

    # -- recipes and stub files ---------------------------------------------------

    def put_recipe(self, file_id: str, data: bytes) -> None:
        self._write_all(file_id, lambda store: store.put_recipe(file_id, data))

    def get_recipe(self, file_id: str) -> bytes:
        return self._read_any(file_id, lambda store: store.get_recipe(file_id))

    def delete_recipe(self, file_id: str) -> None:
        self._write_all(
            file_id,
            lambda store: store.delete_recipe(file_id),
            tolerate=(NotFoundError,),
        )

    def has_recipe(self, file_id: str) -> bool:
        for node in self._up_owners(file_id):
            if self._stores[node].has_recipe(file_id):
                return True
        return False

    def list_recipes(self) -> list[str]:
        names: set[str] = set()
        for node in self._order:
            if self.ring.is_up(node):
                names.update(self._stores[node].list_recipes())
        return sorted(names)

    def put_stub_file(self, file_id: str, data: bytes) -> None:
        self._write_all(
            file_id, lambda store: store.put_stub_file(file_id, data)
        )

    def get_stub_file(self, file_id: str) -> bytes:
        return self._read_any(
            file_id, lambda store: store.get_stub_file(file_id)
        )

    def delete_stub_file(self, file_id: str) -> None:
        self._write_all(
            file_id,
            lambda store: store.delete_stub_file(file_id),
            tolerate=(NotFoundError,),
        )

    def list_chunks(self) -> list[bytes]:
        """Every fingerprint indexed on any live shard (replicas deduped)."""
        fps: set[bytes] = set()
        for node in self._order:
            if self.ring.is_up(node):
                fps.update(self._stores[node].list_chunks())
        return sorted(fps)

    def list_stub_files(self) -> list[str]:
        names: set[str] = set()
        for node in self._order:
            if self.ring.is_up(node):
                names.update(self._stores[node].list_stub_files())
        return sorted(names)

    # -- per-node access (repair daemon / rebalancer) ---------------------------

    def node_store(self, node_id: str) -> DataStore:
        if node_id not in self._stores:
            raise ConfigurationError(f"node {node_id!r} is not attached")
        return self._stores[node_id]

    def node_chunk_list(self, node_id: str) -> list[bytes]:
        return self.node_store(node_id).list_chunks()

    def node_has_many(self, node_id: str, fingerprints: list[bytes]) -> list[bool]:
        return self.node_store(node_id).has_many(fingerprints)

    def node_get_many(self, node_id: str, fingerprints: list[bytes]) -> list[bytes]:
        return self.node_store(node_id).get_many(fingerprints)

    def node_put_many(
        self, node_id: str, chunks: list[tuple[bytes, bytes]]
    ) -> None:
        self.node_store(node_id).put_many(chunks)

    def node_refcounts(self, node_id: str, fingerprints: list[bytes]) -> list[int]:
        return self.node_store(node_id).refcount_many(fingerprints)

    def node_addref_many(self, node_id: str, refs: list[tuple[bytes, int]]) -> None:
        self.node_store(node_id).addref_many(refs)

    def node_recipe_list(self, node_id: str) -> list[str]:
        return self.node_store(node_id).list_recipes()

    def node_recipe_get(self, node_id: str, file_id: str) -> bytes:
        return self.node_store(node_id).get_recipe(file_id)

    def node_recipe_put(self, node_id: str, file_id: str, data: bytes) -> None:
        self.node_store(node_id).put_recipe(file_id, data)

    def node_stub_list(self, node_id: str) -> list[str]:
        return self.node_store(node_id).list_stub_files()

    def node_stub_get(self, node_id: str, file_id: str) -> bytes:
        return self.node_store(node_id).get_stub_file(file_id)

    def node_stub_put(self, node_id: str, file_id: str, data: bytes) -> None:
        self.node_store(node_id).put_stub_file(file_id, data)

    # -- accounting -------------------------------------------------------------

    @property
    def stats(self) -> DataStoreStats:
        """Aggregate byte accounting across all shards.

        With ``replicas`` > 1 the physical figures count every replica —
        that is the true on-disk footprint of the deployment.
        """
        total = DataStoreStats()
        for shard in self.shards:
            total.logical_bytes += shard.stats.logical_bytes
            total.physical_bytes += shard.stats.physical_bytes
            total.stub_bytes += shard.stats.stub_bytes
            total.chunks_received += shard.stats.chunks_received
            total.chunks_stored += shard.stats.chunks_stored
            total.container_payload_bytes += shard.stats.container_payload_bytes
            total.container_compressed_bytes += shard.stats.container_compressed_bytes
        return total
