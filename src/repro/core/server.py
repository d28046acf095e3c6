"""The REED server.

A REED server performs server-side deduplication (Section III-A): for
every received trimmed package it checks the fingerprint index and
stores only unique packages, batching them into containers in the
storage backend.  It also keeps file recipes and encrypted stub files on
behalf of clients.

The server exposes *batch* operations — the client sends up to 4 MB of
trimmed packages per request (Section V-B) — and is transport-agnostic:
use it directly in-process, or behind RPC via
:mod:`repro.core.service`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Protocol

from repro.crypto.hashing import fingerprint as _fingerprint
from repro.storage.datastore import DataStore, DataStoreStats
from repro.storage.gc import CompactionGC
from repro.util.errors import IntegrityError


class StorageService(Protocol):
    """What a REED client needs from the storage side."""

    def chunk_exists_batch(self, fingerprints: list[bytes]) -> list[bool]: ...

    def chunk_put_batch(self, chunks: list[tuple[bytes, bytes]]) -> int: ...

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]]
    ) -> list[bool | Exception]: ...

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]: ...

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None: ...

    def chunk_list(self) -> list[bytes]: ...

    def recipe_put(self, file_id: str, data: bytes) -> None: ...

    def recipe_get(self, file_id: str) -> bytes: ...

    def recipe_delete(self, file_id: str) -> None: ...

    def recipe_list(self) -> list[str]: ...

    def recipe_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]: ...

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]: ...

    def stub_put(self, file_id: str, data: bytes) -> None: ...

    def stub_get(self, file_id: str) -> bytes: ...

    def stub_delete(self, file_id: str) -> None: ...

    def stub_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]: ...

    def stub_get_many(self, file_ids: list[str]) -> list[bytes | Exception]: ...

    def stub_list(self) -> list[str]: ...

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]: ...

    def flush(self) -> None: ...

    def gc_status(self) -> dict: ...

    def gc_run(self, threshold: float | None = None) -> dict: ...


@dataclass
class ServerCounters:
    """Per-server request accounting (used by the evaluation harness).

    Handlers run concurrently — the multiplexed transport dispatches
    even same-connection requests in parallel — so bumps go through
    :meth:`add`, which is atomic; plain ``+=`` on the fields would lose
    increments under contention.
    """

    put_batches: int = 0
    get_batches: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    #: Batch-level service calls received — one per round trip in a
    #: networked deployment (the in-process equivalent of an RPC count).
    requests: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **deltas: int) -> None:
        """Atomically bump named counters (``add(requests=1)``)."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)


class REEDServer:
    """Storage-service implementation over one node's data store."""

    def __init__(
        self,
        store: DataStore | None = None,
        gc_threshold: float | None = None,
    ) -> None:
        self.store = store if store is not None else DataStore()
        self.counters = ServerCounters()
        self._gc_threshold = gc_threshold
        self._gc_engine: CompactionGC | None = None
        self._gc_lock = threading.Lock()

    # -- chunks ---------------------------------------------------------------

    def chunk_exists_batch(self, fingerprints: list[bytes]) -> list[bool]:
        self.counters.add(requests=1)
        return self.store.has_many(fingerprints)

    def chunk_put_batch(self, chunks: list[tuple[bytes, bytes]]) -> int:
        """Store (fingerprint, trimmed package) pairs; returns #new chunks.

        The server re-derives each fingerprint and rejects mismatches —
        a malicious or buggy client must not be able to poison another
        user's chunk under a false fingerprint.
        """
        self.counters.add(requests=1)
        new = 0
        for fp, data in chunks:
            self.counters.add(bytes_received=len(data))
            if _fingerprint(data) != fp:
                raise IntegrityError(
                    "uploaded chunk does not match its declared fingerprint"
                )
            if self.store.put_chunk(fp, data):
                new += 1
        self.counters.add(put_batches=1)
        return new

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]]
    ) -> list[bool | Exception]:
        """Store chunks with *per-item* status for the batch protocol.

        Each item resolves independently: ``True`` (new chunk stored),
        ``False`` (dedup hit), or the exception that rejected it (e.g.
        :class:`IntegrityError` on a fingerprint mismatch).  One poisoned
        chunk therefore fails alone instead of aborting its whole batch
        — the wire layer carries the per-item errors back verbatim.
        """
        self.counters.add(requests=1)
        results: list[bool | Exception] = []
        for fp, data in chunks:
            self.counters.add(bytes_received=len(data))
            try:
                if _fingerprint(data) != fp:
                    raise IntegrityError(
                        "uploaded chunk does not match its declared fingerprint"
                    )
                results.append(self.store.put_chunk(fp, data))
            except Exception as exc:  # noqa: BLE001 - carried per item
                results.append(exc)
        self.counters.add(put_batches=1)
        return results

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]:
        self.counters.add(requests=1)
        out = self.store.get_many(fingerprints)
        for data in out:
            self.counters.add(bytes_sent=len(data))
        self.counters.add(get_batches=1)
        return out

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None:
        """Drop one reference per fingerprint; releases are idempotent.

        A fingerprint this node never held is tolerated per item rather
        than aborting the batch: with replication a replica can lack an
        under-replicated chunk (degraded write, post-wipe repair), and
        its release must not block the releases that follow it.
        """
        self.counters.add(requests=1)
        self.store.release_many(fingerprints)

    def chunk_list(self) -> list[bytes]:
        """Every fingerprint this node indexes — the repair daemon's
        inventory scan."""
        self.counters.add(requests=1)
        return self.store.list_chunks()

    def chunk_refcount_batch(self, fingerprints: list[bytes]) -> list[int]:
        """Reference count per fingerprint (0 when not indexed).

        Part of the repair surface, not the client protocol: the repair
        daemon clones these counts onto re-replicated copies.
        """
        self.counters.add(requests=1)
        return self.store.refcount_many(fingerprints)

    def chunk_addref_batch(self, refs: list[tuple[bytes, int]]) -> None:
        """Add extra references per ``(fingerprint, count)`` pair."""
        self.counters.add(requests=1)
        self.store.addref_many(refs)

    # -- recipes / stub files ------------------------------------------------------

    def recipe_put(self, file_id: str, data: bytes) -> None:
        self.counters.add(requests=1)
        self.store.put_recipe(file_id, data)

    def recipe_get(self, file_id: str) -> bytes:
        self.counters.add(requests=1)
        return self.store.get_recipe(file_id)

    def recipe_delete(self, file_id: str) -> None:
        self.counters.add(requests=1)
        self.store.delete_recipe(file_id)

    def recipe_list(self) -> list[str]:
        self.counters.add(requests=1)
        return self.store.list_recipes()

    def stub_put(self, file_id: str, data: bytes) -> None:
        self.counters.add(requests=1)
        self.store.put_stub_file(file_id, data)

    def stub_get(self, file_id: str) -> bytes:
        self.counters.add(requests=1)
        return self.store.get_stub_file(file_id)

    def stub_delete(self, file_id: str) -> None:
        self.counters.add(requests=1)
        self.store.delete_stub_file(file_id)

    def stub_list(self) -> list[str]:
        self.counters.add(requests=1)
        return self.store.list_stub_files()

    # -- batched metadata (the rekeying pipeline's multi-file messages) -------

    @staticmethod
    def _per_item(fn, items) -> list:
        """Apply ``fn`` per item, carrying failures as values.

        Same contract as :meth:`chunk_put_many`: one missing or corrupt
        file fails alone instead of aborting its whole batch, and the
        wire layer ships the per-item errors back verbatim.
        """
        results = []
        for item in items:
            try:
                results.append(fn(item))
            except Exception as exc:  # noqa: BLE001 - carried per item
                results.append(exc)
        return results

    def recipe_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]:
        self.counters.add(requests=1)
        return self._per_item(
            lambda item: self.store.put_recipe(item[0], item[1]), items
        )

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        self.counters.add(requests=1)
        results = self._per_item(self.store.get_recipe, file_ids)
        for data in results:
            if not isinstance(data, Exception):
                self.counters.add(bytes_sent=len(data))
        return results

    def stub_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]:
        self.counters.add(requests=1)
        for _file_id, data in items:
            self.counters.add(bytes_received=len(data))
        return self._per_item(
            lambda item: self.store.put_stub_file(item[0], item[1]), items
        )

    def stub_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        self.counters.add(requests=1)
        results = self._per_item(self.store.get_stub_file, file_ids)
        for data in results:
            if not isinstance(data, Exception):
                self.counters.add(bytes_sent=len(data))
        return results

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        """Drop a file's stub file *and* recipe in one message (delete path)."""
        self.counters.add(requests=1)

        def drop(file_id: str) -> None:
            self.store.delete_stub_file(file_id)
            self.store.delete_recipe(file_id)

        return self._per_item(drop, file_ids)

    def flush(self) -> None:
        self.counters.add(requests=1)
        self.store.flush()

    # -- compaction GC -------------------------------------------------------

    def gc_engine(self) -> CompactionGC:
        """The server's compaction engine (created on first use)."""
        with self._gc_lock:
            if self._gc_engine is None:
                kwargs = {}
                if self._gc_threshold is not None:
                    kwargs["threshold"] = self._gc_threshold
                self._gc_engine = CompactionGC(
                    self.store,
                    metrics=getattr(self.store, "metrics", None),
                    **kwargs,
                )
            return self._gc_engine

    def gc_status(self) -> dict:
        """Dead-space accounting and lifetime compaction counters."""
        self.counters.add(requests=1)
        return self.gc_engine().status()

    def gc_run(self, threshold: float | None = None) -> dict:
        """Run one compaction pass (optionally at a one-off threshold)
        and return the post-pass status."""
        self.counters.add(requests=1)
        gc = self.gc_engine()
        report = gc.run_once(threshold)
        status = gc.status()
        status["last_reclaimed_bytes"] = report.reclaimed_bytes
        status["last_relocated_chunks"] = report.relocated_chunks
        return status

    @property
    def stats(self) -> DataStoreStats:
        return self.store.stats
