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
from typing import Protocol

from repro.crypto.hashing import fingerprint as _fingerprint
from repro.storage.datastore import DataStore, DataStoreStats
from repro.storage.gc import CompactionGC
from repro.util.errors import IntegrityError, NotFoundError, outcome


class StorageService(Protocol):
    """What a REED client needs from the storage side."""

    def chunk_exists_batch(self, fingerprints: list[bytes]) -> list[bool]: ...

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]], flush: bool = False
    ) -> list[bool | Exception]: ...

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]: ...

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None: ...

    def chunk_list(self) -> list[bytes]: ...

    def recipe_list(self) -> list[str]: ...

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]: ...

    def stub_list(self) -> list[str]: ...

    def file_commit(
        self, items: list[tuple[str, bytes, bytes]]
    ) -> list[None | Exception]: ...

    def file_get_many(
        self, file_ids: list[str]
    ) -> list[tuple[bytes, bytes] | Exception]: ...

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]: ...

    def flush(self) -> None: ...

    def gc_status(self) -> dict: ...

    def gc_run(self, threshold: float | None = None) -> dict: ...


class REEDServer:
    """Storage-service implementation over one node's data store."""

    def __init__(
        self,
        store: DataStore | None = None,
        gc_threshold: float | None = None,
    ) -> None:
        self.store = store if store is not None else DataStore()
        self._gc_threshold = gc_threshold
        self._gc_engine: CompactionGC | None = None
        self._gc_lock = threading.Lock()

    # -- chunks ---------------------------------------------------------------

    def chunk_exists_batch(self, fingerprints: list[bytes]) -> list[bool]:
        return self.store.has_many(fingerprints)

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]], flush: bool = False
    ) -> list[bool | Exception]:
        """Store chunks with *per-item* status for the batch protocol.

        The server re-derives each fingerprint and rejects mismatches —
        a malicious or buggy client must not be able to poison another
        user's chunk under a false fingerprint.  Each item resolves
        independently: ``True`` (new chunk stored), ``False`` (dedup
        hit), or the exception that rejected it (e.g.
        :class:`IntegrityError` on a fingerprint mismatch).  One poisoned
        chunk therefore fails alone instead of aborting its whole batch
        — the wire layer carries the per-item errors back verbatim.

        ``flush`` (set on an upload's last batch) seals and journals the
        store right after the batch, failed items or not, so the honest
        chunks are durable when the reply leaves.
        """

        def put(fp: bytes, data: bytes) -> bool:
            if _fingerprint(data) != fp:
                raise IntegrityError("uploaded chunk does not match its declared fingerprint")
            return self.store.put_chunk(fp, data)

        results = [outcome(put, fp, data) for fp, data in chunks]
        if flush:
            self.store.flush()
        return results

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]:
        return self.store.get_many(fingerprints)

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None:
        """Drop one reference per fingerprint.  Not idempotent: a
        repeated release drops a reference twice (ROADMAP item 18).

        A fingerprint this node never held is tolerated per item rather
        than aborting the batch: with replication a replica can lack an
        under-replicated chunk (degraded write, post-wipe repair), and
        its release must not block the releases that follow it.
        """
        self.store.release_many(fingerprints)

    def chunk_list(self) -> list[bytes]:
        """Every fingerprint this node indexes — the repair daemon's
        inventory scan."""
        return self.store.list_chunks()

    def chunk_refcount_batch(self, fingerprints: list[bytes]) -> list[int]:
        """Reference count per fingerprint (0 when not indexed).

        Part of the repair surface, not the client protocol: the repair
        daemon clones these counts onto re-replicated copies.
        """
        return self.store.refcount_many(fingerprints)

    def chunk_addref_batch(self, refs: list[tuple[bytes, int]]) -> None:
        """Add extra references per ``(fingerprint, count)`` pair."""
        self.store.addref_many(refs)

    # -- file metadata (upload, restore, rekey, delete and listing) ------------

    def recipe_list(self) -> list[str]:
        return self.store.list_recipes()

    def stub_list(self) -> list[str]:
        return self.store.list_stub_files()

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        """Each file's recipe; as with every metadata batch, one missing
        or corrupt file fails alone (:func:`~repro.util.errors.outcome`)."""
        return [outcome(self.store.get_recipe, file_id) for file_id in file_ids]

    def file_commit(
        self, items: list[tuple[str, bytes, bytes]]
    ) -> list[None | Exception]:
        """Store each ``(file_id, stub_file, recipe)``: the stub file,
        then the recipe — one message per owner for a file's metadata."""

        def commit(item: tuple[str, bytes, bytes]) -> None:
            file_id, stub_file, recipe = item
            self.store.put_stub_file(file_id, stub_file)
            self.store.put_recipe(file_id, recipe)

        return [outcome(commit, item) for item in items]

    def file_get_many(
        self, file_ids: list[str]
    ) -> list[tuple[bytes, bytes] | Exception]:
        """``(stub_file, recipe)`` per file; an item fails when this node
        lacks either object."""

        def fetch(file_id: str) -> tuple[bytes, bytes]:
            return (
                self.store.get_stub_file(file_id),
                self.store.get_recipe(file_id),
            )

        return [outcome(fetch, file_id) for file_id in file_ids]

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        """Drop a file's stub file *and* recipe in one message (delete path).

        Each object is dropped on its own, so a replica that holds only
        one of them still loses it; an item fails with
        :class:`NotFoundError` only when neither existed.
        """

        def drop(file_id: str) -> None:
            found = False
            for delete in (self.store.delete_stub_file, self.store.delete_recipe):
                try:
                    delete(file_id)
                    found = True
                except NotFoundError:
                    pass
            if not found:
                raise NotFoundError(f"no stub file or recipe for {file_id!r}")

        return [outcome(drop, file_id) for file_id in file_ids]

    def flush(self) -> None:
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
        return self.gc_engine().status()

    def gc_run(self, threshold: float | None = None) -> dict:
        """Run one compaction pass (optionally at a one-off threshold)
        and return the post-pass status."""
        gc = self.gc_engine()
        report = gc.run_once(threshold)
        status = gc.status()
        status["last_reclaimed_bytes"] = report.reclaimed_bytes
        status["last_relocated_chunks"] = report.relocated_chunks
        return status

    @property
    def stats(self) -> DataStoreStats:
        return self.store.stats
