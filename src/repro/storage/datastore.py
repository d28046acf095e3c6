"""The data store: deduplicated chunk storage plus file data.

One REED data-store server manages (Section V-A):

* unique **trimmed packages**, deduplicated via the fingerprint index and
  batched into 4 MB containers;
* **file recipes**;
* encrypted **stub files**; and
* the associated accounting (logical vs physical vs stub bytes) that
  Experiment B.1 reports.

Stub files are *not* deduplicated: they are encrypted under renewable
file keys, so identical chunks in different files still have distinct
encrypted stubs (the storage-overhead experiment measures exactly this).

Restart support: ``flush()`` journals the fingerprint index's changes
into the backend next to the containers (``IndexJournal``), and a store
constructed over a backend that holds a journal replays it — so a
rebooted data server resumes with its dedup state (and per-container
dead-space accounting) intact.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.backend import BlobBackend, MemoryBackend
from repro.storage.container import DEFAULT_CONTAINER_BYTES, ContainerStore
from repro.storage.index import FingerprintIndex, IndexJournal, JournalScan
from repro.util.errors import NotFoundError

_RECIPE_PREFIX = "recipe/"
_STUB_PREFIX = "stub/"


@dataclass
class DataStoreStats:
    """Byte accounting in the terms of Experiment B.1."""

    #: Bytes of trimmed packages received, before deduplication.
    logical_bytes: int = 0
    #: Bytes of unique trimmed packages actually stored.
    physical_bytes: int = 0
    #: Bytes of encrypted stub files stored.
    stub_bytes: int = 0
    #: Chunks received / unique chunks stored.
    chunks_received: int = 0
    chunks_stored: int = 0

    @property
    def dedup_saving(self) -> float:
        """Fraction of logical data eliminated by deduplication."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - self.physical_bytes / self.logical_bytes

    @property
    def total_saving(self) -> float:
        """Saving counting stub overhead against the logical data."""
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - (self.physical_bytes + self.stub_bytes) / self.logical_bytes


class DataStore:
    """A single data-store server's storage engine."""

    def __init__(
        self,
        backend: BlobBackend | None = None,
        container_bytes: int = DEFAULT_CONTAINER_BYTES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self.metrics = metrics if metrics is not None else default_registry()
        self.index = FingerprintIndex()
        self._journal = IndexJournal(self.backend, metrics=self.metrics)
        self.containers = ContainerStore(
            self.backend, container_bytes, metrics=self.metrics
        )
        #: Byte accounting; the sealed-container byte totals are the
        #: ``container_payload_bytes`` / ``container_compressed_bytes``
        #: gauges.
        self.stats = DataStoreStats()
        self._lock = threading.Lock()
        self._m_read_amp = self.metrics.gauge(
            "container_read_amplification",
            "Container fetches per chunk served by the last batch read.",
        )
        self._m_dead_ratio = self.metrics.gauge(
            "dead_space_ratio",
            "Dead over total accounted container bytes on this store.",
        )
        self._m_flush_seconds = self.metrics.histogram(
            "datastore_flush_seconds",
            "Wall time of one flush: container seal plus index journal write.",
        )
        self.load_index_snapshot()

    # -- chunks --------------------------------------------------------------

    def has_chunk(self, fingerprint: bytes) -> bool:
        return self.index.contains(fingerprint)

    def put_chunk(self, fingerprint: bytes, data: bytes) -> bool:
        """Store a trimmed package, deduplicating by fingerprint.

        Returns True when the chunk was new (bytes were stored) and False
        on a dedup hit (only a reference was added).
        """
        with self._lock:
            self.stats.logical_bytes += len(data)
            self.stats.chunks_received += 1
            if self.index.contains(fingerprint):
                self.index.addref(fingerprint)
                return False
            location = self.containers.append(data)
            self.index.add(fingerprint, location)
            self.stats.physical_bytes += len(data)
            self.stats.chunks_stored += 1
            return True

    def has_many(self, fingerprints: list[bytes]) -> list[bool]:
        """Batch existence check (order-preserving) for one multi-chunk
        message of the batched upload protocol."""
        return [self.index.contains(fp) for fp in fingerprints]

    def put_many(self, chunks: list[tuple[bytes, bytes]]) -> list[bool]:
        """Store many (fingerprint, data) pairs; per-item "was new" status.

        Equivalent to calling :meth:`put_chunk` in order — container
        layout and reference counts are byte-identical to the per-chunk
        path — but lets a whole batch message land with one call.
        """
        return [self.put_chunk(fp, data) for fp, data in chunks]

    def get_chunk(self, fingerprint: bytes) -> bytes:
        location = self.index.lookup(fingerprint)
        while True:
            try:
                return self.containers.read(location)
            except NotFoundError:
                # The chunk may have been relocated by a concurrent
                # compaction between the lookup and the container read;
                # retry as long as the lookup keeps resolving somewhere
                # new, and raise once the location is stable (genuinely
                # missing bytes, not a relocation race).
                fresh = self.index.lookup(fingerprint)
                if fresh == location:
                    raise
                location = fresh

    def list_chunks(self) -> list[bytes]:
        """Every indexed fingerprint — the repair daemon's inventory scan."""
        return list(self.index.fingerprints())

    def get_many(self, fingerprints: list[bytes]) -> list[bytes]:
        """Read many chunks in order — one multi-chunk message of the
        batched download protocol.  Raises on the first missing
        fingerprint, like per-chunk reads.

        Locations are grouped by container and each needed container is
        fetched exactly once (``ContainerStore.read_many``); this call's
        own fetches per chunk served are published as
        ``container_read_amplification``.
        """
        if not fingerprints:
            return []
        locations = [self.index.lookup(fp) for fp in fingerprints]
        while True:
            try:
                chunks, fetched = self.containers.read_many(locations)
                break
            except NotFoundError:
                # Concurrent compaction may have relocated some chunks;
                # re-resolve and retry until the locations are stable
                # (each retry is justified by an actual relocation).
                fresh = [self.index.lookup(fp) for fp in fingerprints]
                if fresh == locations:
                    raise
                locations = fresh
        self._m_read_amp.set(fetched / len(fingerprints))
        return chunks

    def refcount_many(self, fingerprints: list[bytes]) -> list[int]:
        """Reference count per fingerprint (0 when not indexed).

        The repair daemon reads these so a re-replicated chunk can be
        restored with the reference count of the copy it was cloned
        from, not a bare refcount of 1.
        """
        return [self.index.refcount(fp) for fp in fingerprints]

    def addref_many(self, refs: list[tuple[bytes, int]]) -> None:
        """Add ``count`` extra references per ``(fingerprint, count)`` pair.

        Raises :class:`~repro.util.errors.NotFoundError` on a
        fingerprint this store does not index and
        :class:`~repro.util.errors.StorageError` on a non-positive
        count — the same contract as ``index.addref``.
        """
        for fp, count in refs:
            self.index.addref(fp, count)

    def release_chunk(self, fingerprint: bytes) -> None:
        """Drop one reference; reclaims container space when possible.

        A sealed container whose chunks are all garbage is deleted
        outright; partially-live containers accumulate dead bytes in the
        index's per-container accounting until the compaction GC
        rewrites their survivors (``storage/gc.py``).
        """
        with self._lock:
            if self._release_locked(fingerprint):
                self.dead_space()

    def release_many(self, fingerprints: list[bytes]) -> None:
        """Drop one reference per fingerprint, skipping fingerprints this
        store does not index (the ``chunk_release_batch`` contract).

        Publishes ``dead_space_ratio`` once for the whole batch.
        """
        garbage = False
        with self._lock:
            for fingerprint in fingerprints:
                try:
                    garbage |= self._release_locked(fingerprint)
                except NotFoundError:
                    continue
            if garbage:
                self.dead_space()

    def _release_locked(self, fingerprint: bytes) -> bool:
        """Drop one reference; True when the chunk became garbage."""
        location = self.index.lookup(fingerprint)
        if not self.index.release(fingerprint):
            return False
        self.stats.physical_bytes -= location.length
        self.stats.chunks_stored -= 1
        cid = location.container_id
        if self.index.usage_for(cid).live_chunks == 0 and (
            cid != self.containers.open_container_id
            and self.containers.has_container(cid)
        ):
            self.containers.delete_container(cid)
            self.index.clear_container(cid)
        return True

    def dead_space(self) -> tuple[int, int, float]:
        """(live_bytes, dead_bytes, dead_ratio) across all containers."""
        live = 0
        dead = 0
        for usage in self.index.container_usage().values():
            live += usage.live_bytes
            dead += usage.dead_bytes
        total = live + dead
        ratio = dead / total if total else 0.0
        self._m_dead_ratio.set(ratio)
        return live, dead, ratio

    def flush(self) -> None:
        """Seal the open container and journal the index entries changed
        since the last flush, so a restart over the same backend resumes
        with dedup state intact.

        The changes are captured *before* the seal and written after it,
        all under the store lock.  Every location captured then points
        into a container that is sealed or is the open one the seal is
        about to write, even when a compaction appends and relocates
        concurrently without the store lock.  A journal entry written
        ahead of its container would dangle after a crash, and a rebooted
        store reuses that container id for other bytes.
        """
        started = time.perf_counter()
        with self._lock:
            pending = self._journal.capture(self.index)
            self.containers.flush()
            self._journal.write(*pending)
        self._m_flush_seconds.observe(time.perf_counter() - started)

    # -- restart support -----------------------------------------------------

    def scan_journal(self) -> JournalScan:
        """Read back the index journal as a reboot would (``fsck``)."""
        with self._lock:
            return self._journal.scan()

    def load_index_snapshot(self) -> bool:
        """Restore the journaled index; returns False if none exists.

        Rebuilds the derived accounting the journal does not carry:
        physical bytes and chunk counts from the entries, stub bytes
        from the backend, and per-container dead bytes by reconciling
        each sealed container's payload length against its live bytes.
        """
        with self._lock:
            index = self._journal.load()
        if index is None:
            return False
        self.index = index
        physical = 0
        chunks = 0
        for fp in self.index.fingerprints():
            location = self.index.lookup(fp)
            physical += location.length
            chunks += 1
        self.stats.physical_bytes = physical
        self.stats.chunks_stored = chunks
        self.stats.stub_bytes = self.backend.total_bytes(_STUB_PREFIX)
        for cid in self.containers.sealed_container_ids():
            payload = self.containers.payload_length(cid)
            live = self.index.usage_for(cid).live_bytes
            self.index.record_dead(cid, payload - live)
        self.dead_space()
        return True

    # -- recipes ---------------------------------------------------------------

    def put_recipe(self, file_id: str, data: bytes) -> None:
        self.backend.put(_RECIPE_PREFIX + file_id, data)

    def get_recipe(self, file_id: str) -> bytes:
        return self.backend.get(_RECIPE_PREFIX + file_id)

    def delete_recipe(self, file_id: str) -> None:
        self.backend.delete(_RECIPE_PREFIX + file_id)

    def has_recipe(self, file_id: str) -> bool:
        return self.backend.exists(_RECIPE_PREFIX + file_id)

    def list_recipes(self) -> list[str]:
        return [
            name[len(_RECIPE_PREFIX):] for name in self.backend.list(_RECIPE_PREFIX)
        ]

    # -- stub files --------------------------------------------------------------

    def put_stub_file(self, file_id: str, data: bytes) -> None:
        """Store (or replace, on rekey) a file's encrypted stub file."""
        name = _STUB_PREFIX + file_id
        with self._lock:
            if self.backend.exists(name):
                self.stats.stub_bytes -= self.backend.size(name)
            self.backend.put(name, data)
            self.stats.stub_bytes += len(data)

    def get_stub_file(self, file_id: str) -> bytes:
        return self.backend.get(_STUB_PREFIX + file_id)

    def list_stub_files(self) -> list[str]:
        return [
            name[len(_STUB_PREFIX):] for name in self.backend.list(_STUB_PREFIX)
        ]

    def delete_stub_file(self, file_id: str) -> None:
        name = _STUB_PREFIX + file_id
        with self._lock:
            if not self.backend.exists(name):
                raise NotFoundError(f"no stub file for {file_id!r}")
            self.stats.stub_bytes -= self.backend.size(name)
            self.backend.delete(name)
