"""Background compaction GC for partially-dead containers.

``DataStore.release_chunk`` only deletes a container once *every* chunk
in it is garbage; a container holding one live chunk strands the rest as
dead space forever (ROADMAP item 3).  The compaction GC closes that gap:
it scans the index's per-container live/dead accounting, picks sealed
containers whose dead-space ratio meets a threshold, rewrites their
surviving chunks into fresh containers, repoints the ``ChunkLocation``s
atomically under the index lock (:meth:`FingerprintIndex.relocate_many`,
compare-and-swap per entry so concurrently released chunks are not
resurrected), flushes the store so the copies are sealed and their new
locations journaled, and only then deletes the old containers.

:class:`CompactionDaemon` runs passes on an interval, mirroring
``RepairDaemon``: a failing pass records its error and the next interval
retries — the thread itself never dies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.datastore import DataStore
from repro.util.errors import ConfigurationError, NotFoundError, StorageError

#: Containers at least this fraction dead are compaction candidates.
DEFAULT_DEAD_SPACE_THRESHOLD = 0.25

#: Seconds between background compaction passes.
DEFAULT_GC_INTERVAL = 30.0


@dataclass
class CompactionReport:
    """Result of one compaction pass."""

    scanned_containers: int = 0
    #: Containers meeting the threshold this pass.
    candidates: int = 0
    compacted_containers: int = 0
    relocated_chunks: int = 0
    relocated_bytes: int = 0
    #: Dead bytes reclaimed (old-container payload minus rewritten live bytes).
    reclaimed_bytes: int = 0
    dead_ratio_before: float = 0.0
    dead_ratio_after: float = 0.0
    #: Candidates skipped because they vanished mid-pass (raced a
    #: concurrent release that deleted the whole container).
    skipped: int = 0
    errors: list[str] = field(default_factory=list)


class CompactionGC:
    """Rewrites mostly-dead containers so their dead bytes are reclaimed.

    Works over one node's :class:`DataStore`.  Each in-process
    :class:`~repro.core.server.REEDServer` owns one engine, and
    :meth:`~repro.storage.sharding.ShardedStorageService.gc_run` fans a
    pass out over every up node.
    """

    def __init__(
        self,
        store: DataStore,
        threshold: float = DEFAULT_DEAD_SPACE_THRESHOLD,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError("GC threshold must be in (0, 1]")
        self.store = store
        self.threshold = threshold
        self.metrics = metrics if metrics is not None else default_registry()
        self.last_report: CompactionReport | None = None
        self._lock = threading.Lock()
        self._m_passes = self.metrics.counter(
            "gc_passes_total", "Compaction passes completed."
        )
        self._m_reclaimed = self.metrics.counter(
            "gc_bytes_reclaimed_total",
            "Dead container bytes reclaimed by compaction.",
        )
        self._m_compacted = self.metrics.counter(
            "gc_containers_compacted_total",
            "Containers rewritten (or dropped) by compaction.",
        )
        self._m_relocated = self.metrics.counter(
            "gc_chunks_relocated_total",
            "Live chunks rewritten into fresh containers by compaction.",
        )

    def dead_space(self) -> tuple[int, int, float]:
        """The store's (live, dead, dead_ratio) byte accounting."""
        return self.store.dead_space()

    def candidate_containers(self, threshold: float | None = None) -> int:
        """How many sealed containers currently meet the threshold."""
        limit = self.threshold if threshold is None else threshold
        return len(self._candidates(self.store, limit))

    @staticmethod
    def _candidates(store: DataStore, threshold: float) -> list[int]:
        open_id = store.containers.open_container_id
        out = []
        for cid, usage in sorted(store.index.container_usage().items()):
            if cid == open_id or usage.dead_bytes == 0:
                continue
            if usage.dead_ratio >= threshold and store.containers.has_container(cid):
                out.append(cid)
        return out

    def run_once(self, threshold: float | None = None) -> CompactionReport:
        """One compaction pass over the store (serialized per GC)."""
        limit = self.threshold if threshold is None else threshold
        if not 0.0 < limit <= 1.0:
            raise ConfigurationError("GC threshold must be in (0, 1]")
        with self._lock:
            report = CompactionReport()
            _live, _dead, report.dead_ratio_before = self.dead_space()
            self._compact_store(self.store, limit, report)
            _live, _dead, report.dead_ratio_after = self.dead_space()
            self._m_passes.inc()
            self.last_report = report
            return report

    def _compact_store(
        self, store: DataStore, threshold: float, report: CompactionReport
    ) -> None:
        report.scanned_containers += len(store.index.container_usage())
        candidates = self._candidates(store, threshold)
        report.candidates += len(candidates)
        compacted = []
        for cid in candidates:
            try:
                self._compact_container(store, cid, report)
                compacted.append(cid)
            except NotFoundError:
                # The container (or a chunk) vanished mid-compaction — a
                # concurrent release emptied and deleted it.  Nothing to
                # reclaim that was not already reclaimed.
                report.skipped += 1
            except StorageError as exc:
                report.errors.append(f"container {cid}: {exc}")
        if not compacted:
            return
        # Seal the copies and journal their new locations before the old
        # bytes go: a crash in between then leaves the survivors readable
        # at one location or the other, never at neither.
        store.flush()
        for cid in compacted:
            try:
                store.containers.delete_container(cid)
            except NotFoundError:
                pass  # a concurrent release emptied and deleted it first
            store.index.clear_container(cid)

    def _compact_container(
        self, store: DataStore, cid: int, report: CompactionReport
    ) -> None:
        """Copy one candidate's survivors and repoint them; the caller
        deletes the old container once the copies are durable."""
        dead_before = store.index.usage_for(cid).dead_bytes
        survivors = store.index.entries_in_container(cid)
        # A fully dead container has no survivors: nothing is read or
        # rewritten, and it is just dropped.
        chunks = store.containers.read_many([location for _, location in survivors])
        moves = []
        for (fingerprint, old), data in zip(survivors, chunks):
            new = store.containers.append(data)
            moves.append((fingerprint, old, new))
        applied = store.index.relocate_many(moves)
        relocated_bytes = sum(new.length for _, _, new in moves)
        report.compacted_containers += 1
        report.relocated_chunks += applied
        report.relocated_bytes += relocated_bytes
        report.reclaimed_bytes += dead_before
        self._m_compacted.inc()
        self._m_relocated.inc(applied)
        self._m_reclaimed.inc(dead_before)

    def status(self) -> dict:
        """Operator-facing snapshot (the ``storage.gc`` RPC payload)."""
        live, dead, ratio = self.dead_space()
        last = self.last_report
        return {
            "threshold": self.threshold,
            "live_bytes": live,
            "dead_bytes": dead,
            "dead_space_ratio": ratio,
            "candidates": self.candidate_containers(),
            "passes": int(self._m_passes.value),
            "bytes_reclaimed_total": int(self._m_reclaimed.value),
            "containers_compacted_total": int(self._m_compacted.value),
            "chunks_relocated_total": int(self._m_relocated.value),
            "last_reclaimed_bytes": last.reclaimed_bytes if last else 0,
            "last_relocated_chunks": last.relocated_chunks if last else 0,
        }


class CompactionDaemon:
    """Background thread running :meth:`CompactionGC.run_once` on an
    interval — the storage engine's space-reclamation loop.

    Use as a context manager or call :meth:`start`/:meth:`stop`.
    :meth:`run_now` forces an immediate pass (tests, CLI ``reed gc run``).
    """

    def __init__(
        self,
        gc: CompactionGC,
        interval: float = DEFAULT_GC_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("GC interval must be positive")
        self.gc = gc
        self.interval = interval
        self.last_report: CompactionReport | None = None
        #: Exception that aborted the most recent pass (None after a
        #: pass completes) — the daemon's health surface.
        self.last_error: Exception | None = None
        self.passes = 0
        self.failed_passes = 0
        self._m_pass_failures = gc.metrics.counter(
            "gc_pass_failures_total",
            "Compaction passes aborted by an unexpected error.",
        )
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    def _loop(self) -> None:
        # A failing pass must never kill the thread: a daemon that died
        # silently looks healthy while dead space grows unbounded.  The
        # error is recorded and the next interval retries.
        while not self._stop.is_set():
            try:
                self.run_now()
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                self.last_error = exc
                self.failed_passes += 1
                self._m_pass_failures.inc()
            self._wake.wait(self.interval)
            self._wake.clear()

    def run_now(self) -> CompactionReport:
        with self._lock:
            report = self.gc.run_once()
            self.last_report = report
            self.last_error = None
            self.passes += 1
            return report

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="reed-compaction", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "CompactionDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
