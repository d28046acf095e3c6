"""Consistency checking and index persistence for the data store.

The fingerprint index is the data store's only mutable in-memory state;
everything else lives in the blob backend.  This module provides

* **index persistence** — journal the index into the backend and load
  it back on restart, so a data server resumes with its dedup state
  intact (containers already resume their numbering);
* **fsck** — verify that every index entry points at container bytes
  whose hash matches its fingerprint, report orphaned containers
  (bytes no index entry references — space leaks after a crash between
  a container seal and the journal write), and check the index journal
  itself: damaged segments, sequence gaps, and whether the checkpoint
  plus the segments after it reproduce the live index.

The checker never repairs silently: it reports, and the caller decides
(e.g. drop orphans, or rebuild refcounts from recipes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import fingerprint as _fingerprint
from repro.storage.datastore import DataStore
from repro.util.errors import CorruptionError, NotFoundError, StorageError


def save_index(store: DataStore) -> None:
    """Make the fingerprint index durable in the store's backend.

    ``DataStore.flush`` seals the open container and journals the
    index; this wrapper remains as the operator-facing entry point.
    """
    store.flush()


def load_index(store: DataStore) -> bool:
    """Restore the journaled index; returns False if none exists.

    Delegates to :meth:`DataStore.load_index_snapshot`, which also
    rebuilds derived accounting (physical/stub bytes, chunk counts, and
    per-container dead space).
    """
    return store.load_index_snapshot()


@dataclass
class FsckReport:
    """Result of one consistency pass."""

    checked_chunks: int = 0
    #: Fingerprints whose stored bytes hash to something else (bit rot)
    #: or whose location is unreadable.
    corrupt: list[bytes] = field(default_factory=list)
    #: Container ids present in the backend but referenced by no entry.
    orphaned_containers: list[int] = field(default_factory=list)
    #: Container ids referenced by the index but missing from the backend.
    missing_containers: list[int] = field(default_factory=list)
    #: Index log segments whose frame or CRC is damaged; a reboot
    #: replays the log only up to the first of them.
    bad_segments: list[int] = field(default_factory=list)
    #: Sequence numbers missing from the index log after its checkpoint.
    segment_gaps: list[int] = field(default_factory=list)
    #: The checkpoint plus the segments after it do not reproduce the
    #: live index, or the checkpoint itself is damaged.
    checkpoint_mismatch: bool = False

    @property
    def clean(self) -> bool:
        return not (
            self.corrupt
            or self.orphaned_containers
            or self.missing_containers
            or self.bad_segments
            or self.segment_gaps
            or self.checkpoint_mismatch
        )


def fsck(store: DataStore, verify_hashes: bool = True) -> FsckReport:
    """Cross-check the index against the stored containers and against
    its own journal.

    Meant for a quiescent store: an update landing between the flush and
    the checks reads as an orphan or a checkpoint mismatch.
    """
    report = FsckReport()
    # Read the journal before flushing: a store booted from a damaged log
    # repairs it with its next flush, which would erase the evidence.
    try:
        journal = store.scan_journal()
        report.bad_segments = journal.bad_segments
        report.segment_gaps = journal.gaps
    except CorruptionError:
        report.checkpoint_mismatch = True
    store.flush()
    try:
        replayed = store.scan_journal().index.snapshot()
        if replayed != store.index.snapshot():
            report.checkpoint_mismatch = True
    except CorruptionError:
        report.checkpoint_mismatch = True
    referenced: set[int] = set()
    for fp in store.index.fingerprints():
        location = store.index.lookup(fp)
        referenced.add(location.container_id)
        report.checked_chunks += 1
        if not verify_hashes:
            continue
        try:
            data = store.containers.read(location)
        except (NotFoundError, StorageError):
            # Unreadable location, or a container whose framing or
            # compressed body no longer decodes (bit rot).
            report.corrupt.append(fp)
            continue
        if _fingerprint(data) != fp:
            report.corrupt.append(fp)
    present: set[int] = set()
    for name in store.backend.list("container/"):
        try:
            present.add(int(name.rsplit("/", 1)[1]))
        except ValueError:
            continue
    report.orphaned_containers = sorted(present - referenced)
    report.missing_containers = sorted(referenced - present)
    return report


def drop_orphans(store: DataStore, report: FsckReport) -> int:
    """Reclaim containers fsck found orphaned; returns bytes freed."""
    freed = 0
    for container_id in report.orphaned_containers:
        if store.containers.has_container(container_id):
            freed += store.containers.payload_length(container_id)
            store.containers.delete_container(container_id)
    return freed
