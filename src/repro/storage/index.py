"""The fingerprint index.

The REED server keeps a fingerprint index tracking every trimmed package
uploaded to the cloud (Section III-A): a given fingerprint maps to the
container holding its bytes, plus a reference count so space can be
reclaimed when the last file referencing a chunk is deleted.

The index also maintains per-container byte accounting: live bytes
(chunks still referenced) and dead bytes (chunks released but stranded
in a partially-live container).  The compaction GC reads that accounting
to pick rewrite candidates and calls :meth:`relocate_many` to move
surviving chunks' locations atomically under the index lock.

The index is made durable by :class:`IndexJournal`: each flush appends
one CRC'd log segment holding the post-image of every entry touched
since the previous flush, and a checkpoint (the full snapshot encoding)
is cut once the log written since the last one outgrows it.  A restart
loads the checkpoint and replays the segments after it in order.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.backend import BlobBackend
from repro.util.codec import Decoder, Encoder
from repro.util.errors import CorruptionError, NotFoundError, StorageError


@dataclass(frozen=True)
class ChunkLocation:
    """Where a chunk's bytes live: a container and a slice within it."""

    container_id: int
    offset: int
    length: int


#: Post-image of one index entry: ``(fingerprint, location, refcount)``,
#: or ``(fingerprint, None, 0)`` for an entry that is absent.
Change = tuple[bytes, ChunkLocation | None, int]


@dataclass
class _IndexEntry:
    location: ChunkLocation
    refcount: int


@dataclass
class ContainerUsage:
    """Byte accounting for one container, maintained by the index."""

    live_bytes: int = 0
    dead_bytes: int = 0
    live_chunks: int = 0

    @property
    def dead_ratio(self) -> float:
        """Fraction of accounted bytes that are garbage."""
        total = self.live_bytes + self.dead_bytes
        return self.dead_bytes / total if total else 0.0


class FingerprintIndex:
    """Thread-safe fingerprint → (location, refcount) map.

    ``lookup``/``contains`` are the dedup test on the upload path;
    ``add``/``addref``/``release`` maintain reference counts as file
    recipes are stored and deleted.  Every fingerprint those calls (and
    applied relocations) touch is remembered until
    :meth:`drain_changes` hands the set to the journal.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, _IndexEntry] = {}
        self._usage: dict[int, ContainerUsage] = {}
        # Insertion-ordered, so a segment's bytes depend only on the
        # order of the updates, not on the process's hash seed.
        self._dirty: dict[bytes, None] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, fingerprint: bytes) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def lookup(self, fingerprint: bytes) -> ChunkLocation:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                raise NotFoundError(f"fingerprint {fingerprint.hex()} not indexed")
            return entry.location

    def refcount(self, fingerprint: bytes) -> int:
        with self._lock:
            entry = self._entries.get(fingerprint)
            return entry.refcount if entry else 0

    def _usage_locked(self, container_id: int) -> ContainerUsage:
        usage = self._usage.get(container_id)
        if usage is None:
            usage = self._usage[container_id] = ContainerUsage()
        return usage

    def _count_live_locked(self, location: ChunkLocation, sign: int) -> None:
        usage = self._usage_locked(location.container_id)
        usage.live_bytes += sign * location.length
        usage.live_chunks += sign

    def add(self, fingerprint: bytes, location: ChunkLocation) -> None:
        """Register a newly stored chunk with refcount 1."""
        with self._lock:
            if fingerprint in self._entries:
                raise StorageError(
                    f"fingerprint {fingerprint.hex()} already indexed"
                )
            self._entries[fingerprint] = _IndexEntry(location=location, refcount=1)
            self._count_live_locked(location, 1)
            self._dirty[fingerprint] = None

    def addref(self, fingerprint: bytes, count: int = 1) -> None:
        """Count ``count`` more references to an existing chunk.

        ``count`` > 1 lets the repair path replay a source replica's
        reference count onto a restored copy in one call.
        """
        if count < 1:
            raise StorageError("reference count delta must be positive")
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                raise NotFoundError(f"fingerprint {fingerprint.hex()} not indexed")
            entry.refcount += count
            self._dirty[fingerprint] = None

    def release(self, fingerprint: bytes) -> bool:
        """Drop one reference; returns True when the chunk became garbage."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                raise NotFoundError(f"fingerprint {fingerprint.hex()} not indexed")
            entry.refcount -= 1
            self._dirty[fingerprint] = None
            if entry.refcount > 0:
                return False
            del self._entries[fingerprint]
            self._count_live_locked(entry.location, -1)
            self._usage_locked(entry.location.container_id).dead_bytes += (
                entry.location.length
            )
            return True

    def fingerprints(self) -> list[bytes]:
        with self._lock:
            return list(self._entries)

    def snapshot(self) -> dict[bytes, tuple[ChunkLocation, int]]:
        """Every entry as ``fingerprint -> (location, refcount)`` (a copy)."""
        with self._lock:
            return {
                fp: (entry.location, entry.refcount)
                for fp, entry in self._entries.items()
            }

    # -- change tracking (the journal's input) ---------------------------

    def drain_changes(self) -> list[Change]:
        """Post-images of every entry touched since the last drain;
        clears the touched set atomically with the read."""
        with self._lock:
            changes = []
            for fp in self._dirty:
                entry = self._entries.get(fp)
                if entry is None:
                    changes.append((fp, None, 0))
                else:
                    changes.append((fp, entry.location, entry.refcount))
            self._dirty.clear()
            return changes

    def apply_changes(self, changes: list[Change]) -> None:
        """Replay post-images from :meth:`drain_changes` (journal replay).

        Idempotent, and order-free within one batch since each
        fingerprint appears once.  Marks nothing as touched; accounting
        left empty by a removal is dropped.
        """
        with self._lock:
            for fp, location, refcount in changes:
                old = self._entries.pop(fp, None)
                if old is not None:
                    self._count_live_locked(old.location, -1)
                    cid = old.location.container_id
                    if self._usage[cid] == ContainerUsage():
                        del self._usage[cid]
                if location is not None:
                    self._entries[fp] = _IndexEntry(location, refcount)
                    self._count_live_locked(location, 1)

    # -- container accounting ----------------------------------------------

    def container_usage(self) -> dict[int, ContainerUsage]:
        """Per-container live/dead byte accounting (a snapshot copy)."""
        with self._lock:
            return {
                cid: ContainerUsage(u.live_bytes, u.dead_bytes, u.live_chunks)
                for cid, u in self._usage.items()
            }

    def usage_for(self, container_id: int) -> ContainerUsage:
        """One container's accounting (a copy; zeros when untracked)."""
        with self._lock:
            usage = self._usage.get(container_id)
            if usage is None:
                return ContainerUsage()
            return ContainerUsage(
                usage.live_bytes, usage.dead_bytes, usage.live_chunks
            )

    def record_dead(self, container_id: int, nbytes: int) -> None:
        """Account bytes known dead from outside the index's own view —
        the boot-time reconciliation between a restored index and the
        actual container payload sizes in the backend."""
        if nbytes <= 0:
            return
        with self._lock:
            self._usage_locked(container_id).dead_bytes += nbytes

    def clear_container(self, container_id: int) -> None:
        """Forget a deleted container's accounting."""
        with self._lock:
            self._usage.pop(container_id, None)

    def entries_in_container(
        self, container_id: int
    ) -> list[tuple[bytes, ChunkLocation]]:
        """Live (fingerprint, location) pairs stored in one container."""
        with self._lock:
            return [
                (fp, entry.location)
                for fp, entry in self._entries.items()
                if entry.location.container_id == container_id
            ]

    def relocate_many(
        self, moves: list[tuple[bytes, ChunkLocation, ChunkLocation]]
    ) -> int:
        """Atomically repoint chunks at their compacted copies.

        Each move is ``(fingerprint, expected_old, new)``; a move only
        lands if the entry still points at ``expected_old`` (a chunk
        released or already relocated since the GC copied it is skipped,
        and its copy is accounted dead in the new container so a later
        pass can reclaim it).  Returns the number of moves applied.
        """
        applied = 0
        with self._lock:
            for fingerprint, expected_old, new in moves:
                entry = self._entries.get(fingerprint)
                if entry is None or entry.location != expected_old:
                    # The copy we wrote is unreachable garbage.
                    self._usage_locked(new.container_id).dead_bytes += new.length
                    continue
                entry.location = new
                self._count_live_locked(expected_old, -1)
                self._count_live_locked(new, 1)
                self._dirty[fingerprint] = None
                applied += 1
        return applied

    # -- persistence -------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize the index (stored alongside containers for restart)."""
        with self._lock:
            enc = Encoder().uint(len(self._entries))
            for fingerprint, entry in self._entries.items():
                enc.blob(fingerprint)
                enc.uint(entry.location.container_id)
                enc.uint(entry.location.offset)
                enc.uint(entry.location.length)
                enc.uint(entry.refcount)
            return enc.done()

    @classmethod
    def decode(cls, data: bytes) -> "FingerprintIndex":
        dec = Decoder(data)
        index = cls()
        for _ in range(dec.uint()):
            fingerprint = dec.blob()
            location = ChunkLocation(
                container_id=dec.uint(), offset=dec.uint(), length=dec.uint()
            )
            refcount = dec.uint()
            index._entries[fingerprint] = _IndexEntry(
                location=location, refcount=refcount
            )
            index._count_live_locked(location, 1)
        dec.expect_end()
        return index


# -- the journal ---------------------------------------------------------

#: The latest checkpoint: a frame around :meth:`FingerprintIndex.encode`.
CHECKPOINT_BLOB = "meta/index-checkpoint"
#: One log segment per flush that changed the index, named by sequence
#: number (zero-padded, so name order is sequence order).
SEGMENT_PREFIX = "meta/index-log/"

#: Frame of segments and checkpoints: magic, sequence number (the segment's
#: own, or the last one a checkpoint covers) and body length; then the
#: CRC-32 of those header bytes and the body; then the body.
_FRAME = struct.Struct(">4sQI")
_CRC = struct.Struct(">I")
_SEGMENT_MAGIC = b"RIL1"
_CHECKPOINT_MAGIC = b"RIC1"


def _frame(magic: bytes, seq: int, body: bytes) -> bytes:
    head = _FRAME.pack(magic, seq, len(body))
    return head + _CRC.pack(zlib.crc32(body, zlib.crc32(head))) + body


def _unframe(blob: bytes, magic: bytes) -> tuple[int, bytes]:
    """``(sequence number, body)``; raises on a torn or damaged frame."""
    start = _FRAME.size + _CRC.size
    if len(blob) < start:
        raise CorruptionError(f"torn index journal frame ({len(blob)} bytes)")
    got, seq, length = _FRAME.unpack_from(blob)
    (crc,) = _CRC.unpack_from(blob, _FRAME.size)
    body = blob[start:]
    if got != magic or length != len(body):
        raise CorruptionError(f"index journal frame {seq}: bad magic or length")
    if crc != zlib.crc32(body, zlib.crc32(blob[: _FRAME.size])):
        raise CorruptionError(f"index journal frame {seq}: CRC mismatch")
    return seq, body


def _segment_name(seq: int) -> str:
    return f"{SEGMENT_PREFIX}{seq:016d}"


def _encode_changes(changes: list[Change]) -> bytes:
    enc = Encoder().uint(len(changes))
    for fingerprint, location, refcount in changes:
        enc.blob(fingerprint).uint(refcount)
        if location is not None:
            enc.uint(location.container_id).uint(location.offset).uint(location.length)
    return enc.done()


def _decode_changes(body: bytes) -> list[Change]:
    dec = Decoder(body)
    changes = []
    for _ in range(dec.uint()):
        fingerprint = dec.blob()
        refcount = dec.uint()
        location = None
        if refcount:
            location = ChunkLocation(
                container_id=dec.uint(), offset=dec.uint(), length=dec.uint()
            )
        changes.append((fingerprint, location, refcount))
    dec.expect_end()
    return changes


@dataclass
class JournalScan:
    """What :meth:`IndexJournal.scan` read from the backend."""

    #: The checkpoint with the acknowledged prefix of the log replayed
    #: onto it.
    index: FingerprintIndex
    #: Whether any index state was persisted at all.
    found: bool = False
    #: Size of the checkpoint blob.
    checkpoint_bytes: int = 0
    #: Last sequence number the loaded state covers (the checkpoint's,
    #: then each replayed segment's): the end of the acknowledged prefix.
    seq: int = 0
    #: Bytes of the replayed segments.
    log_bytes: int = 0
    #: Sequence number of every segment blob present, replayed or not.
    segments: list[int] = field(default_factory=list)
    #: Segments after the checkpoint whose frame or CRC is damaged.
    bad_segments: list[int] = field(default_factory=list)
    #: Sequence numbers missing between the checkpoint and the last segment.
    gaps: list[int] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        """Replay stopped before the last segment present."""
        return bool(self.bad_segments or self.gaps)


class IndexJournal:
    """The durable form of one store's fingerprint index in its backend.

    A write appends one segment with the post-image of every entry
    touched since the previous write, so its cost follows the change, not
    the index.  Once the segment bytes written since the last checkpoint
    exceed that checkpoint's size, the write also cuts a new checkpoint
    and deletes the segments it covers, which keeps the bytes written and
    the bytes replayed on load within about twice the log itself.

    Not thread-safe: the owning store serialises every call.
    """

    def __init__(
        self, backend: BlobBackend, metrics: MetricsRegistry | None = None
    ) -> None:
        self.backend = backend
        metrics = metrics if metrics is not None else default_registry()
        self._m_segments = metrics.counter(
            "index_log_segments_total",
            "Index log segments written (one per flush that changed the index).",
        )
        self._m_log_bytes = metrics.counter(
            "index_log_bytes_total", "Bytes of index log segments written."
        )
        self._m_checkpoints = metrics.counter(
            "index_checkpoints_total", "Index checkpoints cut."
        )
        self._m_checkpoint_bytes = metrics.counter(
            "index_checkpoint_bytes_total", "Bytes of index checkpoints written."
        )
        #: Last sequence number written (or replayed on load).
        self.seq = 0
        #: Size of the current checkpoint, and segment bytes written since.
        self.checkpoint_bytes = 0
        self.log_bytes = 0
        self._on_disk: list[int] = []
        self._must_checkpoint = False

    def scan(self) -> JournalScan:
        """Read the checkpoint and every segment, replaying segments in
        order from the checkpoint until the first damaged or missing one.

        Raises :class:`~repro.util.errors.CorruptionError` when the
        checkpoint itself is damaged.
        """
        scan = JournalScan(index=FingerprintIndex())
        if self.backend.exists(CHECKPOINT_BLOB):
            blob = self.backend.get(CHECKPOINT_BLOB)
            scan.seq, body = _unframe(blob, _CHECKPOINT_MAGIC)
            scan.index = FingerprintIndex.decode(body)
            scan.checkpoint_bytes = len(blob)
        for name in self.backend.list(SEGMENT_PREFIX):
            try:
                scan.segments.append(int(name[len(SEGMENT_PREFIX):]))
            except ValueError:
                continue
        scan.segments.sort()
        scan.found = scan.checkpoint_bytes > 0 or bool(scan.segments)
        expected = scan.seq + 1
        for seq in scan.segments:
            if seq < expected:
                continue  # covered by the checkpoint; its cleanup was cut short
            scan.gaps.extend(range(expected, seq))
            expected = seq + 1
            blob = self.backend.get(_segment_name(seq))
            try:
                got, body = _unframe(blob, _SEGMENT_MAGIC)
                if got != seq:
                    raise CorruptionError(f"segment {seq} carries number {got}")
                changes = _decode_changes(body)
            except CorruptionError:
                scan.bad_segments.append(seq)
                continue
            if not scan.damaged:
                scan.index.apply_changes(changes)
                scan.seq = seq
                scan.log_bytes += len(blob)
        return scan

    def load(self) -> FingerprintIndex | None:
        """The persisted index (``None`` when nothing was persisted);
        resumes writing after what was loaded.

        A damaged log loads its acknowledged prefix.  The segments past
        the damage stay in place for ``fsck`` to name, and the next write
        is a checkpoint that deletes them all before any new segment is
        written.  Until then the damaged or missing segment right after
        the prefix keeps every replay from reaching them.
        """
        scan = self.scan()
        self.seq = scan.seq
        self.checkpoint_bytes = scan.checkpoint_bytes
        self.log_bytes = scan.log_bytes
        self._on_disk = scan.segments
        self._must_checkpoint = scan.damaged
        return scan.index if scan.found else None

    def capture(self, index: FingerprintIndex) -> tuple[bytes | None, bytes | None]:
        """Drain the index's changes into the next write: a segment, and
        a checkpoint snapshot when one is due.  Pass the result to
        :meth:`write`."""
        changes = index.drain_changes()
        segment = None
        due = self._must_checkpoint
        if changes and not due:
            segment = _frame(_SEGMENT_MAGIC, self.seq + 1, _encode_changes(changes))
            due = self.log_bytes + len(segment) > self.checkpoint_bytes
        # The drained changes live only in memory until write() lands; if
        # it never does, the next write must be a full checkpoint.
        self._must_checkpoint = True
        return segment, index.encode() if due else None

    def write(self, segment: bytes | None, snapshot: bytes | None) -> None:
        """Persist what :meth:`capture` returned."""
        if segment is not None:
            self.backend.put(_segment_name(self.seq + 1), segment)
            self.seq += 1
            self._on_disk.append(self.seq)
            self.log_bytes += len(segment)
            self._m_segments.inc()
            self._m_log_bytes.inc(len(segment))
        if snapshot is not None:
            blob = _frame(_CHECKPOINT_MAGIC, self.seq, snapshot)
            self.backend.put(CHECKPOINT_BLOB, blob)
            for seq in self._on_disk:
                self._delete(_segment_name(seq))
            self._on_disk = []
            self.checkpoint_bytes = len(blob)
            self.log_bytes = 0
            self._m_checkpoints.inc()
            self._m_checkpoint_bytes.inc(len(blob))
        self._must_checkpoint = False

    def _delete(self, name: str) -> None:
        try:
            self.backend.delete(name)
        except NotFoundError:
            pass
