"""Tests for index persistence and fsck."""

import zlib

import pytest

from repro.crypto.hashing import fingerprint
from repro.storage.backend import DirectoryBackend, MemoryBackend
from repro.storage.container import _HEADER, _MAGIC
from repro.storage.datastore import DataStore
from repro.storage.fsck import drop_orphans, fsck
from repro.storage.index import CHECKPOINT_BLOB, SEGMENT_PREFIX
from repro.util.errors import StorageError


def fill(store, n=10, tag=0):
    for i in range(n):
        data = bytes([tag, i]) * 50
        store.put_chunk(fingerprint(data), data)
    store.flush()


class TestIndexPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path))
        store = DataStore(backend, container_bytes=256)
        fill(store)
        store.flush()

        reopened = DataStore(DirectoryBackend(str(tmp_path)), container_bytes=256)
        assert reopened.load_index_snapshot() is True
        assert len(reopened.index) == 10
        # Data readable through the restored index.
        data = bytes([0, 3]) * 50
        assert reopened.get_chunk(fingerprint(data)) == data
        # Accounting rebuilt.
        assert reopened.stats.physical_bytes == store.stats.physical_bytes
        assert reopened.stats.chunks_stored == 10

    def test_load_without_snapshot(self):
        assert DataStore().load_index_snapshot() is False

    def test_dedup_works_after_restore(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path))
        store = DataStore(backend, container_bytes=256)
        fill(store)
        store.flush()
        reopened = DataStore(DirectoryBackend(str(tmp_path)), container_bytes=256)
        data = bytes([0, 0]) * 50  # already stored pre-restart
        assert reopened.put_chunk(fingerprint(data), data) is False

    def test_gc_works_after_restore(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path))
        store = DataStore(backend, container_bytes=100)
        data = b"x" * 100  # exactly one container
        store.put_chunk(fingerprint(data), data)
        store.flush()
        reopened = DataStore(DirectoryBackend(str(tmp_path)), container_bytes=100)
        reopened.release_chunk(fingerprint(data))
        assert reopened.stats.physical_bytes == 0
        assert reopened.backend.total_bytes("container/") == 0


class TestFsck:
    def test_clean_store(self):
        store = DataStore(container_bytes=256)
        fill(store)
        report = fsck(store)
        assert report.clean
        assert report.checked_chunks == 10

    def test_detects_bit_rot(self):
        backend = MemoryBackend()
        store = DataStore(backend, container_bytes=256)
        fill(store)
        # Rot one byte in a sealed container.
        name = next(iter(backend.list("container/")))
        blob = bytearray(backend.get(name))
        blob[10] ^= 0x01
        backend.put(name, bytes(blob))
        report = fsck(store)
        assert not report.clean
        assert report.corrupt

    def test_detects_missing_container(self):
        backend = MemoryBackend()
        store = DataStore(backend, container_bytes=256)
        fill(store)
        name = next(iter(backend.list("container/")))
        backend.delete(name)
        report = fsck(store)
        assert report.missing_containers

    def test_detects_and_drops_orphans(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path))
        store = DataStore(backend, container_bytes=256)
        fill(store)
        store.flush()
        # Crash scenario: containers sealed after the last index
        # snapshot (a crash between the container seal and the snapshot
        # write inside flush) are orphaned on restart.
        for i in range(5):
            data = bytes([9, i]) * 50
            store.put_chunk(fingerprint(data), data)
        store.containers.flush()
        reopened = DataStore(DirectoryBackend(str(tmp_path)), container_bytes=256)
        report = fsck(reopened)
        assert report.orphaned_containers
        freed = drop_orphans(reopened, report)
        assert freed > 0
        assert fsck(reopened).clean

    @pytest.mark.parametrize(
        "damage",
        [
            # A well-formed zlib frame (codec 1): a codec the store refuses.
            lambda blob: _HEADER.pack(_MAGIC, 1, len(blob) - _HEADER.size)
            + zlib.compress(blob[_HEADER.size:]),
            lambda blob: blob[:4] + bytes([9]) + blob[5:],  # unknown codec
            lambda blob: blob[:-3],  # truncated frame
            lambda blob: blob[_HEADER.size:],  # no header
        ],
        ids=["zlib-codec", "unknown-codec", "truncated", "headerless"],
    )
    def test_unreadable_container_chunks_reported_corrupt(self, damage):
        backend = MemoryBackend()
        store = DataStore(backend, container_bytes=256)
        for i in range(10):
            # Incompressible, like the CAONT packages a store holds.
            data = b"".join(fingerprint(bytes([i, j])) for j in range(3))
            store.put_chunk(fingerprint(data), data)
        store.flush()
        name = next(iter(backend.list("container/")))
        cid = int(name.rsplit("/", 1)[1])
        inside = sorted(
            fp for fp in store.index.fingerprints()
            if store.index.lookup(fp).container_id == cid
        )
        assert inside
        backend.put(name, damage(backend.get(name)))
        # A rebooted store comes up over the damaged blob; reading it
        # raises, and fsck names exactly the chunks it held.
        rebooted = DataStore(backend, container_bytes=256)
        with pytest.raises(StorageError):
            rebooted.get_chunk(inside[0])
        report = fsck(rebooted)
        assert sorted(report.corrupt) == inside
        assert cid not in report.missing_containers
        assert not report.clean

    def test_hash_verification_optional(self):
        store = DataStore(container_bytes=256)
        fill(store)
        report = fsck(store, verify_hashes=False)
        assert report.clean


class TestFsckJournal:
    def _journaled(self):
        """A store whose index journal holds a checkpoint and two segments."""
        store = DataStore(container_bytes=256)
        fill(store, n=40)  # checkpoint
        fill(store, n=2, tag=1)
        fill(store, n=2, tag=2)
        names = list(store.backend.list(SEGMENT_PREFIX))
        assert len(names) == 2
        return store, names

    def test_clean_journal(self):
        store, _ = self._journaled()
        report = fsck(store)
        assert report.clean
        assert (report.bad_segments, report.segment_gaps) == ([], [])
        assert not report.checkpoint_mismatch

    def test_bad_crc_segment_reported(self):
        store, names = self._journaled()
        blob = bytearray(store.backend.get(names[0]))
        blob[len(blob) // 2] ^= 0x40
        store.backend.put(names[0], bytes(blob))
        report = fsck(store)
        assert report.bad_segments == [int(names[0].rsplit("/", 1)[1])]
        # The live store is intact, but the damaged log no longer replays
        # to it: both facts are reported.
        assert report.checkpoint_mismatch
        assert not report.clean

    def test_sequence_gap_reported(self):
        store, names = self._journaled()
        store.backend.delete(names[0])
        report = fsck(store)
        assert report.segment_gaps == [int(names[0].rsplit("/", 1)[1])]
        assert not report.clean

    def test_checkpoint_that_disagrees_with_the_log_reported(self):
        store, _ = self._journaled()
        # A well-formed checkpoint of some other index.
        other = DataStore(container_bytes=256)
        fill(other, n=3, tag=9)
        store.backend.put(CHECKPOINT_BLOB, other.backend.get(CHECKPOINT_BLOB))
        report = fsck(store)
        assert report.checkpoint_mismatch
        assert not report.clean

    def test_damaged_checkpoint_reported(self):
        store, _ = self._journaled()
        blob = bytearray(store.backend.get(CHECKPOINT_BLOB))
        blob[-1] ^= 0x01
        store.backend.put(CHECKPOINT_BLOB, bytes(blob))
        report = fsck(store)
        assert report.checkpoint_mismatch
        assert not report.clean
