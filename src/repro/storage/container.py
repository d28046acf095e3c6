"""Container batching for unique chunks.

Writing each trimmed package as its own object would swamp the backend
with small I/O; the REED server therefore batches unique chunks into
4 MB container units before storing them (Section V-B, "Batching").
Reads fetch a whole container and slice the requested chunk, with a small
LRU container cache — this is also where the download-fragmentation
effect in Experiment B.2 comes from: chunks of one file end up scattered
across many containers written by earlier backups.

Sealed containers carry a versioned header (magic, codec byte, payload
length) in front of the raw payload.  The payload is CAONT ciphertext,
so the store never compresses it: the only codec is ``stored``, and a
blob with another codec or without the header is refused.
Batch reads (`read_many`) fetch each distinct container exactly once,
with bounded concurrency, and fetches are single-flighted per container
id so concurrent readers never duplicate a backend fetch.
"""

from __future__ import annotations

import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.backend import BlobBackend
from repro.storage.index import ChunkLocation
from repro.util.errors import ConfigurationError, NotFoundError, StorageError
from repro.util.lru import LRUCache
from repro.util.units import MiB

#: Container capacity (paper Section V-B).
DEFAULT_CONTAINER_BYTES = 4 * MiB

#: Containers cached on the read path.
READ_CACHE_CONTAINERS = 16

#: Distinct containers fetched concurrently by one ``read_many`` call.
FETCH_CONCURRENCY = 4

_PREFIX = "container/"

#: Versioned container header: magic, codec byte, big-endian payload length.
_MAGIC = b"RCF1"
_HEADER = struct.Struct(">4sBQ")
#: The one codec: the payload follows the header as is.
CODEC_STORED = 0


def _payload_len(blob: bytes) -> int:
    """The payload length a container blob's header declares."""
    if len(blob) < _HEADER.size or not blob.startswith(_MAGIC):
        raise StorageError("container blob has no RCF1 header")
    _magic, codec, payload_len = _HEADER.unpack_from(blob)
    if codec != CODEC_STORED:
        raise StorageError(f"unknown container codec {codec}")
    return payload_len


def _check_container(blob: bytes) -> int:
    """The payload length of a framed container blob, checked against
    the blob's own length (the payload is sliced in place, not copied)."""
    payload_len = _payload_len(blob)
    if len(blob) - _HEADER.size != payload_len:
        raise StorageError(
            f"container payload is {len(blob) - _HEADER.size} bytes, "
            f"header says {payload_len}"
        )
    return payload_len


class ContainerStore:
    """Append-oriented chunk storage batched into fixed-size containers.

    ``append`` buffers chunk bytes in the open container and returns the
    location the chunk *will* occupy; ``flush`` seals the open container
    into the backend.  Locations are valid immediately — reads check the
    open container before the backend — so callers never wait for a
    flush to use a location.
    """

    def __init__(
        self,
        backend: BlobBackend,
        container_bytes: int = DEFAULT_CONTAINER_BYTES,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if container_bytes <= 0:
            raise ConfigurationError("container size must be positive")
        self._backend = backend
        self._capacity = container_bytes
        self._lock = threading.Lock()
        self._open_id = self._next_container_id()
        #: The open container's blob: its header, filled in at the seal,
        #: then the payload.
        self._open_buffer = bytearray(_HEADER.size)
        #: Sealed blobs, header included.
        self._read_cache: LRUCache[int, bytes] = LRUCache(READ_CACHE_CONTAINERS)
        # Single-flight state: per-container-id events readers wait on
        # while one leader performs the backend fetch.
        self._fetch_lock = threading.Lock()
        self._in_flight: dict[int, threading.Event] = {}
        # Sealed-container byte accounting, learned at seal time (exact)
        # or lazily from headers for containers that predate this store
        # instance (restart support).
        self._payload_lens: dict[int, int] = {}
        self._stored_lens: dict[int, int] = {}
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_fetches = self.metrics.counter(
            "container_fetch_total",
            "Container fetches that missed the read cache.",
        )
        self._m_payload_bytes = self.metrics.gauge(
            "container_payload_bytes",
            "Payload bytes across sealed containers.",
        )
        self._m_compressed_bytes = self.metrics.gauge(
            "container_compressed_bytes",
            "On-disk (framed) bytes across sealed containers.",
        )
        self._m_seal_seconds = self.metrics.histogram(
            "container_seal_seconds",
            "Wall time of one container seal: encode plus backend put.",
        )
        self._m_seals = self.metrics.counter(
            "container_seals_total",
            "Containers sealed, by codec (always stored).",
            labelnames=("codec",),
        )

    def _next_container_id(self) -> int:
        """Resume numbering after existing containers (restart support)."""
        highest = -1
        for name in self._backend.list(_PREFIX):
            try:
                highest = max(highest, int(name[len(_PREFIX):]))
            except ValueError:
                continue
        return highest + 1

    @staticmethod
    def _name(container_id: int) -> str:
        return f"{_PREFIX}{container_id:012d}"

    @property
    def _open_len(self) -> int:
        """Payload bytes in the open container."""
        return len(self._open_buffer) - _HEADER.size

    def append(self, data: bytes) -> ChunkLocation:
        """Buffer a chunk, sealing the open container when it fills."""
        if not data:
            raise ConfigurationError("cannot store an empty chunk")
        with self._lock:
            if self._open_len and self._open_len + len(data) > self._capacity:
                self._seal_locked()
            location = ChunkLocation(
                container_id=self._open_id,
                offset=self._open_len,
                length=len(data),
            )
            self._open_buffer.extend(data)
            if self._open_len >= self._capacity:
                self._seal_locked()
            return location

    def _seal_locked(self) -> None:
        payload_len = self._open_len
        if not payload_len:
            return
        started = time.perf_counter()
        _HEADER.pack_into(self._open_buffer, 0, _MAGIC, CODEC_STORED, payload_len)
        blob = bytes(self._open_buffer)
        self._backend.put(self._name(self._open_id), blob)
        self._m_seal_seconds.observe(time.perf_counter() - started)
        self._m_seals.labels(codec="stored").inc()
        self._record_lens_locked(self._open_id, payload_len, len(blob))
        self._open_id += 1
        self._open_buffer = bytearray(_HEADER.size)

    def _record_lens_locked(self, container_id: int, payload: int, stored: int) -> None:
        self._payload_lens[container_id] = payload
        self._stored_lens[container_id] = stored
        self._publish_bytes_locked()

    def _publish_bytes_locked(self) -> None:
        self._m_payload_bytes.set(sum(self._payload_lens.values()))
        self._m_compressed_bytes.set(sum(self._stored_lens.values()))

    def _learn_lens(self, container_id: int) -> None:
        """Record byte accounting for a container sealed by a previous
        store instance (statistics only: no cache or counter effects).

        A missing container, or one whose header is unreadable, is left
        unaccounted; reads of it raise and ``fsck`` names its chunks.
        """
        with self._lock:
            if container_id in self._payload_lens:
                return
        try:
            blob = self._backend.get(self._name(container_id))
            payload_len = _payload_len(blob)
        except (NotFoundError, StorageError):
            return
        with self._lock:
            self._record_lens_locked(container_id, payload_len, len(blob))

    def flush(self) -> None:
        """Seal the open container (called at the end of an upload batch)."""
        with self._lock:
            self._seal_locked()

    @property
    def open_container_id(self) -> int:
        """Id of the (possibly empty) open container — never a GC target."""
        with self._lock:
            return self._open_id

    def sealed_container_ids(self) -> list[int]:
        """Ids of every sealed container present in the backend."""
        ids = []
        for name in self._backend.list(_PREFIX):
            try:
                ids.append(int(name[len(_PREFIX):]))
            except ValueError:
                continue
        return sorted(ids)

    def has_container(self, container_id: int) -> bool:
        """Whether a container's bytes are readable (open buffer counts)."""
        with self._lock:
            if container_id == self._open_id:
                return self._open_len > 0
            if container_id in self._stored_lens:
                return True
        return self._backend.exists(self._name(container_id))

    def payload_length(self, container_id: int) -> int:
        """Payload bytes of one container (0 when absent or unreadable)."""
        with self._lock:
            if container_id == self._open_id:
                return self._open_len
            known = self._payload_lens.get(container_id)
        if known is not None:
            return known
        self._learn_lens(container_id)
        with self._lock:
            return self._payload_lens.get(container_id, 0)

    def _read_open_locked(self, location: ChunkLocation) -> bytes | None:
        """Serve a location from the open buffer, or None if sealed."""
        if location.container_id != self._open_id:
            return None
        start = _HEADER.size + location.offset
        end = start + location.length
        if end > len(self._open_buffer):
            raise NotFoundError("location beyond the open container")
        return bytes(self._open_buffer[start:end])

    def _get_container(self, container_id: int) -> tuple[bytes, int]:
        """Cached container blob; single-flighted backend fetch on miss.

        Also returns the backend fetches this call made itself: 1 when
        it led the fetch, 0 when it was served by the cache or by
        another reader's fetch.
        """
        while True:
            blob = self._read_cache.get(container_id)
            if blob is not None:
                return blob, 0
            with self._fetch_lock:
                blob = self._read_cache.get(container_id)
                if blob is not None:
                    return blob, 0
                waiter = self._in_flight.get(container_id)
                if waiter is None:
                    waiter = threading.Event()
                    self._in_flight[container_id] = waiter
                    leader = True
                else:
                    leader = False
            if not leader:
                # Another reader is fetching this container; wait for it
                # and re-check the cache (re-fetching ourselves if the
                # leader failed or the entry was already evicted).
                waiter.wait()
                continue
            try:
                blob = self._backend.get(self._name(container_id))
                payload_len = _check_container(blob)
                with self._lock:
                    self._record_lens_locked(container_id, payload_len, len(blob))
                self._m_fetches.inc()
                self._read_cache.put(container_id, blob)
                return blob, 1
            finally:
                with self._fetch_lock:
                    self._in_flight.pop(container_id, None)
                waiter.set()

    @staticmethod
    def _slice(blob: bytes, location: ChunkLocation) -> bytes:
        start = _HEADER.size + location.offset
        end = start + location.length
        if end > len(blob):
            raise NotFoundError("location beyond its container's size")
        return blob[start:end]

    def read(self, location: ChunkLocation) -> bytes:
        """Fetch a chunk's bytes from its container."""
        with self._lock:
            buffered = self._read_open_locked(location)
        if buffered is not None:
            return buffered
        blob, _fetched = self._get_container(location.container_id)
        return self._slice(blob, location)

    def read_many(self, locations: list[ChunkLocation]) -> tuple[list[bytes], int]:
        """Fetch many chunks, hitting each distinct container exactly once.

        Groups the requested locations by container id; cache misses are
        fetched from the backend with bounded concurrency, then every
        chunk is sliced out of its (now cached) container — the coalesced
        read path that turns a fragmented restore from one fetch per
        chunk into one fetch per container.  Returns the chunks and the
        backend fetches this call made (a concurrent reader's fetches are
        its own).
        """
        out: list[bytes | None] = [None] * len(locations)
        by_container: dict[int, list[int]] = {}
        with self._lock:
            for i, location in enumerate(locations):
                buffered = self._read_open_locked(location)
                if buffered is not None:
                    out[i] = buffered
                else:
                    by_container.setdefault(location.container_id, []).append(i)
        missing = [cid for cid in by_container if cid not in self._read_cache]
        fetches = 0
        if len(missing) > 1:
            workers = min(FETCH_CONCURRENCY, len(missing))
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="reed-container-fetch"
            ) as pool:
                # Surface the first fetch error (iterating re-raises).
                fetches += sum(
                    fetched for _blob, fetched in pool.map(self._get_container, missing)
                )
        for cid, indexes in by_container.items():
            blob, fetched = self._get_container(cid)
            fetches += fetched
            for i in indexes:
                out[i] = self._slice(blob, locations[i])
        return out, fetches  # type: ignore[return-value]

    def delete_container(self, container_id: int) -> None:
        """Drop a sealed container (garbage collection)."""
        self._read_cache.pop(container_id)
        with self._lock:
            self._payload_lens.pop(container_id, None)
            self._stored_lens.pop(container_id, None)
            self._publish_bytes_locked()
        self._backend.delete(self._name(container_id))

    def stored_bytes(self) -> int:
        """Payload bytes in sealed containers plus the open buffer (the
        byte count dedup accounting is denominated in)."""
        for container_id in self.sealed_container_ids():
            if container_id not in self._payload_lens:
                self._learn_lens(container_id)
        with self._lock:
            return sum(self._payload_lens.values()) + self._open_len
