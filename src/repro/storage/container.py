"""Container batching for unique chunks.

Writing each trimmed package as its own object would swamp the backend
with small I/O; the REED server therefore batches unique chunks into
4 MB container units before storing them (Section V-B, "Batching").
Reads fetch a whole container and slice the requested chunk, with a small
LRU container cache — this is also where the download-fragmentation
effect in Experiment B.2 comes from: chunks of one file end up scattered
across many containers written by earlier backups.

Sealed containers carry a versioned header (magic, codec byte,
uncompressed length) and are zlib-compressed when that makes them
smaller — judged from a 64 KiB prefix first, so ciphertext containers
skip the full trial; headerless blobs written by earlier versions remain
readable.
Batch reads (`read_many`) fetch each distinct container exactly once,
with bounded concurrency, and fetches are single-flighted per container
id so concurrent readers never duplicate a backend fetch.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.backend import BlobBackend
from repro.storage.index import ChunkLocation
from repro.util.errors import ConfigurationError, NotFoundError, StorageError
from repro.util.lru import LRUCache
from repro.util.units import KiB, MiB

#: Container capacity (paper Section V-B).
DEFAULT_CONTAINER_BYTES = 4 * MiB

#: Containers cached on the read path.
DEFAULT_READ_CACHE_CONTAINERS = 16

#: Distinct containers fetched concurrently by one ``read_many`` call.
DEFAULT_FETCH_CONCURRENCY = 4

_PREFIX = "container/"

#: Versioned container header: magic, codec byte, big-endian uncompressed
#: payload length.  Blobs without the magic are legacy raw payloads.
_MAGIC = b"RCF1"
_HEADER = struct.Struct(">4sBQ")
CODEC_STORED = 0
CODEC_ZLIB = 1
_CODEC_NAMES = {CODEC_STORED: "stored", CODEC_ZLIB: "zlib"}

#: zlib level 6 is the speed/ratio sweet spot for 4 MB containers.
_ZLIB_LEVEL = 6

#: Prefix of a larger payload that is trial-compressed before the whole
#: container is.  Trimmed packages are CAONT ciphertext, so the usual
#: container never shrinks and pays one sample instead of ~27 ms/MiB.
_SAMPLE_BYTES = 64 * KiB


def _encode_container(payload: bytes) -> bytes:
    """Frame a sealed payload, compressing when compression wins.

    A payload longer than ``_SAMPLE_BYTES`` whose prefix of that length
    does not shrink under zlib is stored raw without compressing the rest.
    """
    if len(payload) > _SAMPLE_BYTES:
        sample = payload[:_SAMPLE_BYTES]
        if len(zlib.compress(sample, _ZLIB_LEVEL)) >= len(sample):
            return _HEADER.pack(_MAGIC, CODEC_STORED, len(payload)) + payload
    compressed = zlib.compress(payload, _ZLIB_LEVEL)
    if len(compressed) < len(payload):
        return _HEADER.pack(_MAGIC, CODEC_ZLIB, len(payload)) + compressed
    return _HEADER.pack(_MAGIC, CODEC_STORED, len(payload)) + payload


def _decode_container(blob: bytes) -> bytes:
    """Recover the payload from a framed (or legacy raw) container blob."""
    if len(blob) < _HEADER.size or not blob.startswith(_MAGIC):
        return blob  # Legacy raw container from before the framed format.
    magic, codec, payload_len = _HEADER.unpack_from(blob)
    body = blob[_HEADER.size:]
    if codec == CODEC_STORED:
        payload = body
    elif codec == CODEC_ZLIB:
        try:
            payload = zlib.decompress(body)
        except zlib.error as exc:
            raise StorageError(f"container decompression failed: {exc}") from exc
    else:
        raise StorageError(f"unknown container codec {codec}")
    if len(payload) != payload_len:
        raise StorageError(
            f"container payload is {len(payload)} bytes, header says {payload_len}"
        )
    return payload


def _blob_payload_len(blob: bytes) -> int:
    """Uncompressed payload length without decompressing the body."""
    if len(blob) < _HEADER.size or not blob.startswith(_MAGIC):
        return len(blob)
    _magic, _codec, payload_len = _HEADER.unpack_from(blob)
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
        read_cache_containers: int = DEFAULT_READ_CACHE_CONTAINERS,
        fetch_concurrency: int = DEFAULT_FETCH_CONCURRENCY,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if container_bytes <= 0:
            raise ConfigurationError("container size must be positive")
        if fetch_concurrency <= 0:
            raise ConfigurationError("fetch concurrency must be positive")
        self._backend = backend
        self._capacity = container_bytes
        self._fetch_concurrency = fetch_concurrency
        self._lock = threading.Lock()
        self._open_id = self._next_container_id()
        self._open_buffer = bytearray()
        self._read_cache: LRUCache[int, bytes] = LRUCache(read_cache_containers)
        # Single-flight state: per-container-id events readers wait on
        # while one leader performs the backend fetch.
        self._fetch_lock = threading.Lock()
        self._in_flight: dict[int, threading.Event] = {}
        # Sealed-container byte accounting, learned at seal time (exact)
        # or lazily from headers for containers that predate this store
        # instance (restart support).
        self._payload_lens: dict[int, int] = {}
        self._stored_lens: dict[int, int] = {}
        #: Number of sealed containers written (for stats/experiments).
        self.sealed_containers = 0
        #: Container fetches that missed the read cache.
        self.container_fetches = 0
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_fetches = self.metrics.counter(
            "container_fetch_total",
            "Container fetches that missed the read cache.",
        )
        self._m_payload_bytes = self.metrics.gauge(
            "container_payload_bytes",
            "Uncompressed payload bytes across sealed containers.",
        )
        self._m_compressed_bytes = self.metrics.gauge(
            "container_compressed_bytes",
            "On-disk (framed, possibly compressed) bytes across sealed containers.",
        )
        self._m_ratio = self.metrics.gauge(
            "container_compression_ratio",
            "Uncompressed over on-disk bytes for sealed containers (>= 1 when compression wins).",
        )
        self._m_seal_seconds = self.metrics.histogram(
            "container_seal_seconds",
            "Wall time of one container seal: encode plus backend put.",
        )
        self._m_seals = self.metrics.counter(
            "container_seals_total",
            "Containers sealed, by the codec the encoder chose.",
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

    def append(self, data: bytes) -> ChunkLocation:
        """Buffer a chunk, sealing the open container when it fills."""
        if not data:
            raise ConfigurationError("cannot store an empty chunk")
        with self._lock:
            if self._open_buffer and len(self._open_buffer) + len(data) > self._capacity:
                self._seal_locked()
            location = ChunkLocation(
                container_id=self._open_id,
                offset=len(self._open_buffer),
                length=len(data),
            )
            self._open_buffer.extend(data)
            if len(self._open_buffer) >= self._capacity:
                self._seal_locked()
            return location

    def _seal_locked(self) -> None:
        if not self._open_buffer:
            return
        started = time.perf_counter()
        payload = bytes(self._open_buffer)
        blob = _encode_container(payload)
        self._backend.put(self._name(self._open_id), blob)
        self._m_seal_seconds.observe(time.perf_counter() - started)
        _magic, codec, _len = _HEADER.unpack_from(blob)
        self._m_seals.labels(codec=_CODEC_NAMES[codec]).inc()
        self._record_lens_locked(self._open_id, len(payload), len(blob))
        self.sealed_containers += 1
        self._open_id += 1
        self._open_buffer = bytearray()

    def _record_lens_locked(self, container_id: int, payload: int, stored: int) -> None:
        self._payload_lens[container_id] = payload
        self._stored_lens[container_id] = stored
        self._publish_compression_locked()

    def _publish_compression_locked(self) -> None:
        payload = sum(self._payload_lens.values())
        stored = sum(self._stored_lens.values())
        self._m_payload_bytes.set(payload)
        self._m_compressed_bytes.set(stored)
        self._m_ratio.set(payload / stored if stored else 1.0)

    def _learn_lens(self, container_id: int) -> None:
        """Record byte accounting for a container sealed by a previous
        store instance (statistics only: no cache or counter effects)."""
        with self._lock:
            if container_id in self._payload_lens:
                return
        try:
            blob = self._backend.get(self._name(container_id))
        except NotFoundError:
            return
        with self._lock:
            self._record_lens_locked(container_id, _blob_payload_len(blob), len(blob))

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
                return bool(self._open_buffer)
            if container_id in self._stored_lens:
                return True
        return self._backend.exists(self._name(container_id))

    def payload_length(self, container_id: int) -> int:
        """Uncompressed payload bytes of one container (0 when absent)."""
        with self._lock:
            if container_id == self._open_id:
                return len(self._open_buffer)
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
        end = location.offset + location.length
        if end > len(self._open_buffer):
            raise NotFoundError("location beyond the open container")
        return bytes(self._open_buffer[location.offset:end])

    def _get_container(self, container_id: int) -> bytes:
        """Cached container payload; single-flighted backend fetch on miss."""
        while True:
            payload = self._read_cache.get(container_id)
            if payload is not None:
                return payload
            with self._fetch_lock:
                payload = self._read_cache.get(container_id)
                if payload is not None:
                    return payload
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
                payload = _decode_container(blob)
                with self._lock:
                    self.container_fetches += 1
                    self._record_lens_locked(container_id, len(payload), len(blob))
                self._m_fetches.inc()
                self._read_cache.put(container_id, payload)
                return payload
            finally:
                with self._fetch_lock:
                    self._in_flight.pop(container_id, None)
                waiter.set()

    @staticmethod
    def _slice(payload: bytes, location: ChunkLocation) -> bytes:
        end = location.offset + location.length
        if end > len(payload):
            raise NotFoundError("location beyond its container's size")
        return payload[location.offset:end]

    def read(self, location: ChunkLocation) -> bytes:
        """Fetch a chunk's bytes from its container."""
        with self._lock:
            buffered = self._read_open_locked(location)
        if buffered is not None:
            return buffered
        return self._slice(self._get_container(location.container_id), location)

    def read_many(self, locations: list[ChunkLocation]) -> list[bytes]:
        """Fetch many chunks, hitting each distinct container exactly once.

        Groups the requested locations by container id; cache misses are
        fetched from the backend with bounded concurrency, then every
        chunk is sliced out of its (now cached) container — the coalesced
        read path that turns a fragmented restore from one fetch per
        chunk into one fetch per container.
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
        if len(missing) > 1:
            workers = min(self._fetch_concurrency, len(missing))
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="reed-container-fetch"
            ) as pool:
                # Surface the first fetch error (list() re-raises).
                list(pool.map(self._get_container, missing))
        for cid, indexes in by_container.items():
            payload = self._get_container(cid)
            for i in indexes:
                out[i] = self._slice(payload, locations[i])
        return out  # type: ignore[return-value]

    def delete_container(self, container_id: int) -> None:
        """Drop a sealed container (garbage collection)."""
        self._read_cache.pop(container_id)
        with self._lock:
            self._payload_lens.pop(container_id, None)
            self._stored_lens.pop(container_id, None)
            self._publish_compression_locked()
        self._backend.delete(self._name(container_id))

    def stored_bytes(self) -> int:
        """Uncompressed payload bytes in sealed containers plus the open
        buffer (the byte count dedup accounting is denominated in)."""
        for container_id in self.sealed_container_ids():
            if container_id not in self._payload_lens:
                self._learn_lens(container_id)
        with self._lock:
            return sum(self._payload_lens.values()) + len(self._open_buffer)

    def sealed_payload_bytes(self) -> int:
        """Uncompressed payload bytes across known sealed containers."""
        with self._lock:
            return sum(self._payload_lens.values())

    def compressed_bytes(self) -> int:
        """On-disk bytes of sealed containers (headers included)."""
        return self._backend.total_bytes(_PREFIX)
