"""RPC bindings for REED's services.

Three services cross the network in a REED deployment (Fig. 1):

* the **storage service** (REED data-store servers),
* the **key-state service** (the key-store server), and
* the **key manager** (blind-RSA OPRF).

For each, this module provides ``register_*`` (server side: binds the
in-process object's methods into a :class:`ServiceRegistry`) and a
``Remote*`` stub (client side: same Python interface, calls over any RPC
client).  A client can therefore be wired to in-process objects in tests
and to TCP servers in deployments without changing a line.

:func:`serve_node` is the one node server: it puts any of the three
behind its own :class:`TcpServer`, for :class:`~repro.core.cluster.TcpCluster`
and ``reed serve`` alike; :func:`start_compaction` runs a data-store
node's compaction daemon.
"""

from __future__ import annotations

import struct

from repro.core.server import REEDServer
from repro.crypto.rsa import RSAPublicKey
from repro.mle.keymanager import KeyManager
from repro.net.rpc import RpcClient, ServiceRegistry, decode_error, encode_error
from repro.net.tcp import DEFAULT_IDLE_TIMEOUT, TcpServer
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import register_traces
from repro.obs.rpc import register_metrics
from repro.obs.tracing import Tracer
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.util.codec import Decoder, Encoder
from repro.util.daemon import IntervalDaemon

#: Per-item status codes used by batch responses (``storage.put_many``):
#: the item deduplicated, stored new bytes, or failed with a wire error.
ITEM_DUP, ITEM_NEW, ITEM_ERROR = 0, 1, 2

#: Generic per-item success for batch messages whose items carry no
#: dup/new distinction (metadata puts/gets/deletes).
ITEM_OK = 0

#: Integer fields of the ``storage.gc_status``/``storage.gc_run`` reply,
#: in wire order (the two float fields — threshold and dead-space ratio —
#: travel as a packed ``>dd`` blob ahead of them).
_GC_UINT_FIELDS = (
    "live_bytes",
    "dead_bytes",
    "candidates",
    "passes",
    "bytes_reclaimed_total",
    "containers_compacted_total",
    "chunks_relocated_total",
    "last_reclaimed_bytes",
    "last_relocated_chunks",
)


def _encode_item_acks(results: list) -> bytes:
    """Encode write/delete batch results: per item, OK or a wire error."""
    enc = Encoder().uint(len(results))
    for status in results:
        if isinstance(status, Exception):
            enc.uint(ITEM_ERROR).blob(encode_error(status))
        else:
            enc.uint(ITEM_OK)
    return enc.done()


def _decode_item_acks(payload: bytes) -> list[None | Exception]:
    dec = Decoder(payload)
    results: list[None | Exception] = []
    for _ in range(dec.uint()):
        if dec.uint() == ITEM_ERROR:
            results.append(decode_error(dec.blob()))
        else:
            results.append(None)
    dec.expect_end()
    return results


def _encode_item_blobs(results: list) -> bytes:
    """Encode read batch results: per item, the blob or a wire error."""
    enc = Encoder().uint(len(results))
    for item in results:
        if isinstance(item, Exception):
            enc.uint(ITEM_ERROR).blob(encode_error(item))
        else:
            enc.uint(ITEM_OK).blob(item)
    return enc.done()


def _decode_item_blobs(payload: bytes) -> list[bytes | Exception]:
    dec = Decoder(payload)
    results: list[bytes | Exception] = []
    for _ in range(dec.uint()):
        if dec.uint() == ITEM_ERROR:
            results.append(decode_error(dec.blob()))
        else:
            results.append(dec.blob())
    dec.expect_end()
    return results


def _encode_gc_status(status: dict) -> bytes:
    enc = Encoder().blob(
        struct.pack(">dd", status["threshold"], status["dead_space_ratio"])
    )
    for name in _GC_UINT_FIELDS:
        enc.uint(int(status[name]))
    return enc.done()


def _decode_gc_status(payload: bytes) -> dict:
    dec = Decoder(payload)
    threshold, ratio = struct.unpack(">dd", dec.blob())
    status: dict = {"threshold": threshold, "dead_space_ratio": ratio}
    for name in _GC_UINT_FIELDS:
        status[name] = dec.uint()
    dec.expect_end()
    return status


def _encode_ids(file_ids: list[str]) -> bytes:
    return Encoder().list_of([fid.encode("utf-8") for fid in file_ids]).done()


def _decode_ids(payload: bytes) -> list[str]:
    return [blob.decode("utf-8") for blob in Decoder(payload).list_of()]

# ---------------------------------------------------------------------------
# Storage service
# ---------------------------------------------------------------------------


def register_storage_service(
    registry: ServiceRegistry, server: REEDServer, prefix: str = "storage."
) -> None:
    """Expose a :class:`REEDServer` through an RPC registry."""

    def has_many(payload: bytes) -> bytes:
        fps = Decoder(payload).list_of()
        flags = server.chunk_exists_batch(fps)
        return bytes(1 if flag else 0 for flag in flags)

    def put_many(payload: bytes) -> bytes:
        dec = Decoder(payload)
        count = dec.uint()
        chunks = [(dec.blob(), dec.blob()) for _ in range(count)]
        flush = dec.boolean()
        dec.expect_end()
        enc = Encoder().uint(count)
        for status in server.chunk_put_many(chunks, flush=flush):
            if isinstance(status, Exception):
                enc.uint(ITEM_ERROR).blob(encode_error(status))
            else:
                enc.uint(ITEM_NEW if status else ITEM_DUP)
        return enc.done()

    def get(payload: bytes) -> bytes:
        fps = Decoder(payload).list_of()
        return Encoder().list_of(server.chunk_get_batch(fps)).done()

    def release(payload: bytes) -> bytes:
        server.chunk_release_batch(Decoder(payload).list_of())
        return b""

    def refcounts(payload: bytes) -> bytes:
        counts = server.chunk_refcount_batch(Decoder(payload).list_of())
        enc = Encoder().uint(len(counts))
        for count in counts:
            enc.uint(count)
        return enc.done()

    def addref(payload: bytes) -> bytes:
        dec = Decoder(payload)
        refs = [(dec.blob(), dec.uint()) for _ in range(dec.uint())]
        dec.expect_end()
        server.chunk_addref_batch(refs)
        return b""

    def recipe_list(_payload: bytes) -> bytes:
        names = [name.encode("utf-8") for name in server.recipe_list()]
        return Encoder().list_of(names).done()

    def recipe_get_many(payload: bytes) -> bytes:
        return _encode_item_blobs(server.recipe_get_many(_decode_ids(payload)))

    def file_commit(payload: bytes) -> bytes:
        dec = Decoder(payload)
        items = [(dec.text(), dec.blob(), dec.blob()) for _ in range(dec.uint())]
        dec.expect_end()
        return _encode_item_acks(server.file_commit(items))

    def file_get_many(payload: bytes) -> bytes:
        results = server.file_get_many(_decode_ids(payload))
        enc = Encoder().uint(len(results))
        for item in results:
            if isinstance(item, Exception):
                enc.uint(ITEM_ERROR).blob(encode_error(item))
            else:
                enc.uint(ITEM_OK).blob(item[0]).blob(item[1])
        return enc.done()

    def meta_delete_many(payload: bytes) -> bytes:
        return _encode_item_acks(server.meta_delete_many(_decode_ids(payload)))

    def flush(_payload: bytes) -> bytes:
        server.flush()
        return b""

    def chunk_list(_payload: bytes) -> bytes:
        return Encoder().list_of(server.chunk_list()).done()

    def stub_list(_payload: bytes) -> bytes:
        names = [name.encode("utf-8") for name in server.stub_list()]
        return Encoder().list_of(names).done()

    def gc_status(_payload: bytes) -> bytes:
        return _encode_gc_status(server.gc_status())

    def gc_run(payload: bytes) -> bytes:
        dec = Decoder(payload)
        threshold = struct.unpack(">d", dec.blob())[0] if dec.uint() else None
        dec.expect_end()
        return _encode_gc_status(server.gc_run(threshold))

    registry.register(prefix + "has_many", has_many)
    registry.register(prefix + "put_many", put_many)
    registry.register(prefix + "get", get)
    registry.register(prefix + "release", release)
    registry.register(prefix + "refcounts", refcounts)
    registry.register(prefix + "addref", addref)
    registry.register(prefix + "recipe_list", recipe_list)
    registry.register(prefix + "stub_list", stub_list)
    registry.register(prefix + "recipe_get_many", recipe_get_many)
    registry.register(prefix + "file_commit", file_commit)
    registry.register(prefix + "file_get_many", file_get_many)
    registry.register(prefix + "meta_delete_many", meta_delete_many)
    registry.register(prefix + "flush", flush)
    registry.register(prefix + "chunk_list", chunk_list)
    registry.register(prefix + "gc_status", gc_status)
    registry.register(prefix + "gc_run", gc_run)


class RemoteStorageService:
    """Client stub implementing the StorageService protocol over RPC."""

    def __init__(self, rpc: RpcClient, prefix: str = "storage.") -> None:
        self._rpc = rpc
        self._prefix = prefix

    def _call(self, method: str, payload: bytes = b"") -> bytes:
        return self._rpc.call(self._prefix + method, payload)

    def chunk_exists_batch(self, fingerprints: list[bytes]) -> list[bool]:
        flags = self._call("has_many", Encoder().list_of(fingerprints).done())
        return [bool(b) for b in flags]

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]], flush: bool = False
    ) -> list[bool | Exception]:
        """Batch put with per-item status decoded from the wire.

        Failed items come back as the *same exception class and message*
        the server-side handler raised (see ``_WIRE_ERRORS``); successful
        neighbours in the batch are unaffected.  ``flush`` travels as a
        trailing flag: the node seals and journals after the batch.
        """
        enc = Encoder().uint(len(chunks))
        for fp, data in chunks:
            enc.blob(fp).blob(data)
        enc.boolean(flush)
        dec = Decoder(self._call("put_many", enc.done()))
        count = dec.uint()
        results: list[bool | Exception] = []
        for _ in range(count):
            status = dec.uint()
            if status == ITEM_ERROR:
                results.append(decode_error(dec.blob()))
            else:
                results.append(status == ITEM_NEW)
        dec.expect_end()
        return results

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]:
        payload = self._call("get", Encoder().list_of(fingerprints).done())
        return Decoder(payload).list_of()

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None:
        self._call("release", Encoder().list_of(fingerprints).done())

    def chunk_refcount_batch(self, fingerprints: list[bytes]) -> list[int]:
        payload = self._call(
            "refcounts", Encoder().list_of(fingerprints).done()
        )
        dec = Decoder(payload)
        counts = [dec.uint() for _ in range(dec.uint())]
        dec.expect_end()
        return counts

    def chunk_addref_batch(self, refs: list[tuple[bytes, int]]) -> None:
        enc = Encoder().uint(len(refs))
        for fp, count in refs:
            enc.blob(fp).uint(count)
        self._call("addref", enc.done())

    def recipe_list(self) -> list[str]:
        payload = self._call("recipe_list")
        return [name.decode("utf-8") for name in Decoder(payload).list_of()]

    def stub_list(self) -> list[str]:
        payload = self._call("stub_list")
        return [name.decode("utf-8") for name in Decoder(payload).list_of()]

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        return _decode_item_blobs(
            self._call("recipe_get_many", _encode_ids(file_ids))
        )

    def file_commit(
        self, items: list[tuple[str, bytes, bytes]]
    ) -> list[None | Exception]:
        enc = Encoder().uint(len(items))
        for file_id, stub_file, recipe in items:
            enc.text(file_id).blob(stub_file).blob(recipe)
        return _decode_item_acks(self._call("file_commit", enc.done()))

    def file_get_many(
        self, file_ids: list[str]
    ) -> list[tuple[bytes, bytes] | Exception]:
        dec = Decoder(self._call("file_get_many", _encode_ids(file_ids)))
        results: list[tuple[bytes, bytes] | Exception] = []
        for _ in range(dec.uint()):
            if dec.uint() == ITEM_ERROR:
                results.append(decode_error(dec.blob()))
            else:
                results.append((dec.blob(), dec.blob()))
        dec.expect_end()
        return results

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        return _decode_item_acks(
            self._call("meta_delete_many", _encode_ids(file_ids))
        )

    def flush(self) -> None:
        self._call("flush")

    def gc_status(self) -> dict:
        """Dead-space accounting and compaction counters of the node."""
        return _decode_gc_status(self._call("gc_status"))

    def gc_run(self, threshold: float | None = None) -> dict:
        """Run one compaction pass on the node; returns post-pass status."""
        enc = Encoder()
        if threshold is None:
            enc.uint(0)
        else:
            enc.uint(1).blob(struct.pack(">d", threshold))
        return _decode_gc_status(self._call("gc_run", enc.done()))

    def chunk_list(self) -> list[bytes]:
        return Decoder(self._call("chunk_list")).list_of()


# ---------------------------------------------------------------------------
# Key-state service (key store)
# ---------------------------------------------------------------------------


def register_keystate_service(
    registry: ServiceRegistry, keystore: KeyStore, prefix: str = "keystore."
) -> None:
    def put_many(payload: bytes) -> bytes:
        records = [
            KeyStateRecord.decode(blob) for blob in Decoder(payload).list_of()
        ]
        return _encode_item_acks(keystore.put_many(records))

    def get_many(payload: bytes) -> bytes:
        results = keystore.get_many(_decode_ids(payload))
        return _encode_item_blobs(
            [
                item if isinstance(item, Exception) else item.encode()
                for item in results
            ]
        )

    def delete_many(payload: bytes) -> bytes:
        return _encode_item_acks(keystore.delete_many(_decode_ids(payload)))

    registry.register(prefix + "put_many", put_many)
    registry.register(prefix + "get_many", get_many)
    registry.register(prefix + "delete_many", delete_many)


class RemoteKeyStore:
    """Client stub with the same interface as :class:`KeyStore`.

    Every RPC is reported into the active attribution scope
    (``keystore_round_trips``), as :class:`KeyStore` reports each call in
    process, so rekey results report exact key-store traffic in either
    placement.
    """

    def __init__(self, rpc: RpcClient, prefix: str = "keystore.") -> None:
        self._rpc = rpc
        self._prefix = prefix

    def _call(self, method: str, payload: bytes) -> bytes:
        obs_scope.add("keystore_round_trips")
        return self._rpc.call(self._prefix + method, payload)

    def put_many(
        self, records: list[KeyStateRecord]
    ) -> list[None | Exception]:
        payload = Encoder().list_of([r.encode() for r in records]).done()
        return _decode_item_acks(self._call("put_many", payload))

    def get_many(
        self, file_ids: list[str]
    ) -> list[KeyStateRecord | Exception]:
        results = _decode_item_blobs(
            self._call("get_many", _encode_ids(file_ids))
        )
        return [
            item if isinstance(item, Exception) else KeyStateRecord.decode(item)
            for item in results
        ]

    def delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        return _decode_item_acks(self._call("delete_many", _encode_ids(file_ids)))


# ---------------------------------------------------------------------------
# Key manager
# ---------------------------------------------------------------------------


def register_key_manager(
    registry: ServiceRegistry, manager: KeyManager, prefix: str = "km."
) -> None:
    # The manager's signing span and batch counters belong in the scrape
    # of the node that serves it.
    manager.observe_on(registry.metrics, registry.tracer)

    def public_key(_payload: bytes) -> bytes:
        return manager.public_key.encode()

    def derive_batch(payload: bytes) -> bytes:
        dec = Decoder(payload)
        client_id = dec.text()
        blinded = [int.from_bytes(blob, "big") for blob in dec.list_of()]
        dec.expect_end()
        signatures = manager.sign_batch(client_id, blinded)
        byte_size = manager.public_key.byte_size
        return (
            Encoder()
            .list_of([sig.to_bytes(byte_size, "big") for sig in signatures])
            .done()
        )

    def backoff_hint(payload: bytes) -> bytes:
        dec = Decoder(payload)
        client_id = dec.text()
        batch_size = dec.uint()
        dec.expect_end()
        return struct.pack(">d", manager.seconds_until_allowed(client_id, batch_size))

    registry.register(prefix + "public_key", public_key)
    registry.register(prefix + "derive_batch", derive_batch)
    registry.register(prefix + "backoff_hint", backoff_hint)


class RemoteKeyManagerChannel:
    """Client stub implementing the KeyManagerChannel protocol over RPC."""

    def __init__(self, rpc: RpcClient, prefix: str = "km.") -> None:
        self._rpc = rpc
        self._prefix = prefix
        self._cached_key: RSAPublicKey | None = None

    def public_key(self) -> RSAPublicKey:
        if self._cached_key is None:
            self._cached_key = RSAPublicKey.decode(
                self._rpc.call(self._prefix + "public_key")
            )
        return self._cached_key

    def derive_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        """One key-derivation round trip for a batch of blinded values."""
        enc = Encoder().text(client_id)
        # Blinded values are uniform in Z_n; encode at the modulus width.
        byte_size = self.public_key().byte_size
        enc.list_of([value.to_bytes(byte_size, "big") for value in blinded_values])
        payload = self._rpc.call(self._prefix + "derive_batch", enc.done())
        return [int.from_bytes(blob, "big") for blob in Decoder(payload).list_of()]

    def backoff_hint(self, client_id: str, batch_size: int) -> float:
        payload = self._rpc.call(
            self._prefix + "backoff_hint",
            Encoder().text(client_id).uint(batch_size).done(),
        )
        return struct.unpack(">d", payload)[0]


# ---------------------------------------------------------------------------
# Node server
# ---------------------------------------------------------------------------


def serve_node(
    register,
    obj,
    metrics: MetricsRegistry,
    tracer: Tracer,
    host: str = "127.0.0.1",
    port: int = 0,
    idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
) -> TcpServer:
    """Serve one node's service on its own (started) TCP server.

    ``register`` is one of the ``register_*`` functions above and
    ``obj`` the object it exposes.  Every node is also scrapeable over
    its ``metrics`` RPC and serves its trace-fragment ring over
    ``traces``; the node's store, dispatch and transport all report
    into ``metrics``.
    """
    registry = ServiceRegistry(metrics=metrics, tracer=tracer)
    register(registry, obj)
    register_metrics(registry, metrics)
    register_traces(registry, tracer)
    server = TcpServer(
        registry, host=host, port=port, metrics=metrics, idle_timeout=idle_timeout
    )
    server.start()
    return server


def start_compaction(server: REEDServer, interval: float) -> IntervalDaemon:
    """Start a data-store node's compaction daemon (one pass per
    ``interval`` seconds) and return it, running."""
    engine = server.gc_engine()
    daemon = IntervalDaemon(
        engine.run_once,
        engine.pass_failures,
        interval=interval,
        name="reed-compaction",
    )
    daemon.start()
    return daemon
