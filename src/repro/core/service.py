"""RPC bindings for REED's services.

Three services cross the network in a REED deployment (Fig. 1):

* the **storage service** (REED data-store servers),
* the **key-state service** (the key-store server), and
* the **key manager** (blind-RSA OPRF).

Each service's wire format is written once, as a table
(:data:`STORAGE_RPCS`, :data:`KEYSTATE_RPCS`, :data:`KEY_MANAGER_RPCS`)
that gives every method's wire name, argument fields and reply field.
``register_*`` binds a table to the in-process object it serves (server
side), and each ``Remote*`` stub calls through the same entries with the
object's Python interface (client side).  A client can therefore be
wired to in-process objects in tests and to TCP servers in deployments
without changing a line.

:func:`serve_node` is the one node server: it puts any of the three
behind its own :class:`TcpServer`, for :class:`~repro.core.cluster.TcpCluster`
and ``reed serve`` alike; :func:`start_compaction` runs a data-store
node's compaction daemon.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from typing import Any, NamedTuple

from repro.core.server import REEDServer
from repro.crypto.rsa import RSAPublicKey
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import LocalKeyManagerChannel
from repro.net.rpc import Handler, RpcClient, ServiceRegistry, decode_error, encode_error
from repro.net.tcp import DEFAULT_IDLE_TIMEOUT, TcpServer
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import register_traces
from repro.obs.rpc import register_metrics
from repro.obs.tracing import Tracer
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.util.codec import Decoder, Encoder
from repro.util.daemon import IntervalDaemon
from repro.util.errors import CorruptionError

#: Per-item status codes used by batch responses (``storage.put_many``):
#: the item deduplicated, stored new bytes, or failed with a wire error.
ITEM_DUP, ITEM_NEW, ITEM_ERROR = 0, 1, 2

#: Generic per-item success for batch messages whose items carry no
#: dup/new distinction (metadata puts/gets/deletes).
ITEM_OK = 0

# ---------------------------------------------------------------------------
# Field codecs
# ---------------------------------------------------------------------------


class Field(NamedTuple):
    """How one value crosses the wire: ``put`` appends it to an
    :class:`Encoder`, ``take`` reads it back from a :class:`Decoder`."""

    put: Callable[[Encoder, Any], object]
    take: Callable[[Decoder], Any]


BLOB = Field(Encoder.blob, Decoder.blob)
TEXT = Field(Encoder.text, Decoder.text)
UINT = Field(Encoder.uint, Decoder.uint)
BOOL = Field(Encoder.boolean, Decoder.boolean)
#: No bytes at all: the reply of a method that returns nothing.
NOTHING = Field(lambda _enc, _value: None, lambda _dec: None)


def list_of(item: Field) -> Field:
    """A count, then each item."""
    put_item, take_item = item

    def put(enc: Encoder, values) -> None:
        enc.uint(len(values))
        for value in values:
            put_item(enc, value)

    def take(dec: Decoder) -> list:
        return [take_item(dec) for _ in range(dec.uint())]

    return Field(put, take)


def row(*fields: Field) -> Field:
    """A tuple: each of ``fields`` in turn."""
    puts, takes = zip(*fields)

    def put(enc: Encoder, values) -> None:
        for put_field, value in zip(puts, values, strict=True):
            put_field(enc, value)

    def take(dec: Decoder) -> tuple:
        return tuple([take_field(dec) for take_field in takes])

    return Field(put, take)


def _status(put_ok, take_ok) -> Field:
    """One batch item's result: ``ITEM_ERROR`` and the wire error that
    failed the item alone, or the success ``put_ok``/``take_ok`` frame
    (``take_ok`` gets the status code already read)."""

    def put(enc: Encoder, item) -> None:
        if isinstance(item, Exception):
            enc.uint(ITEM_ERROR).blob(encode_error(item))
        else:
            put_ok(enc, item)

    def take(dec: Decoder):
        code = dec.uint()
        return decode_error(dec.blob()) if code == ITEM_ERROR else take_ok(dec, code)

    return Field(put, take)


def per_item(value: Field = NOTHING) -> Field:
    """Per item: ``ITEM_OK`` and its value, or its error."""
    return _status(
        lambda enc, item: value.put(enc.uint(ITEM_OK), item),
        lambda dec, _code: value.take(dec),
    )


#: ``storage.put_many``'s per-item status: new, deduplicated or failed.
STORED = _status(
    lambda enc, new: enc.uint(ITEM_NEW if new else ITEM_DUP),
    lambda _dec, code: code == ITEM_NEW,
)


#: ``storage.has_many``'s reply: one byte per fingerprint and no count.
FLAGS = Field(
    lambda enc, flags: enc.raw(bytes(1 if flag else 0 for flag in flags)),
    lambda dec: [bool(byte) for byte in dec.raw(dec.remaining)],
)

_DOUBLE = struct.Struct(">d")
#: ``km.backoff_hint``'s reply: a bare big-endian double.
FLOAT = Field(
    lambda enc, value: enc.raw(_DOUBLE.pack(value)),
    lambda dec: _DOUBLE.unpack(dec.raw(_DOUBLE.size))[0],
)

#: ``storage.gc_run``'s optional threshold: 0, or 1 and a blob holding
#: the double.
THRESHOLD = Field(
    lambda enc, value: (
        enc.uint(0) if value is None else enc.uint(1).blob(_DOUBLE.pack(value))
    ),
    lambda dec: _DOUBLE.unpack(dec.blob())[0] if dec.uint() else None,
)

_GC_RATIOS = struct.Struct(">dd")
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


def _put_gc_status(enc: Encoder, status: dict) -> None:
    enc.blob(_GC_RATIOS.pack(status["threshold"], status["dead_space_ratio"]))
    for name in _GC_UINT_FIELDS:
        enc.uint(int(status[name]))


def _take_gc_status(dec: Decoder) -> dict:
    threshold, ratio = _GC_RATIOS.unpack(dec.blob())
    status: dict = {"threshold": threshold, "dead_space_ratio": ratio}
    for name in _GC_UINT_FIELDS:
        status[name] = dec.uint()
    return status


#: A node's dead-space accounting and compaction counters.
GC_STATUS = Field(_put_gc_status, _take_gc_status)

#: A key-state record, in a blob.
RECORD = Field(
    lambda enc, record: enc.blob(record.encode()),
    lambda dec: KeyStateRecord.decode(dec.blob()),
)

#: ``km.public_key``'s reply: the whole payload is the encoded key.
PUBLIC_KEY = Field(
    lambda enc, key: enc.raw(key.encode()),
    lambda dec: RSAPublicKey.decode(dec.raw(dec.remaining)),
)

FINGERPRINTS = list_of(BLOB)
FILE_IDS = list_of(TEXT)
ACKS = list_of(per_item())


class Rpc(NamedTuple):
    """One method's wire format: its wire name, its arguments' fields in
    order, and its reply's field."""

    wire: str
    args: tuple[Field, ...] = ()
    reply: Field = NOTHING


def _pack(fields, values) -> bytes:
    enc = Encoder()
    for field, value in zip(fields, values, strict=True):
        field.put(enc, value)
    return enc.done()


def _unpack(fields, payload: bytes) -> list:
    """Decode ``fields`` from ``payload``, which must end with them."""
    dec = Decoder(payload)
    values = [field.take(dec) for field in fields]
    dec.expect_end()
    return values


def _serve(registry: ServiceRegistry, rpcs: dict[str, Rpc], target: object) -> None:
    """Register a handler per entry of ``rpcs``, each serving the
    same-named method of ``target``."""
    for name, rpc in rpcs.items():
        registry.register(rpc.wire, _handler(rpc, target, name))


def _handler(rpc: Rpc, target: object, name: str) -> Handler:
    def handle(payload: bytes) -> bytes:
        # Looked up on every call: a method patched onto ``target`` after
        # binding is the one served.
        result = getattr(target, name)(*_unpack(rpc.args, payload))
        return _pack((rpc.reply,), (result,))

    handle.reads_views = True  # _unpack copies each field out once
    return handle


class _Stub:
    """Calls the methods of one table over an RPC client."""

    _rpcs: dict[str, Rpc]

    def __init__(self, rpc: RpcClient) -> None:
        self._rpc = rpc

    def _call(self, name: str, *args):
        rpc = self._rpcs[name]
        [reply] = _unpack((rpc.reply,), self._rpc.call(rpc.wire, _pack(rpc.args, args)))
        return reply


# ---------------------------------------------------------------------------
# Storage service
# ---------------------------------------------------------------------------

STORAGE_RPCS: dict[str, Rpc] = {
    "chunk_exists_batch": Rpc("storage.has_many", (FINGERPRINTS,), FLAGS),
    "chunk_put_many": Rpc("storage.put_many", (list_of(row(BLOB, BLOB)), BOOL), list_of(STORED)),
    "chunk_get_batch": Rpc("storage.get", (FINGERPRINTS,), FINGERPRINTS),
    "chunk_release_batch": Rpc("storage.release", (FINGERPRINTS,)),
    "chunk_refcount_batch": Rpc("storage.refcounts", (FINGERPRINTS,), list_of(UINT)),
    "chunk_addref_batch": Rpc("storage.addref", (list_of(row(BLOB, UINT)),)),
    "recipe_list": Rpc("storage.recipe_list", (), FILE_IDS),
    "stub_list": Rpc("storage.stub_list", (), FILE_IDS),
    "recipe_get_many": Rpc("storage.recipe_get_many", (FILE_IDS,), list_of(per_item(BLOB))),
    "file_commit": Rpc("storage.file_commit", (list_of(row(TEXT, BLOB, BLOB)),), ACKS),
    "file_get_many": Rpc(
        "storage.file_get_many", (FILE_IDS,), list_of(per_item(row(BLOB, BLOB)))
    ),
    "meta_delete_many": Rpc("storage.meta_delete_many", (FILE_IDS,), ACKS),
    "flush": Rpc("storage.flush"),
    "chunk_list": Rpc("storage.chunk_list", (), FINGERPRINTS),
    "gc_status": Rpc("storage.gc_status", (), GC_STATUS),
    "gc_run": Rpc("storage.gc_run", (THRESHOLD,), GC_STATUS),
}


def register_storage_service(registry: ServiceRegistry, server: REEDServer) -> None:
    """Expose a :class:`REEDServer` through an RPC registry."""
    _serve(registry, STORAGE_RPCS, server)


class RemoteStorageService(_Stub):
    """Client stub implementing the StorageService protocol over RPC."""

    _rpcs = STORAGE_RPCS

    def chunk_exists_batch(self, fingerprints: list[bytes]) -> list[bool]:
        flags = self._call("chunk_exists_batch", fingerprints)
        # The flag string has no count of its own to decode against.
        if len(flags) != len(fingerprints):
            raise CorruptionError(f"{len(flags)} flags answer {len(fingerprints)} fingerprints")
        return flags

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]], flush: bool = False
    ) -> list[bool | Exception]:
        """Batch put with per-item status decoded from the wire.

        Failed items come back as the *same exception class and message*
        the server-side handler raised (see ``_WIRE_ERRORS``); successful
        neighbours in the batch are unaffected.  ``flush`` travels as a
        trailing flag: the node seals and journals after the batch.
        """
        return self._call("chunk_put_many", chunks, flush)

    def chunk_get_batch(self, fingerprints: list[bytes]) -> list[bytes]:
        return self._call("chunk_get_batch", fingerprints)

    def chunk_release_batch(self, fingerprints: list[bytes]) -> None:
        self._call("chunk_release_batch", fingerprints)

    def chunk_refcount_batch(self, fingerprints: list[bytes]) -> list[int]:
        return self._call("chunk_refcount_batch", fingerprints)

    def chunk_addref_batch(self, refs: list[tuple[bytes, int]]) -> None:
        self._call("chunk_addref_batch", refs)

    def recipe_list(self) -> list[str]:
        return self._call("recipe_list")

    def stub_list(self) -> list[str]:
        return self._call("stub_list")

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        return self._call("recipe_get_many", file_ids)

    def file_commit(self, items: list[tuple[str, bytes, bytes]]) -> list[None | Exception]:
        return self._call("file_commit", items)

    def file_get_many(self, file_ids: list[str]) -> list[tuple[bytes, bytes] | Exception]:
        return self._call("file_get_many", file_ids)

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        return self._call("meta_delete_many", file_ids)

    def flush(self) -> None:
        self._call("flush")

    def gc_status(self) -> dict:
        """Dead-space accounting and compaction counters of the node."""
        return self._call("gc_status")

    def gc_run(self, threshold: float | None = None) -> dict:
        """Run one compaction pass on the node; returns post-pass status."""
        return self._call("gc_run", threshold)

    def chunk_list(self) -> list[bytes]:
        return self._call("chunk_list")


# ---------------------------------------------------------------------------
# Key-state service (key store)
# ---------------------------------------------------------------------------

KEYSTATE_RPCS: dict[str, Rpc] = {
    "put_many": Rpc("keystore.put_many", (list_of(RECORD),), ACKS),
    "get_many": Rpc("keystore.get_many", (FILE_IDS,), list_of(per_item(RECORD))),
    "delete_many": Rpc("keystore.delete_many", (FILE_IDS,), ACKS),
}


def register_keystate_service(registry: ServiceRegistry, keystore: KeyStore) -> None:
    _serve(registry, KEYSTATE_RPCS, keystore)


class RemoteKeyStore(_Stub):
    """Client stub with the same interface as :class:`KeyStore`.

    Every RPC is reported into the active attribution scope
    (``keystore_round_trips``), as :class:`KeyStore` reports each call in
    process, so rekey results report exact key-store traffic in either
    placement.
    """

    _rpcs = KEYSTATE_RPCS

    def _call(self, name: str, *args):
        obs_scope.add("keystore_round_trips")
        return super()._call(name, *args)

    def put_many(self, records: list[KeyStateRecord]) -> list[None | Exception]:
        return self._call("put_many", records)

    def get_many(self, file_ids: list[str]) -> list[KeyStateRecord | Exception]:
        return self._call("get_many", file_ids)

    def delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        return self._call("delete_many", file_ids)


# ---------------------------------------------------------------------------
# Key manager
# ---------------------------------------------------------------------------

KEY_MANAGER_RPCS: dict[str, Rpc] = {
    "public_key": Rpc("km.public_key", (), PUBLIC_KEY),
    "derive_batch": Rpc("km.derive_batch", (TEXT, list_of(BLOB)), list_of(BLOB)),
    "backoff_hint": Rpc("km.backoff_hint", (TEXT, UINT), FLOAT),
}


def _blobs(values: list[int], key: RSAPublicKey) -> list[bytes]:
    """Blinded values and signatures, which are uniform in Z_n, travel as
    ``km.derive_batch``'s blobs at the modulus width; both ends convert
    with this and :func:`_ints`."""
    return [value.to_bytes(key.byte_size, "big") for value in values]


def _ints(blobs: list[bytes]) -> list[int]:
    return [int.from_bytes(blob, "big") for blob in blobs]


class _KeyManagerEndpoint(LocalKeyManagerChannel):
    """The key manager as :data:`KEY_MANAGER_RPCS` serves it."""

    def derive_batch(self, client_id: str, blinded: list[bytes]) -> list[bytes]:
        return _blobs(super().derive_batch(client_id, _ints(blinded)), self.public_key())


def register_key_manager(registry: ServiceRegistry, manager: KeyManager) -> None:
    # The manager's signing span and batch counters belong in the scrape
    # of the node that serves it.
    manager.observe_on(registry.metrics, registry.tracer)
    _serve(registry, KEY_MANAGER_RPCS, _KeyManagerEndpoint(manager))


class RemoteKeyManagerChannel(_Stub):
    """Client stub implementing the KeyManagerChannel protocol over RPC."""

    _rpcs = KEY_MANAGER_RPCS

    def __init__(self, rpc: RpcClient) -> None:
        super().__init__(rpc)
        self._cached_key: RSAPublicKey | None = None

    def public_key(self) -> RSAPublicKey:
        if self._cached_key is None:
            self._cached_key = self._call("public_key")
        return self._cached_key

    def derive_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        """One key-derivation round trip for a batch of blinded values."""
        blobs = _blobs(blinded_values, self.public_key())
        return _ints(self._call("derive_batch", client_id, blobs))

    def backoff_hint(self, client_id: str, batch_size: int) -> float:
        return self._call("backoff_hint", client_id, batch_size)


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
