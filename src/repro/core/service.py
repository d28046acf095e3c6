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
"""

from __future__ import annotations

import struct

from repro.core.server import REEDServer
from repro.crypto.rsa import RSAPublicKey
from repro.mle.keymanager import KeyManager
from repro.net.rpc import RpcClient, ServiceRegistry, decode_error, encode_error
from repro.obs import scope as obs_scope
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError

#: Per-item status codes used by batch responses (``storage.put_many``):
#: the item deduplicated, stored new bytes, or failed with a wire error.
ITEM_DUP, ITEM_NEW, ITEM_ERROR = 0, 1, 2

#: Generic per-item success for batch messages whose items carry no
#: dup/new distinction (metadata puts/gets/deletes).
ITEM_OK = 0

#: Integer fields of the ``storage.gc`` status payload, in wire order
#: (the two float fields — threshold and dead-space ratio — travel as a
#: packed ``>dd`` blob ahead of them).
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


def _decode_named_blobs(payload: bytes) -> list[tuple[str, bytes]]:
    dec = Decoder(payload)
    items = [(dec.text(), dec.blob()) for _ in range(dec.uint())]
    dec.expect_end()
    return items


def _encode_named_blobs(items: list[tuple[str, bytes]]) -> bytes:
    enc = Encoder().uint(len(items))
    for file_id, data in items:
        enc.text(file_id).blob(data)
    return enc.done()


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

    def exists(payload: bytes) -> bytes:
        fps = Decoder(payload).list_of()
        flags = server.chunk_exists_batch(fps)
        return bytes(1 if flag else 0 for flag in flags)

    def put(payload: bytes) -> bytes:
        dec = Decoder(payload)
        count = dec.uint()
        chunks = [(dec.blob(), dec.blob()) for _ in range(count)]
        dec.expect_end()
        return Encoder().uint(server.chunk_put_batch(chunks)).done()

    def put_many(payload: bytes) -> bytes:
        dec = Decoder(payload)
        count = dec.uint()
        chunks = [(dec.blob(), dec.blob()) for _ in range(count)]
        dec.expect_end()
        enc = Encoder().uint(count)
        for status in server.chunk_put_many(chunks):
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

    def recipe_put(payload: bytes) -> bytes:
        dec = Decoder(payload)
        server.recipe_put(dec.text(), dec.blob())
        return b""

    def recipe_get(payload: bytes) -> bytes:
        return server.recipe_get(Decoder(payload).text())

    def recipe_delete(payload: bytes) -> bytes:
        server.recipe_delete(Decoder(payload).text())
        return b""

    def recipe_list(_payload: bytes) -> bytes:
        names = [name.encode("utf-8") for name in server.recipe_list()]
        return Encoder().list_of(names).done()

    def stub_put(payload: bytes) -> bytes:
        dec = Decoder(payload)
        server.stub_put(dec.text(), dec.blob())
        return b""

    def stub_get(payload: bytes) -> bytes:
        return server.stub_get(Decoder(payload).text())

    def stub_delete(payload: bytes) -> bytes:
        server.stub_delete(Decoder(payload).text())
        return b""

    def recipe_put_many(payload: bytes) -> bytes:
        return _encode_item_acks(
            server.recipe_put_many(_decode_named_blobs(payload))
        )

    def recipe_get_many(payload: bytes) -> bytes:
        return _encode_item_blobs(server.recipe_get_many(_decode_ids(payload)))

    def stub_put_many(payload: bytes) -> bytes:
        return _encode_item_acks(
            server.stub_put_many(_decode_named_blobs(payload))
        )

    def stub_get_many(payload: bytes) -> bytes:
        return _encode_item_blobs(server.stub_get_many(_decode_ids(payload)))

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

    def gc(payload: bytes) -> bytes:
        dec = Decoder(payload)
        action = dec.text()
        threshold = None
        if dec.uint():
            threshold = struct.unpack(">d", dec.blob())[0]
        dec.expect_end()
        if action == "run":
            status = server.gc_run(threshold)
        elif action == "status":
            status = server.gc_status()
        else:
            raise ConfigurationError(f"unknown gc action {action!r}")
        enc = Encoder().blob(
            struct.pack(">dd", status["threshold"], status["dead_space_ratio"])
        )
        for name in _GC_UINT_FIELDS:
            enc.uint(int(status[name]))
        return enc.done()

    registry.register(prefix + "exists", exists)
    # ``has_many`` is the batch protocol's name for the same existence
    # check; registered separately so wire captures read unambiguously.
    registry.register(prefix + "has_many", exists)
    registry.register(prefix + "put", put)
    registry.register(prefix + "put_many", put_many)
    registry.register(prefix + "get", get)
    registry.register(prefix + "release", release)
    registry.register(prefix + "refcounts", refcounts)
    registry.register(prefix + "addref", addref)
    registry.register(prefix + "recipe_put", recipe_put)
    registry.register(prefix + "recipe_get", recipe_get)
    registry.register(prefix + "recipe_delete", recipe_delete)
    registry.register(prefix + "recipe_list", recipe_list)
    registry.register(prefix + "stub_put", stub_put)
    registry.register(prefix + "stub_get", stub_get)
    registry.register(prefix + "stub_delete", stub_delete)
    registry.register(prefix + "recipe_put_many", recipe_put_many)
    registry.register(prefix + "recipe_get_many", recipe_get_many)
    registry.register(prefix + "stub_put_many", stub_put_many)
    registry.register(prefix + "stub_get_many", stub_get_many)
    registry.register(prefix + "meta_delete_many", meta_delete_many)
    registry.register(prefix + "flush", flush)
    registry.register(prefix + "chunk_list", chunk_list)
    registry.register(prefix + "stub_list", stub_list)
    registry.register(prefix + "gc", gc)


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

    def chunk_put_batch(self, chunks: list[tuple[bytes, bytes]]) -> int:
        enc = Encoder().uint(len(chunks))
        for fp, data in chunks:
            enc.blob(fp).blob(data)
        dec = Decoder(self._call("put", enc.done()))
        new = dec.uint()
        dec.expect_end()
        return new

    def chunk_put_many(
        self, chunks: list[tuple[bytes, bytes]]
    ) -> list[bool | Exception]:
        """Batch put with per-item status decoded from the wire.

        Failed items come back as the *same exception class and message*
        the server-side handler raised (see ``_WIRE_ERRORS``); successful
        neighbours in the batch are unaffected.
        """
        enc = Encoder().uint(len(chunks))
        for fp, data in chunks:
            enc.blob(fp).blob(data)
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

    def recipe_put(self, file_id: str, data: bytes) -> None:
        self._call("recipe_put", Encoder().text(file_id).blob(data).done())

    def recipe_get(self, file_id: str) -> bytes:
        return self._call("recipe_get", Encoder().text(file_id).done())

    def recipe_delete(self, file_id: str) -> None:
        self._call("recipe_delete", Encoder().text(file_id).done())

    def recipe_list(self) -> list[str]:
        payload = self._call("recipe_list")
        return [name.decode("utf-8") for name in Decoder(payload).list_of()]

    def stub_put(self, file_id: str, data: bytes) -> None:
        self._call("stub_put", Encoder().text(file_id).blob(data).done())

    def stub_get(self, file_id: str) -> bytes:
        return self._call("stub_get", Encoder().text(file_id).done())

    def stub_delete(self, file_id: str) -> None:
        self._call("stub_delete", Encoder().text(file_id).done())

    def recipe_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]:
        return _decode_item_acks(
            self._call("recipe_put_many", _encode_named_blobs(items))
        )

    def recipe_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        return _decode_item_blobs(
            self._call("recipe_get_many", _encode_ids(file_ids))
        )

    def stub_put_many(
        self, items: list[tuple[str, bytes]]
    ) -> list[None | Exception]:
        return _decode_item_acks(
            self._call("stub_put_many", _encode_named_blobs(items))
        )

    def stub_get_many(self, file_ids: list[str]) -> list[bytes | Exception]:
        return _decode_item_blobs(
            self._call("stub_get_many", _encode_ids(file_ids))
        )

    def meta_delete_many(self, file_ids: list[str]) -> list[None | Exception]:
        return _decode_item_acks(
            self._call("meta_delete_many", _encode_ids(file_ids))
        )

    def flush(self) -> None:
        self._call("flush")

    def _gc_call(self, action: str, threshold: float | None = None) -> dict:
        enc = Encoder().text(action)
        if threshold is None:
            enc.uint(0)
        else:
            enc.uint(1).blob(struct.pack(">d", threshold))
        dec = Decoder(self._call("gc", enc.done()))
        threshold_value, ratio = struct.unpack(">dd", dec.blob())
        status: dict = {
            "threshold": threshold_value,
            "dead_space_ratio": ratio,
        }
        for name in _GC_UINT_FIELDS:
            status[name] = dec.uint()
        dec.expect_end()
        return status

    def gc_status(self) -> dict:
        """Dead-space accounting and compaction counters of the node."""
        return self._gc_call("status")

    def gc_run(self, threshold: float | None = None) -> dict:
        """Run one compaction pass on the node; returns post-pass status."""
        return self._gc_call("run", threshold)

    def chunk_list(self) -> list[bytes]:
        return Decoder(self._call("chunk_list")).list_of()

    def stub_list(self) -> list[str]:
        payload = self._call("stub_list")
        return [name.decode("utf-8") for name in Decoder(payload).list_of()]


# ---------------------------------------------------------------------------
# Key-state service (key store)
# ---------------------------------------------------------------------------


def register_keystate_service(
    registry: ServiceRegistry, keystore: KeyStore, prefix: str = "keystore."
) -> None:
    def put(payload: bytes) -> bytes:
        keystore.put(KeyStateRecord.decode(payload))
        return b""

    def get(payload: bytes) -> bytes:
        return keystore.get(Decoder(payload).text()).encode()

    def delete(payload: bytes) -> bytes:
        keystore.delete(Decoder(payload).text())
        return b""

    def exists(payload: bytes) -> bytes:
        return b"\x01" if keystore.exists(Decoder(payload).text()) else b"\x00"

    def list_files(_payload: bytes) -> bytes:
        names = [name.encode("utf-8") for name in keystore.list_files()]
        return Encoder().list_of(names).done()

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

    registry.register(prefix + "put", put)
    registry.register(prefix + "get", get)
    registry.register(prefix + "delete", delete)
    registry.register(prefix + "exists", exists)
    registry.register(prefix + "list", list_files)
    registry.register(prefix + "put_many", put_many)
    registry.register(prefix + "get_many", get_many)
    registry.register(prefix + "delete_many", delete_many)


class RemoteKeyStore:
    """Client stub with the same interface as :class:`KeyStore`.

    Every RPC is reported into the active attribution scope
    (``keystore_round_trips``), so rekey results can report exact
    key-store traffic per operation.
    """

    def __init__(self, rpc: RpcClient, prefix: str = "keystore.") -> None:
        self._rpc = rpc
        self._prefix = prefix

    def _call(self, method: str, payload: bytes = b"") -> bytes:
        obs_scope.add("keystore_round_trips")
        return self._rpc.call(self._prefix + method, payload)

    def put(self, record: KeyStateRecord) -> None:
        self._call("put", record.encode())

    def get(self, file_id: str) -> KeyStateRecord:
        payload = self._call("get", Encoder().text(file_id).done())
        return KeyStateRecord.decode(payload)

    def delete(self, file_id: str) -> None:
        self._call("delete", Encoder().text(file_id).done())

    def exists(self, file_id: str) -> bool:
        payload = self._call("exists", Encoder().text(file_id).done())
        return payload == b"\x01"

    def list_files(self) -> list[str]:
        payload = self._call("list")
        return [name.decode("utf-8") for name in Decoder(payload).list_of()]

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

    def sign_batch(payload: bytes) -> bytes:
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

    def derive_batch(payload: bytes) -> bytes:
        dec = Decoder(payload)
        client_id = dec.text()
        blinded = [int.from_bytes(blob, "big") for blob in dec.list_of()]
        dec.expect_end()
        signatures = manager.derive_batch(client_id, blinded)
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
    registry.register(prefix + "sign_batch", sign_batch)
    registry.register(prefix + "derive_batch", derive_batch)
    registry.register(prefix + "backoff_hint", backoff_hint)


# ---------------------------------------------------------------------------
# Threshold key managers
# ---------------------------------------------------------------------------


def register_threshold_key_manager(
    registry: ServiceRegistry, manager, prefix: str = "tkm."
) -> None:
    """Expose one :class:`~repro.mle.threshold.ThresholdKeyManager`.

    Each group member runs on its own host/port; the client-side
    :class:`RemoteThresholdManager` stubs plug into a
    :class:`~repro.mle.threshold.ThresholdKeyManagerChannel` unchanged.
    """

    def info(_payload: bytes) -> bytes:
        share = manager._share
        return (
            Encoder()
            .uint(share.index)
            .uint(share.threshold)
            .uint(share.players)
            .blob(share.public_key.encode())
            .done()
        )

    def sign_partial(payload: bytes) -> bytes:
        dec = Decoder(payload)
        client_id = dec.text()
        blinded = [int.from_bytes(blob, "big") for blob in dec.list_of()]
        dec.expect_end()
        partials = manager.sign_batch_partial(client_id, blinded)
        byte_size = manager.public_key.byte_size
        return (
            Encoder()
            .list_of([p.to_bytes(byte_size, "big") for p in partials])
            .done()
        )

    registry.register(prefix + "info", info)
    registry.register(prefix + "sign_partial", sign_partial)


class RemoteThresholdManager:
    """Client stub for one remote threshold key manager.

    Duck-types :class:`~repro.mle.threshold.ThresholdKeyManager` closely
    enough for :class:`~repro.mle.threshold.ThresholdKeyManagerChannel`:
    it exposes ``index``, ``available``, ``_share`` metadata, and
    ``sign_batch_partial``.
    """

    def __init__(self, rpc: RpcClient, prefix: str = "tkm.") -> None:
        self._rpc = rpc
        self._prefix = prefix
        dec = Decoder(self._rpc.call(prefix + "info"))
        index = dec.uint()
        threshold = dec.uint()
        players = dec.uint()
        public_key = RSAPublicKey.decode(dec.blob())
        dec.expect_end()
        from repro.mle.threshold import KeyShare

        # value=0: the share value never leaves the manager; only the
        # metadata travels, which is all the channel needs.
        self._share = KeyShare(
            index=index,
            value=0,
            threshold=threshold,
            players=players,
            public_key=public_key,
        )
        self.available = True

    @property
    def index(self) -> int:
        return self._share.index

    @property
    def public_key(self) -> RSAPublicKey:
        return self._share.public_key

    def sign_batch_partial(self, client_id: str, blinded_values: list[int]) -> list[int]:
        byte_size = self._share.public_key.byte_size
        enc = Encoder().text(client_id)
        enc.list_of([v.to_bytes(byte_size, "big") for v in blinded_values])
        payload = self._rpc.call(self._prefix + "sign_partial", enc.done())
        return [int.from_bytes(blob, "big") for blob in Decoder(payload).list_of()]

    def _bucket(self, client_id: str):
        raise NotImplementedError  # backoff hints come from the remote errors


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

    def sign_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        return self._send_blinded("sign_batch", client_id, blinded_values)

    def derive_batch(self, client_id: str, blinded_values: list[int]) -> list[int]:
        """One whole-file key-derivation round trip (batched protocol)."""
        return self._send_blinded("derive_batch", client_id, blinded_values)

    def _send_blinded(
        self, method: str, client_id: str, blinded_values: list[int]
    ) -> list[int]:
        enc = Encoder().text(client_id)
        # Blinded values are uniform in Z_n; encode at the modulus width.
        byte_size = self.public_key().byte_size
        enc.list_of([value.to_bytes(byte_size, "big") for value in blinded_values])
        payload = self._rpc.call(self._prefix + method, enc.done())
        return [int.from_bytes(blob, "big") for blob in Decoder(payload).list_of()]

    def backoff_hint(self, client_id: str, batch_size: int) -> float:
        payload = self._rpc.call(
            self._prefix + "backoff_hint",
            Encoder().text(client_id).uint(batch_size).done(),
        )
        return struct.unpack(">d", payload)[0]
