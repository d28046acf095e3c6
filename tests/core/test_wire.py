"""The wire format of every service RPC, pinned byte for byte.

One scripted session calls all 22 RPCs of the storage, key-state and
key-manager services through their ``Remote*`` stubs over a
:class:`LoopbackTransport`, and records each framed request and reply.
Every batch method answers at least one item with a per-item error.
``GOLDEN`` holds the bytes; a codec change that moves a single byte
fails :func:`test_every_rpc_is_pinned_byte_for_byte`.

The same session supplies a well-formed request and reply for each
method, which :func:`test_a_trailing_byte_is_rejected` extends by one
byte on either side of the wire.
"""

from __future__ import annotations

import pytest

from repro.core.server import REEDServer
from repro.core.service import (
    RemoteKeyManagerChannel,
    RemoteKeyStore,
    RemoteStorageService,
    register_key_manager,
    register_keystate_service,
    register_storage_service,
)
from repro.crypto.hashing import fingerprint
from repro.mle.keymanager import KeyManager
from repro.net.message import Message
from repro.net.rpc import LoopbackTransport, RpcClient, ServiceRegistry, decode_error
from repro.obs.metrics import MetricsRegistry
from repro.storage.backend import MemoryBackend
from repro.storage.datastore import DataStore
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.util.errors import CorruptionError, StorageError


class _RefusingBackend(MemoryBackend):
    """Refuses every blob whose name ends in ``refused``: a per-item
    write failure for the batch writes."""

    def put(self, name: str, data: bytes) -> None:
        if name.endswith("refused"):
            raise StorageError(f"refused to store {name!r}")
        super().put(name, data)


def _record(file_id: str) -> KeyStateRecord:
    return KeyStateRecord(
        file_id=file_id,
        policy_text="(alice or bob)",
        key_version=3,
        encrypted_state=b"\x01\x02",
        owner_public_key=b"\x03",
    )


FP = fingerprint(b"chunk")
OTHER = fingerprint(b"other")
MISSING = fingerprint(b"missing")

#: ``(label, stub, method, args)``: the stub is ``S``torage, ``K``ey
#: store or key ``M``anager.  Order matters: later calls read what
#: earlier ones wrote.
SCRIPT = (
    ("storage.has_many", "S", "chunk_exists_batch", ([FP, MISSING],)),
    (
        "storage.put_many",
        "S",
        "chunk_put_many",
        ([(FP, b"chunk"), (FP, b"chunk"), (MISSING, b"forged")], True),
    ),
    ("storage.put_many/unflushed", "S", "chunk_put_many", ([(OTHER, b"other")],)),
    ("storage.get", "S", "chunk_get_batch", ([FP, OTHER],)),
    ("storage.refcounts", "S", "chunk_refcount_batch", ([FP, MISSING],)),
    ("storage.addref", "S", "chunk_addref_batch", ([(FP, 3), (OTHER, 1)],)),
    ("storage.release", "S", "chunk_release_batch", ([OTHER, OTHER, MISSING],)),
    (
        "storage.file_commit",
        "S",
        "file_commit",
        ([("f", b"stub", b"recipe"), ("refused", b"s", b"r")],),
    ),
    ("storage.recipe_list", "S", "recipe_list", ()),
    ("storage.stub_list", "S", "stub_list", ()),
    ("storage.recipe_get_many", "S", "recipe_get_many", (["f", "missing"],)),
    ("storage.file_get_many", "S", "file_get_many", (["f", "missing"],)),
    ("storage.meta_delete_many", "S", "meta_delete_many", (["f", "missing"],)),
    ("storage.flush", "S", "flush", ()),
    ("storage.chunk_list", "S", "chunk_list", ()),
    ("storage.gc_status", "S", "gc_status", ()),
    ("storage.gc_run/threshold", "S", "gc_run", (0.9,)),
    ("storage.gc_run", "S", "gc_run", ()),
    ("keystore.put_many", "K", "put_many", ([_record("f"), _record("refused")],)),
    ("keystore.get_many", "K", "get_many", (["f", "missing"],)),
    ("keystore.delete_many", "K", "delete_many", (["f", "missing"],)),
    ("km.public_key", "M", "public_key", ()),
    ("km.derive_batch", "M", "derive_batch", ("alice", [5, 7])),
    ("km.backoff_hint", "M", "backoff_hint", ("alice", 3)),
)

#: ``label -> (request frame, reply frame)`` in hex, as recorded.
GOLDEN = {
    "storage.has_many": (
        (
            "011073746f726167652e6861735f6d616e79004302206c87f68371b28954707ebb92afee7ccffb"
            "74c6f71ec8fea8a98cf6104289585b20ffa63583dfa6706b87d284b86b0d693a161e4840aad2c5"
            "cf6b5d27c3b9621f7d"
        ),
        "011073746f726167652e6861735f6d616e7900020000",
    ),
    "storage.put_many": (
        (
            "021073746f726167652e7075745f6d616e79007803206c87f68371b28954707ebb92afee7ccffb"
            "74c6f71ec8fea8a98cf6104289585b056368756e6b206c87f68371b28954707ebb92afee7ccffb"
            "74c6f71ec8fea8a98cf6104289585b056368756e6b20ffa63583dfa6706b87d284b86b0d693a16"
            "1e4840aad2c5cf6b5d27c3b9621f7d06666f7267656401"
        ),
        (
            "021073746f726167652e7075745f6d616e79004b03010002460e496e746567726974794572726f"
            "723675706c6f61646564206368756e6b20646f6573206e6f74206d617463682069747320646563"
            "6c617265642066696e6765727072696e74"
        ),
    ),
    "storage.put_many/unflushed": (
        (
            "031073746f726167652e7075745f6d616e7900290120d9298a10d1b0735837dc4bd85dac641b0f"
            "3cef27a47e5d53a54f2f3f5b2fcffa056f7468657200"
        ),
        "031073746f726167652e7075745f6d616e7900020101",
    ),
    "storage.get": (
        (
            "040b73746f726167652e676574004302206c87f68371b28954707ebb92afee7ccffb74c6f71ec8"
            "fea8a98cf6104289585b20d9298a10d1b0735837dc4bd85dac641b0f3cef27a47e5d53a54f2f3f"
            "5b2fcffa"
        ),
        "040b73746f726167652e676574000d02056368756e6b056f74686572",
    ),
    "storage.refcounts": (
        (
            "051173746f726167652e726566636f756e7473004302206c87f68371b28954707ebb92afee7ccf"
            "fb74c6f71ec8fea8a98cf6104289585b20ffa63583dfa6706b87d284b86b0d693a161e4840aad2"
            "c5cf6b5d27c3b9621f7d"
        ),
        "051173746f726167652e726566636f756e74730003020200",
    ),
    "storage.addref": (
        (
            "060e73746f726167652e616464726566004502206c87f68371b28954707ebb92afee7ccffb74c6"
            "f71ec8fea8a98cf6104289585b0320d9298a10d1b0735837dc4bd85dac641b0f3cef27a47e5d53"
            "a54f2f3f5b2fcffa01"
        ),
        "060e73746f726167652e6164647265660000",
    ),
    "storage.release": (
        (
            "070f73746f726167652e72656c6561736500640320d9298a10d1b0735837dc4bd85dac641b0f3c"
            "ef27a47e5d53a54f2f3f5b2fcffa20d9298a10d1b0735837dc4bd85dac641b0f3cef27a47e5d53"
            "a54f2f3f5b2fcffa20ffa63583dfa6706b87d284b86b0d693a161e4840aad2c5cf6b5d27c3b962"
            "1f7d"
        ),
        "070f73746f726167652e72656c656173650000",
    ),
    "storage.file_commit": (
        (
            "081373746f726167652e66696c655f636f6d6d6974001b02016604737475620672656369706507"
            "7265667573656401730172"
        ),
        (
            "081373746f726167652e66696c655f636f6d6d697400310200022d0c53746f726167654572726f"
            "721f7265667573656420746f2073746f72652027737475622f7265667573656427"
        ),
    ),
    "storage.recipe_list": (
        "091373746f726167652e7265636970655f6c6973740000",
        "091373746f726167652e7265636970655f6c6973740003010166",
    ),
    "storage.stub_list": (
        "0a1173746f726167652e737475625f6c6973740000",
        "0a1173746f726167652e737475625f6c6973740003010166",
    ),
    "storage.recipe_get_many": (
        "0b1773746f726167652e7265636970655f6765745f6d616e79000b020166076d697373696e67",
        (
            "0b1773746f726167652e7265636970655f6765745f6d616e790038020006726563697065022d0d"
            "4e6f74466f756e644572726f721e6e6f20626c6f62206e616d656420277265636970652f6d6973"
            "73696e6727"
        ),
    ),
    "storage.file_get_many": (
        "0c1573746f726167652e66696c655f6765745f6d616e79000b020166076d697373696e67",
        (
            "0c1573746f726167652e66696c655f6765745f6d616e79003b0200047374756206726563697065"
            "022b0d4e6f74466f756e644572726f721c6e6f20626c6f62206e616d65642027737475622f6d69"
            "7373696e6727"
        ),
    ),
    "storage.meta_delete_many": (
        (
            "0d1873746f726167652e6d6574615f64656c6574655f6d616e79000b020166076d697373696e67"
        ),
        (
            "0d1873746f726167652e6d6574615f64656c6574655f6d616e790037020002330d4e6f74466f75"
            "6e644572726f72246e6f20737475622066696c65206f722072656369706520666f7220276d6973"
            "73696e6727"
        ),
    ),
    "storage.flush": (
        "0e0d73746f726167652e666c7573680000",
        "0e0d73746f726167652e666c7573680000",
    ),
    "storage.chunk_list": (
        "0f1273746f726167652e6368756e6b5f6c6973740000",
        (
            "0f1273746f726167652e6368756e6b5f6c697374002201206c87f68371b28954707ebb92afee7c"
            "cffb74c6f71ec8fea8a98cf6104289585b"
        ),
    ),
    "storage.gc_status": (
        "101173746f726167652e67635f7374617475730000",
        (
            "101173746f726167652e67635f737461747573001a103fd00000000000003fe000000000000005"
            "0501000000000000"
        ),
    ),
    "storage.gc_run/threshold": (
        "110e73746f726167652e67635f72756e000a01083feccccccccccccd",
        (
            "110e73746f726167652e67635f72756e001a103fd0000000000000000000000000000005000001"
            "0501000500"
        ),
    ),
    "storage.gc_run": (
        "120e73746f726167652e67635f72756e000100",
        (
            "120e73746f726167652e67635f72756e001a103fd0000000000000000000000000000005000002"
            "0501000000"
        ),
    ),
    "keystore.put_many": (
        (
            "13116b657973746f72652e7075745f6d616e790037021701660e28616c696365206f7220626f62"
            "290302010201031d07726566757365640e28616c696365206f7220626f6229030201020103"
        ),
        (
            "13116b657973746f72652e7075745f6d616e790035020002310c53746f726167654572726f7223"
            "7265667573656420746f2073746f726520276b657973746174652f7265667573656427"
        ),
    ),
    "keystore.get_many": (
        "14116b657973746f72652e6765745f6d616e79000b020166076d697373696e67",
        (
            "14116b657973746f72652e6765745f6d616e79004b02001701660e28616c696365206f7220626f"
            "6229030201020103022f0d4e6f74466f756e644572726f72206e6f20626c6f62206e616d656420"
            "276b657973746174652f6d697373696e6727"
        ),
    ),
    "keystore.delete_many": (
        "15146b657973746f72652e64656c6574655f6d616e79000b020166076d697373696e67",
        (
            "15146b657973746f72652e64656c6574655f6d616e7900330200022f0d4e6f74466f756e644572"
            "726f72206e6f20626c6f62206e616d656420276b657973746174652f6d697373696e6727"
        ),
    ),
    "km.public_key": (
        "160d6b6d2e7075626c69635f6b65790000",
        (
            "160d6b6d2e7075626c69635f6b65790045409b3410660b5bb10841f2895634b49cee07344af6c2"
            "ef22b78a6d75381824e70b59be70fa211c341c05032e4dccacbcae3c697107f51c8ac1849b7c98"
            "9844998103010001"
        ),
    ),
    "km.derive_batch": (
        (
            "170f6b6d2e6465726976655f626174636800890105616c69636502400000000000000000000000"
            "000000000000000000000000000000000000000000000000000000000000000000000000000000"
            "000000000000000000000000000540000000000000000000000000000000000000000000000000"
            "000000000000000000000000000000000000000000000000000000000000000000000000000000"
            "07"
        ),
        (
            "170f6b6d2e6465726976655f626174636800830102407c24884e58916068ac3beb61faf8ab7134"
            "b5d3cc321c1768cb76be9a9eef0b1614be7f264bd3c5883d0d51f05d7c0ab71a6438faf2d626bd"
            "5ef7db2a1846decd4028fbe49396794a9121edc5f8faa83ea0739602953573fbe567136a57d40b"
            "9d4683cc4ab65e549227b7f14d483a6f876b945236650ce486a13bb9b2031affb548"
        ),
    ),
    "km.backoff_hint": (
        "180f6b6d2e6261636b6f66665f68696e74000705616c69636503",
        "180f6b6d2e6261636b6f66665f68696e7400083ff0000000000000",
    ),
}


def _registry(rsa_512) -> ServiceRegistry:
    """All three services on fresh, deterministic state: a frozen clock
    keeps the key manager's back-off hint constant."""
    metrics = MetricsRegistry()
    registry = ServiceRegistry(metrics=metrics)
    store = DataStore(_RefusingBackend(), metrics=metrics)
    register_storage_service(registry, REEDServer(store))
    register_keystate_service(registry, KeyStore(_RefusingBackend()))
    manager = KeyManager(private_key=rsa_512, rate_limit=1.0, burst=4, clock=lambda: 0.0)
    register_key_manager(registry, manager)
    return registry


def _stubs(rpc: RpcClient) -> dict:
    return {
        "S": RemoteStorageService(rpc),
        "K": RemoteKeyStore(rpc),
        "M": RemoteKeyManagerChannel(rpc),
    }


def _record_session(rsa_512) -> dict[str, tuple[str, str]]:
    """Run :data:`SCRIPT`; each call must make exactly one round trip."""
    frames: list[tuple[bytes, bytes]] = []
    transport = LoopbackTransport(
        _registry(rsa_512), on_message=lambda req, resp: frames.append((req, resp))
    )
    stubs = _stubs(transport.client())
    session = {}
    for label, stub, method, args in SCRIPT:
        getattr(stubs[stub], method)(*args)
        [(request, reply)] = frames
        frames.clear()
        session[label] = (request.hex(), reply.hex())
    return session


def test_every_rpc_is_pinned_byte_for_byte(rsa_512):
    session = _record_session(rsa_512)
    assert list(session) == list(GOLDEN)
    for label, frames in GOLDEN.items():
        assert session[label] == frames, label


def test_the_session_covers_every_served_method(rsa_512):
    """All 22 methods, and nothing else, are pinned."""
    wire = {Message.decode(bytes.fromhex(req)).method for req, _ in GOLDEN.values()}
    assert wire == set(_registry(rsa_512).methods())
    assert len(wire) == 22


def _first_call(method: str):
    """The first scripted call of a wire method and its recorded request."""
    for label, stub, name, args in SCRIPT:
        if label.split("/")[0] == method:
            return stub, name, args, Message.decode(bytes.fromhex(GOLDEN[label][0]))
    raise AssertionError(f"{method} is not scripted")


METHODS = sorted({label.split("/")[0] for label, *_ in SCRIPT})


@pytest.mark.parametrize("method", METHODS)
def test_a_trailing_byte_is_rejected(rsa_512, method):
    """A handler refuses a request with one byte past its last field,
    and a stub refuses such a reply: both ends decode to the end."""
    stub, name, args, request = _first_call(method)
    padded = Message(1, request.method, False, request.payload + b"\x00")
    answer = _registry(rsa_512).dispatch(padded)
    assert answer.is_error
    assert isinstance(decode_error(answer.payload), CorruptionError)

    replies: dict[str, bytes] = {}
    for label, (sent, answered) in GOLDEN.items():
        replies.setdefault(Message.decode(bytes.fromhex(sent)).method, answered)

    def send(sent: Message) -> Message:
        recorded = Message.decode(bytes.fromhex(replies[sent.method]))
        payload = recorded.payload + (b"\x00" if sent.method == method else b"")
        return Message(sent.message_id, sent.method, False, payload)

    with pytest.raises(CorruptionError):
        getattr(_stubs(RpcClient(send))[stub], name)(*args)
