"""Layer replays (source **R**).

Direct, serial, single-thread calls of a layer's public functions on the
first 4 MiB of the workload's own input — for the layers the client
calls internally, which a proxy around its collaborators cannot reach.
Every replay checks its own output, so a wrong result fails the run.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time

from repro.abe.cpabe import AttributeAuthority, abe_decrypt, abe_encrypt
from repro.chunking.chunker import ChunkingSpec, chunk_stream
from repro.core.parallel import ChunkTransformPool
from repro.core.policy import FilePolicy
from repro.core.schemes import get_scheme
from repro.core.server import REEDServer
from repro.core.service import RemoteStorageService, register_storage_service
from repro.core.stubs import decrypt_stub_file, encrypt_stub_file, reencrypt_stub_file
from repro.crypto import blindrsa
from repro.crypto.drbg import HmacDrbg
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.net.message import Message
from repro.net.rpc import LoopbackTransport, ServiceRegistry
from repro.obs.metrics import MetricsRegistry
from repro.storage.datastore import DataStore

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.inputs import MiB, REKEY_USERS
from benchmarks.e2e.record import Recorder
from benchmarks.e2e.rig import KEY_BITS, Rig
from benchmarks.e2e.workloads import Workload

OPRF_KEYS = 64
ECHO_CALLS = 200
SMALL_REPEATS = 30

_TABLE_BUILD_SCRIPT = """
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.chunking.chunker import ChunkingSpec, chunk_stream
data = bytes(range(256)) * 1024
def once():
    start = time.perf_counter()
    list(chunk_stream(data, ChunkingSpec()))
    return time.perf_counter() - start
first = once()
print(first - once())
"""


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _per_call_us(fn, repeats: int = SMALL_REPEATS) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e6


def table_build_seconds() -> float:
    """First minus second ``chunk_stream`` call in a fresh interpreter:
    what every new process pays once before it can chunk."""
    done = subprocess.run(
        [sys.executable, "-c", _TABLE_BUILD_SCRIPT, f"{REPO_ROOT}/src"],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.strip())


def replay(workload: Workload, rig: Rig, rec: Recorder) -> dict[str, float]:
    data = workload.replay_data()
    mib = len(data) / MiB
    rng = HmacDrbg(f"e2e/replay/{workload.name}/{workload.seed}".encode())
    out: dict[str, float] = {}

    # chunking
    chunks, seconds = _timed(lambda: list(chunk_stream(data, ChunkingSpec())))
    rec.check("replay:chunking", b"".join(c.data for c in chunks) == data)
    out["chunking.mibps"] = mib / seconds
    out["chunking.chunks_per_mib"] = len(chunks) / mib
    out["chunking.table_build_s"] = table_build_seconds()

    # core.schemes (serial) and core.parallel (the client's pool)
    scheme = get_scheme("enhanced")
    plain = [chunk.data for chunk in chunks]
    keys = [hashlib.sha256(b"replay-mle-key" + c.fingerprint).digest() for c in chunks]
    packages, seconds = _timed(
        lambda: [scheme.encrypt_chunk(chunk, key) for chunk, key in zip(plain, keys)]
    )
    out["core.schemes.encrypt_mibps"] = mib / seconds
    trimmed = [package.trimmed_package for package in packages]
    stubs = [package.stub for package in packages]
    restored, seconds = _timed(
        lambda: [scheme.decrypt_chunk(t, s) for t, s in zip(trimmed, stubs)]
    )
    out["core.schemes.decrypt_mibps"] = mib / seconds
    rec.check("replay:schemes", restored == plain)
    with ChunkTransformPool(scheme) as pool:
        _, cold = _timed(lambda: pool.encrypt(plain, keys))
        pooled, warm = _timed(lambda: pool.encrypt(plain, keys))
        out["core.parallel.encrypt_mibps"] = mib / warm
        out["core.parallel.pool_spawn_s"] = cold - warm
        restored, seconds = _timed(lambda: pool.decrypt(trimmed, stubs))
        out["core.parallel.decrypt_mibps"] = mib / seconds
    rec.check("replay:parallel", pooled == packages and restored == plain)

    # core.stubs: the whole replay's stubs, then one workload file's worth
    old_key, new_key = rng.random_bytes(32), rng.random_bytes(32)
    stub_mib = sum(len(stub) for stub in stubs) / MiB
    seal = lambda items: encrypt_stub_file(
        old_key, items, stub_size=scheme.stub_size, cipher=scheme.cipher, rng=rng
    )
    out["core.stubs.encrypt_mibps"] = stub_mib / (_per_call_us(lambda: seal(stubs)) / 1e6)
    first_file = workload.input_files()[0]
    per_file = stubs[: max(1, round(len(stubs) * min(1.0, first_file.size / len(data))))]
    stub_file = seal(per_file)
    out["core.stubs.reencrypt_us_per_file"] = _per_call_us(
        lambda: reencrypt_stub_file(old_key, new_key, stub_file, scheme.cipher, rng)
    )
    rec.check(
        "replay:stubs",
        decrypt_stub_file(
            new_key,
            reencrypt_stub_file(old_key, new_key, stub_file, scheme.cipher, rng),
            scheme.cipher,
        )
        == per_file,
    )

    # keyreg and abe: one key state under the rekey workload's policy size
    owner = KeyRegressionOwner(key_bits=KEY_BITS, rng=rng)
    state = owner.initial_state()
    wound = owner.wind(state)
    out["keyreg.wind_us"] = _per_call_us(lambda: owner.wind(state))
    out["keyreg.unwind_us"] = _per_call_us(lambda: owner.member().unwind(wound))
    rec.check("replay:keyreg", owner.member().unwind(wound) == state)
    users = [f"user-{index}" for index in range(REKEY_USERS)]
    authority = AttributeAuthority(rng=rng)
    tree = FilePolicy.for_users(users).tree
    seal_state = lambda: abe_encrypt(
        authority.wrap_keys_for(tree), tree, wound.encode(), cipher=scheme.cipher, rng=rng
    )
    sealed = seal_state()
    reader = authority.issue_private_key(users[-1])
    out["abe.seal_us"] = _per_call_us(seal_state)
    out["abe.open_us"] = _per_call_us(lambda: abe_decrypt(reader, sealed, scheme.cipher))
    rec.check(
        "replay:abe", abe_decrypt(reader, sealed, scheme.cipher) == wound.encode()
    )

    # the OPRF, split into client blind/unblind and key-manager sign
    manager = rig.cluster.key_manager
    public = manager.public_key
    fingerprints = [chunk.fingerprint for chunk in chunks[:OPRF_KEYS]]
    blinded, blind_s = _timed(
        lambda: [blindrsa.blind(public, fp, rng) for fp in fingerprints]
    )
    signatures, sign_s = _timed(
        lambda: manager.sign_batch("replay", [value for value, _ in blinded])
    )
    derived, unblind_s = _timed(
        lambda: [
            blindrsa.signature_to_key(
                blindrsa.unblind(public, state, signature), public.byte_size
            )
            for (_, state), signature in zip(blinded, signatures)
        ]
    )
    out["mle.keymanager.sign_us_per_key"] = sign_s / len(fingerprints) * 1e6
    out["crypto.blindrsa.client_us_per_key"] = (
        (blind_s + unblind_s) / len(fingerprints) * 1e6
    )
    rec.check("replay:oprf", len(set(derived)) == len(set(fingerprints)))

    # net: round trip of an empty call on the live cluster, and the codec
    # on one chunk_put_many message carrying the replay's packages
    node = rig.cluster.connect_storage(0)
    echoes = []
    for _ in range(ECHO_CALLS):
        _, seconds = _timed(lambda: node.chunk_exists_batch([]))
        echoes.append(seconds)
    out["net.echo_rtt_p50_ms"] = statistics.median(echoes) * 1e3
    payload = [(package.fingerprint, package.trimmed_package) for package in packages]
    wire: list[bytes] = []
    private = MetricsRegistry()
    registry = ServiceRegistry(metrics=private)
    store = DataStore(metrics=private)
    register_storage_service(registry, REEDServer(store))
    transport = LoopbackTransport(
        registry, on_message=lambda request, _response: wire.append(request), metrics=private
    )
    statuses = RemoteStorageService(transport.client()).chunk_put_many(payload)
    rec.check(
        "replay:codec",
        len(statuses) == len(payload)
        and not any(isinstance(status, Exception) for status in statuses),
    )
    decode_s = statistics.median(
        _timed(lambda: Message.decode(wire[0]))[1] for _ in range(5)
    )
    message = Message.decode(wire[0])
    encode_s = statistics.median(_timed(message.encode)[1] for _ in range(5))
    out["net.codec.encode_mibps"] = len(wire[0]) / MiB / encode_s
    out["net.codec.decode_mibps"] = len(wire[0]) / MiB / decode_s

    # storage.datastore: a fresh in-process store
    fresh = DataStore(metrics=MetricsRegistry())
    _, seconds = _timed(lambda: fresh.put_many(payload))
    out["storage.datastore.put_many_mibps"] = mib / seconds
    fresh.flush()
    wanted = [fingerprint for fingerprint, _ in payload]
    fetched, seconds = _timed(lambda: fresh.get_many(wanted))
    out["storage.datastore.get_many_mibps"] = mib / seconds
    rec.check("replay:datastore", fetched == trimmed)
    return out
