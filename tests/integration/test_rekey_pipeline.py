"""The batched rekeying pipeline, end to end.

Covers the contract of :mod:`repro.core.rekeypipe` over a real TCP
cluster: every rekey (single-file, batched and group) is bit-identical
to a serial oracle built here from the client's primitives, one file at
a time; a dead shard aborts the run deterministically without a
partially-rekeyed manifest, every member file still round-trips after
the rekey, attribution stays exact under concurrent traffic, and an
injected mid-rekey crash recovers on retry (key states commit last).
Key-regression winds of windows of ``MIN_PARALLEL_WIND`` files or more
run on the client's rekey worker processes; their output is
bit-identical to the oracle's.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time

import pytest

from repro.chunking.chunker import ChunkingSpec
from repro.core import envelopes
from repro.core.cluster import TcpCluster
from repro.core.groups import GroupManager
from repro.core.parallel import MIN_PARALLEL_WIND
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.stubs import STUB_NONCE_SIZE
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.obs import scope as obs_scope
from repro.obs.tracing import Tracer
from repro.storage.keystore import KeyStateRecord
from repro.util.errors import (
    AccessDeniedError,
    CorruptionError,
    IntegrityError,
    NotFoundError,
)
from repro.workloads.synthetic import unique_data

GROUP = "project"
CHUNKING = ChunkingSpec(avg_size=4096)


def _payload(index: int) -> bytes:
    return unique_data(2000 + 137 * index, seed=index)


def _member_ids(count: int) -> list[str]:
    return [f"member-{index}" for index in range(count)]


def _stored_state(cluster, file_ids: list[str]) -> dict:
    """Every byte of rekey-relevant server state, keyed for comparison."""
    state: dict = {}
    for file_id in file_ids:
        state[("keystate", file_id)] = cluster.keystore.get(file_id).encode()
        for server in cluster.servers:
            try:
                state[("stub", file_id)] = server.get_stub_file(file_id)
            except Exception:  # noqa: BLE001 - other shard owns the file
                pass
            try:
                state[("recipe", file_id)] = server.get_recipe(file_id)
            except Exception:  # noqa: BLE001
                pass
    return state


def _group_cluster(batch_size: int = 2, files: int = 5, shards: int = 4):
    """A seeded TCP cluster with one group of uploaded member files."""
    cluster = TcpCluster(
        num_data_servers=shards,
        chunking=CHUNKING,
        rng=HmacDrbg(b"rekey-pipeline-cluster"),
    )
    try:
        owner = cluster.new_client(
            "owner", rekey_workers=2, rekey_batch_size=batch_size
        )
        groups = GroupManager(owner)
        groups.create_group(GROUP, FilePolicy.for_users(["owner", "mallory"]))
        file_ids = _member_ids(files)
        for index, file_id in enumerate(file_ids):
            groups.upload(GROUP, file_id, _payload(index))
    except BaseException:
        # A leaked cluster leaves non-daemon server threads alive, which
        # hangs the whole test session at exit.
        cluster.stop()
        raise
    return cluster, owner, groups, file_ids


# -- the serial oracle ---------------------------------------------------------
#
# One file at a time, one RPC per step, built straight from the client's
# primitives: the stored bytes every pipelined rekey must reproduce.


def _serial_stub_reencrypt(client, record, old_state, new_state) -> int:
    """Re-encrypt one stub file under ``new_state``'s key and commit it
    with its bumped recipe; returns the stub bytes moved."""
    stub_file, recipe = client._fetch_file(record.file_id)
    old_file_key = client._stub_source_key(record, old_state, recipe.key_version)
    nonce = client.rng.random_bytes(STUB_NONCE_SIZE)
    (new_stub_file,) = client._rekey_pool.reencrypt(
        [(stub_file, old_file_key, new_state.derive_key(), nonce)]
    )
    client._commit_file(
        record.file_id,
        new_stub_file,
        dataclasses.replace(recipe, key_version=new_state.version),
    )
    return len(stub_file) + len(new_stub_file)


def _serial_rekey(
    client, file_id: str, policy: FilePolicy, mode, sealer=None
) -> None:
    """Per-file rekey: open, wind, seal, (active) stub, key state last.

    ``sealer`` is the oracle run's CP-ABE header (``client._abe_sealer``,
    made before the run's first file, as ``rekey_many`` makes it); the
    file's record is sealed as its next item.  Without one, the file is
    a run of one, as a single-file ``rekey`` is.
    """
    record = client.keystore.get(file_id)
    old_state = client._open_key_state(record)
    (new_state,) = client._wind([old_state])
    new_record = client._seal_key_state(file_id, new_state, policy, sealer)
    if mode is RevocationMode.ACTIVE:
        _serial_stub_reencrypt(client, record, old_state, new_state)
    client.keystore.put(new_record)


def _serial_group_revoke(groups, revoked: set[str], mode) -> dict:
    """Group revocation, member by member: one ABE seal for the group
    record, then per member a fetch, an open, (active) a wind and a stub
    re-encryption, and a group-envelope seal."""
    client = groups.client
    with obs_scope.attribution() as scope:
        record = groups._group_record(GROUP)
        policy = FilePolicy.parse(record.policy_text).without_users(revoked)
        old_group = client._open_key_state(record)
        files = groups._read_manifest_at(GROUP, record, old_group)
        new_group = client.keyreg_owner.wind(old_group)
        group_key = new_group.derive_key()
        client.keystore.put(
            client._seal_key_state(client.group_record_id(GROUP), new_group, policy)
        )
        stub_bytes = 0
        for file_id in files:
            file_record = client.keystore.get(file_id)
            state = client._open_key_state(file_record)
            if mode is RevocationMode.ACTIVE:
                old_state = state
                (state,) = client._wind([old_state])
                stub_bytes += _serial_stub_reencrypt(
                    client, file_record, old_state, state
                )
            client.keystore.put(
                KeyStateRecord(
                    file_id=file_id,
                    policy_text=f"@group:{GROUP}",
                    key_version=state.version,
                    encrypted_state=envelopes.seal_group(
                        GROUP,
                        new_group.version,
                        group_key,
                        state.encode(),
                        cipher=client.scheme.cipher,
                        rng=client.rng,
                    ),
                    owner_public_key=file_record.owner_public_key,
                )
            )
        groups._write_manifest(GROUP, group_key, files)
    return {
        "files": len(files),
        "stub_bytes": stub_bytes,
        "keystore_round_trips": scope.get_int("keystore_round_trips"),
    }


def test_group_active_rekey_pipelined_bit_identical_to_serial():
    """Same seeds, same group, serial oracle vs pipelined ACTIVE rekey:
    every keystore record, stub file, and recipe must match byte for
    byte."""
    states = {}
    results = {}
    for pipelined in (False, True):
        cluster, owner, groups, file_ids = _group_cluster()
        with cluster:
            if pipelined:
                results[pipelined] = groups.revoke_users(
                    GROUP, {"mallory"}, RevocationMode.ACTIVE
                )
            else:
                results[pipelined] = _serial_group_revoke(
                    groups, {"mallory"}, RevocationMode.ACTIVE
                )
            states[pipelined] = _stored_state(cluster, file_ids)
            # The group record and manifest live outside per-file state.
            states[pipelined]["group-record"] = cluster.keystore.get(
                owner.group_record_id(GROUP)
            ).encode()
            for server in cluster.servers:
                try:
                    states[pipelined]["manifest"] = server.get_recipe(
                        groups._manifest_id(GROUP)
                    )
                except Exception:  # noqa: BLE001
                    pass
            owner.close()
    assert states[True] == states[False]

    serial, piped = results[False], results[True]
    assert piped.files_rewrapped == serial["files"] == 5
    assert piped.abe_operations == 1
    assert piped.stub_bytes_reencrypted == serial["stub_bytes"] > 0
    # 5 files in windows of 2 -> 3 shipped batches, and strictly fewer
    # keystore round trips than ~2 per file on the serial path.
    assert piped.batches == 3
    assert piped.workers == 2
    assert 0 < piped.keystore_round_trips < serial["keystore_round_trips"]


def test_post_rekey_downloads_round_trip():
    """After a pipelined ACTIVE group rekey every member file must still
    download bit-exact, at the bumped key version."""
    cluster, owner, groups, file_ids = _group_cluster()
    with cluster:
        result = groups.revoke_users(GROUP, {"mallory"}, RevocationMode.ACTIVE)
        assert result.files_rewrapped == len(file_ids)
        for index, file_id in enumerate(file_ids):
            downloaded = owner.download(file_id)
            assert downloaded.data == _payload(index)
        owner.close()


def test_rekey_many_bit_identical_to_serial_rekey():
    """``rekey_many`` over ABE-sealed files, and ``rekey`` per file,
    match the serial oracle byte for byte: one header for the run, and
    one per file for per-file rekeys."""
    states = {}
    for path in ("oracle", "per_file_oracle", "rekey", "rekey_many"):
        system = build_system(
            num_data_servers=2,
            chunking=CHUNKING,
            rng=HmacDrbg(b"rekey-many-system"),
        )
        client = system.new_client("alice")
        client.rekey_batch_size = 2
        file_ids = _member_ids(5)
        for index, file_id in enumerate(file_ids):
            client.upload(file_id, _payload(index))
        new_policy = FilePolicy.for_users(["alice", "bob"])
        if path == "rekey_many":
            result = client.rekey_many(
                file_ids, new_policy, RevocationMode.ACTIVE
            )
            assert result.files == 5
            assert result.batches == 3
            assert [r.file_id for r in result.results] == file_ids
            assert all(
                r.new_key_version == r.old_key_version + 1
                for r in result.results
            )
        elif path == "rekey":
            for file_id in file_ids:
                client.rekey(file_id, new_policy, RevocationMode.ACTIVE)
        else:
            sealer = None
            if path == "oracle":
                sealer = client._abe_sealer(new_policy)
            for file_id in file_ids:
                _serial_rekey(
                    client, file_id, new_policy, RevocationMode.ACTIVE, sealer
                )
        states[path] = _stored_state(system, file_ids)
        client.close()
    assert states["rekey_many"] == states["oracle"]
    assert states["rekey"] == states["per_file_oracle"]


def test_rekey_many_bytes_do_not_depend_on_window_size_or_depth():
    """The run's one CP-ABE header is drawn before its first file, so
    windows of 1, 5 and 64 files at depth 1 and 2 store the same bytes,
    LAZY then ACTIVE."""
    states = {}
    for batch_size in (1, 5, 64):
        for depth in (1, 2):
            system = build_system(
                num_data_servers=2,
                chunking=CHUNKING,
                rng=HmacDrbg(b"window-size-system"),
            )
            client = system.new_client("alice")
            client.rekey_batch_size = batch_size
            client.pipeline_depth = depth
            file_ids = _member_ids(12)
            for index, file_id in enumerate(file_ids):
                client.upload(file_id, _payload(index))
            client.rekey_many(
                file_ids, FilePolicy.for_users(["alice", "bob"]), RevocationMode.LAZY
            )
            client.rekey_many(
                file_ids, FilePolicy.for_users(["alice"]), RevocationMode.ACTIVE
            )
            states[batch_size, depth] = _stored_state(system, file_ids)
            client.close()
    reference = states[64, 1]
    assert all(state == reference for state in states.values())


def _abe_headers(client, op: str) -> float:
    return client.metrics.value("client_abe_headers_total", op=op)


def test_rekey_run_seals_one_header_and_opens_each_once():
    """A 32-file ``rekey_many`` after another seals one header and opens
    one (the previous run's, shared by all 32 records); a download opens
    one."""
    system = build_system(
        num_data_servers=2, chunking=CHUNKING, rng=HmacDrbg(b"abe-headers")
    )
    client = system.new_client("alice")
    file_ids = _member_ids(32)
    for index, file_id in enumerate(file_ids):
        client.upload(file_id, _payload(index))
    policy = FilePolicy.for_users(["alice", "bob"])
    opens = _abe_headers(client, "open")
    client.rekey_many(file_ids, policy)
    # The uploads sealed one header each.
    assert _abe_headers(client, "open") - opens == 32
    seals, opens = _abe_headers(client, "seal"), _abe_headers(client, "open")
    client.rekey_many(file_ids, policy)
    assert _abe_headers(client, "seal") - seals == 1
    assert _abe_headers(client, "open") - opens == 1
    opens = _abe_headers(client, "open")
    assert client.download(file_ids[7]).data == _payload(7)
    assert _abe_headers(client, "open") - opens == 1
    client.close()


def test_user_dropped_by_a_run_is_denied_every_record_it_wrote():
    """Records of one run share its header; a user the run dropped opens
    none of them, although they opened every record of the run before."""
    system = build_system(
        num_data_servers=2, chunking=CHUNKING, rng=HmacDrbg(b"dropped-user")
    )
    owner = system.new_client("alice")
    bob = system.new_client("bob", owner=False)
    file_ids = _member_ids(6)
    for index, file_id in enumerate(file_ids):
        owner.upload(file_id, _payload(index))
    owner.rekey_many(file_ids, FilePolicy.for_users(["alice", "bob"]))
    for index, file_id in enumerate(file_ids):
        assert bob.download(file_id).data == _payload(index)
    owner.rekey_many(file_ids, FilePolicy.for_users(["alice"]))
    headers = set()
    for file_id in file_ids:
        record = system.keystore.get(file_id)
        _tag, ciphertext = envelopes.decode_envelope(record.encrypted_state)
        headers.add(ciphertext.header)
        with pytest.raises(AccessDeniedError):
            bob.download(file_id)
    assert len(headers) == 1
    owner.close()


def test_single_file_rekeys_report_the_round_trips_they_make():
    """A single-file rekey is one pipeline window: on a 4-node TCP
    cluster LAZY costs one keystore get and one put, ACTIVE adds one
    ``file_get_many`` and one ``file_commit``.  ``revoke_users`` reads
    the record that names its policy inside the rekey's scope and hands
    it to the pipeline, so it makes and reports the same two keystore
    round trips.  Each call records exactly one root span, ``rekey``."""
    cluster = TcpCluster(
        num_data_servers=4, chunking=CHUNKING, rng=HmacDrbg(b"single-file-rtts")
    )
    with cluster:
        client = cluster.new_client("alice")
        # A tracer of its own: the default one's ring is shared and full.
        client.tracer = Tracer(client.metrics)
        calls = [
            (client.rekey, FilePolicy.for_users(["alice"]), RevocationMode.LAZY),
            (client.rekey, FilePolicy.for_users(["alice"]), RevocationMode.ACTIVE),
            (client.revoke_users, {"bob"}, RevocationMode.LAZY),
            (client.revoke_users, {"bob"}, RevocationMode.ACTIVE),
        ]
        for index, _call in enumerate(calls):
            client.upload(
                f"doc-{index}",
                _payload(index),
                policy=FilePolicy.for_users(["alice", "bob"]),
            )
        counts = []
        for index, (call, argument, mode) in enumerate(calls):
            traces = len(client.tracer.recent_traces())
            result = call(f"doc-{index}", argument, mode)
            counts.append((result.keystore_round_trips, result.store_round_trips))
            assert result.new_key_version == result.old_key_version + 1
            assert len(client.tracer.recent_traces()) == traces + 1
            root = client.tracer.last_trace()
            assert root.name == "rekey"
            assert root.trace_id == result.trace_id
        assert counts == [(2, 0), (2, 2), (2, 0), (2, 2)]
        client.close()


def test_shard_down_aborts_with_no_partial_rekey():
    """Killing the shard that owns the first window's files makes the
    pipelined rekey abort deterministically: no member key state ships,
    and the manifest recovers under the old group key."""
    cluster, owner, groups, file_ids = _group_cluster(batch_size=2, files=6)
    with cluster:
        before = {
            file_id: cluster.keystore.get(file_id).encode()
            for file_id in file_ids
        }
        # Shard that serves the first member file: its recipe/stub fetch
        # is in the very first window, so the abort fires before any
        # window ships key states.
        node = owner.storage.shard_for_file(file_ids[0])
        dead = int(node.rsplit("-", 1)[1])
        cluster.kill_data_server(dead)
        with pytest.raises(Exception):  # noqa: B017 - dead TCP transport
            groups.revoke_users(GROUP, {"mallory"}, RevocationMode.ACTIVE)
        # Key states commit last: the abort left every member record
        # byte-identical, so no file is partially rekeyed.
        after = {
            file_id: cluster.keystore.get(file_id).encode()
            for file_id in file_ids
        }
        assert after == before
        # The group record advanced (its ABE op commits first), but the
        # manifest — still MAC'd under the old group key — recovers via
        # key regression rather than failing authentication.
        assert sorted(groups.members(GROUP)) == sorted(file_ids)
        owner.close()


def test_interrupted_rekey_recovers_on_retry():
    """Crash between recipe commit and key-state commit, then retry.

    The regression this pins: key states commit *last*, so the injected
    failure leaves the old record intact, the owner can still read the
    file (wind-forward recovery), and a retried rekey converges to the
    exact state a clean rekey would have produced.
    """
    system = build_system(
        num_data_servers=2, chunking=CHUNKING, rng=HmacDrbg(b"rekey-crash")
    )
    client = system.new_client("alice")
    client.upload("doc", _payload(7))
    record_before = system.keystore.get("doc").encode()
    new_policy = FilePolicy.for_users(["alice"])

    real_put = system.keystore.put
    def failing_put(record):
        raise RuntimeError("injected keystore crash")
    system.keystore.put = failing_put
    try:
        with pytest.raises(RuntimeError, match="injected keystore crash"):
            client.rekey("doc", new_policy, RevocationMode.ACTIVE)
    finally:
        system.keystore.put = real_put

    # Stub + recipe shipped, key state did not: the old record is intact
    # and the owner still reads the file via wind-forward recovery.
    assert system.keystore.get("doc").encode() == record_before
    assert client.download("doc").data == _payload(7)

    # A non-owner cannot bridge the gap — the key state is authoritative.
    reader = system.new_client("alice-reader", owner=False)
    with pytest.raises(Exception):  # noqa: B017 - CorruptionError/Access
        reader.download("doc")

    # The retry converges: deterministic wind re-derives the same new
    # key, and the already-re-encrypted stub file decrypts under it.
    result = client.rekey("doc", new_policy, RevocationMode.ACTIVE)
    assert result.new_key_version == result.old_key_version + 1
    downloaded = client.download("doc")
    assert downloaded.data == _payload(7)
    assert downloaded.key_version == result.new_key_version
    client.close()


def test_pipeline_crash_after_file_commit_recovers_on_retry():
    """The pipeline's ``file_commit`` lands, then the run dies before any
    key state ships: the owner still reads every file (its recipe is one
    version ahead of its key state), and the retry converges."""
    system = build_system(
        num_data_servers=2, chunking=CHUNKING, rng=HmacDrbg(b"pipeline-crash")
    )
    client = system.new_client("alice")
    client.rekey_batch_size = 2
    file_ids = _member_ids(5)
    for index, file_id in enumerate(file_ids):
        client.upload(file_id, _payload(index))
    records_before = {f: system.keystore.get(f).encode() for f in file_ids}
    policy = FilePolicy.for_users(["alice"])

    real_commit = client.storage.file_commit

    def commit_then_crash(items):
        real_commit(items)
        raise RuntimeError("injected commit crash")

    client.storage.file_commit = commit_then_crash
    try:
        with pytest.raises(RuntimeError, match="injected commit crash"):
            client.rekey_many(file_ids, policy, RevocationMode.ACTIVE)
    finally:
        client.storage.file_commit = real_commit

    assert {f: system.keystore.get(f).encode() for f in file_ids} == records_before
    for index, file_id in enumerate(file_ids):
        assert client.download(file_id).data == _payload(index)

    result = client.rekey_many(file_ids, policy, RevocationMode.ACTIVE)
    assert result.files == len(file_ids)
    for index, (file_id, rekeyed) in enumerate(zip(file_ids, result.results)):
        assert rekeyed.new_key_version == rekeyed.old_key_version + 1
        downloaded = client.download(file_id)
        assert downloaded.data == _payload(index)
        assert downloaded.key_version == rekeyed.new_key_version
    client.close()


def test_concurrent_rekey_and_upload_attribution_exact():
    """A rekey pipeline and an upload running concurrently must not
    bleed round-trip counters into each other's results."""
    cluster = TcpCluster(
        num_data_servers=2,
        chunking=CHUNKING,
        rng=HmacDrbg(b"rekey-attribution"),
    )
    with cluster:
        alice = cluster.new_client("alice", rekey_batch_size=2)
        file_ids = _member_ids(4)
        for index, file_id in enumerate(file_ids):
            alice.upload(file_id, _payload(index))
        new_policy = FilePolicy.for_users(["alice"])

        # Reference run, nothing else on the wire.
        solo = alice.rekey_many(file_ids, new_policy, RevocationMode.ACTIVE)

        bob = cluster.new_client("bob")
        bob.upload("noise", _payload(9))
        stop = threading.Event()
        def churn() -> None:
            # Downloads draw no client randomness, so the churn thread
            # never races the cluster's shared deterministic DRBG.
            while not stop.is_set():
                bob.download("noise")
        churner = threading.Thread(target=churn)
        churner.start()
        try:
            busy = alice.rekey_many(
                file_ids, new_policy, RevocationMode.ACTIVE
            )
        finally:
            stop.set()
            churner.join()
        # ACTIVE windows cost the same batch RPCs regardless of
        # concurrent traffic; exact equality means attribution is scoped
        # to the operation, not diffed from shared lifetime counters.
        assert busy.keystore_round_trips == solo.keystore_round_trips
        assert busy.store_round_trips == solo.store_round_trips
        assert busy.batches == solo.batches == 2
        assert busy.files == solo.files == 4
        alice.close()
        bob.close()


def test_remote_batch_rpcs_carry_per_item_errors():
    """A missing file travels back as a per-item exception inside the
    batch reply — one bad id does not poison the window."""
    cluster = TcpCluster(
        num_data_servers=2,
        chunking=CHUNKING,
        rng=HmacDrbg(b"rekey-wire-errors"),
    )
    with cluster:
        client = cluster.new_client("carol")
        client.upload("present", _payload(1))
        records = client.keystore.get_many(["present", "absent"])
        assert records[0].file_id == "present"
        assert isinstance(records[1], Exception)
        files = client.storage.file_get_many(["present", "absent"])
        stub_file, recipe = files[0]
        assert isinstance(stub_file, bytes) and isinstance(recipe, bytes)
        assert isinstance(files[1], NotFoundError)
        recipes = client.storage.recipe_get_many(["present", "absent"])
        assert isinstance(recipes[0], bytes)
        assert isinstance(recipes[1], Exception)
        acks = client.storage.file_commit([("extra", b"x" * 64, b"recipe")])
        assert acks == [None]
        assert client.storage.file_get_many(["extra"]) == [(b"x" * 64, b"recipe")]
        deletes = client.storage.meta_delete_many(["present", "absent"])
        assert not isinstance(deletes[0], Exception)
        client.close()


def test_interrupted_group_rekey_manifest_recovers():
    """Abort a group rekey after the group record commits but before the
    manifest rewrite: reads recover by probing older group keys, and the
    next rekey heals the manifest."""
    cluster, owner, groups, file_ids = _group_cluster(files=3)
    with cluster:
        # Fail the manifest rewrite (the last write of the rekey).
        original = groups._write_manifest
        def failing_write(group_id, group_key, files):
            raise RuntimeError("injected manifest crash")
        groups._write_manifest = failing_write
        try:
            with pytest.raises(RuntimeError, match="injected manifest crash"):
                groups.revoke_users(GROUP, {"mallory"}, RevocationMode.LAZY)
        finally:
            groups._write_manifest = original

        # Group key advanced, manifest is one version behind — the
        # recovering read still lists every member.
        assert sorted(groups.members(GROUP)) == sorted(file_ids)
        # And the next rekey converges, rewriting the manifest under the
        # newest key so the plain read works again afterwards.
        result = groups.revoke_users(GROUP, {"mallory"}, RevocationMode.LAZY)
        assert result.files_rewrapped == len(file_ids)
        state, key = groups.group_key(GROUP)
        assert sorted(groups._read_manifest(GROUP, key)) == sorted(file_ids)
        assert state.version == result.new_group_version
        owner.close()


# -- parallel key-regression winds -------------------------------------------

#: (files, rekey_workers): windows of 64 around the wind threshold and the
#: batch size, plus a single-worker client.
WIND_CASES = [
    (1, 2),
    (MIN_PARALLEL_WIND - 1, 2),
    (MIN_PARALLEL_WIND, 2),
    (63, 2),
    (64, 2),
    (65, 2),
    (65, 1),
]


def _wind_cluster(seed: bytes, files: int, workers: int = 2):
    """A TCP cluster whose owner uploaded ``files`` small files."""
    cluster = TcpCluster(num_data_servers=2, chunking=CHUNKING, rng=HmacDrbg(seed))
    try:
        client = cluster.new_client(
            "alice", rekey_workers=workers, rekey_batch_size=64
        )
        file_ids = _member_ids(files)
        for index, file_id in enumerate(file_ids):
            client.upload(file_id, _payload(index))
    except BaseException:
        cluster.stop()
        raise
    return cluster, client, file_ids


@pytest.mark.parametrize("files, workers", WIND_CASES)
def test_parallel_winds_bit_identical_to_per_file_rekey(files, workers):
    """``rekey_many`` in windows of 64 — winds on the rekey workers where a
    window reaches the threshold — against the per-file serial oracle,
    LAZY then ACTIVE: every key state, stub file and recipe byte for
    byte."""
    rounds = (
        (RevocationMode.LAZY, FilePolicy.for_users(["alice", "bob"])),
        (RevocationMode.ACTIVE, FilePolicy.for_users(["alice"])),
    )
    states = {}
    for batched in (False, True):
        cluster, client, file_ids = _wind_cluster(b"parallel-winds", files, workers)
        with cluster:
            wound_before = client.metrics.value(
                "client_rekey_wind_batches_total", mode="parallel"
            )
            for mode, policy in rounds:
                if batched:
                    result = client.rekey_many(file_ids, policy, mode)
                    assert result.files == files
                    assert result.workers == workers
                else:
                    sealer = client._abe_sealer(policy)
                    for file_id in file_ids:
                        _serial_rekey(client, file_id, policy, mode, sealer)
                states[batched, mode] = _stored_state(cluster, file_ids)
            pool = client._rekey_pool
            # Stub files this small never leave the process, so every
            # parallel batch is a wind: one per window at the threshold.
            windows = [len(file_ids[i : i + 64]) for i in range(0, files, 64)]
            parallel = (
                2 * sum(size >= MIN_PARALLEL_WIND for size in windows)
                if batched and workers > 1
                else 0
            )
            assert pool.parallel_batches == parallel
            assert (
                client.metrics.value(
                    "client_rekey_wind_batches_total", mode="parallel"
                )
                - wound_before
                == parallel
            )
            if not parallel:
                assert pool._executor is None  # no worker process started
            client.close()
    for mode, _policy in rounds:
        assert states[True, mode] == states[False, mode]


def test_group_active_parallel_winds_bit_identical_to_serial():
    """A group with a window above the wind threshold: the pipelined
    ACTIVE rekey winds member states on the workers, the serial oracle
    one by one, and both store the same bytes."""
    files = MIN_PARALLEL_WIND + 1
    states = {}
    for pipelined in (False, True):
        cluster, owner, groups, file_ids = _group_cluster(batch_size=64, files=files)
        with cluster:
            if pipelined:
                result = groups.revoke_users(
                    GROUP, {"mallory"}, RevocationMode.ACTIVE
                )
                assert result.files_rewrapped == files
            else:
                serial = _serial_group_revoke(
                    groups, {"mallory"}, RevocationMode.ACTIVE
                )
                assert serial["files"] == files
            states[pipelined] = _stored_state(cluster, file_ids)
            states[pipelined]["group-record"] = cluster.keystore.get(
                owner.group_record_id(GROUP)
            ).encode()
            assert owner._rekey_pool.parallel_batches == (1 if pipelined else 0)
            owner.close()
    assert states[True] == states[False]


def test_corrupt_key_state_mid_window_raises_its_error_and_ships_nothing():
    """An unopenable record in the middle of a window aborts the window
    with that file's error before any wind or ship; an earlier file's
    planning error (a corrupt recipe) still comes first in file order."""
    cluster, client, file_ids = _wind_cluster(b"corrupt-mid-window", 12)
    with cluster:
        record = cluster.keystore.get(file_ids[6])
        tampered = record.encrypted_state[:-1] + bytes(
            [record.encrypted_state[-1] ^ 1]
        )
        cluster.keystore.put(dataclasses.replace(record, encrypted_state=tampered))
        before = _stored_state(cluster, file_ids)
        policy = FilePolicy.for_users(["alice"])
        for mode in (RevocationMode.LAZY, RevocationMode.ACTIVE):
            with pytest.raises(IntegrityError):
                client.rekey_many(file_ids, policy, mode)
            assert _stored_state(cluster, file_ids) == before

        [(stub_file, _recipe)] = client.storage.file_get_many([file_ids[3]])
        client.storage.file_commit([(file_ids[3], stub_file, b"not a recipe")])
        before = _stored_state(cluster, file_ids)
        with pytest.raises(CorruptionError):
            client.rekey_many(file_ids, policy, RevocationMode.ACTIVE)
        assert _stored_state(cluster, file_ids) == before
        client.close()


def test_failed_pipelined_rekey_leaves_the_depth_1_state():
    """A window that fails to open leaves the state depth 1 leaves:
    every window before it ships, even one still queued behind a slow
    ``put_many``, and none from the failing window on does."""
    states = {}
    for depth in (1, 2):
        cluster, client, file_ids = _wind_cluster(b"partial-failure", 12)
        with cluster:
            client.rekey_batch_size = 4
            client.pipeline_depth = depth
            record = cluster.keystore.get(file_ids[9])
            tampered = record.encrypted_state[:-1] + bytes(
                [record.encrypted_state[-1] ^ 1]
            )
            cluster.keystore.put(
                dataclasses.replace(record, encrypted_state=tampered)
            )
            before = _stored_state(cluster, file_ids)
            put_many = client.keystore.put_many

            def slow_put_many(records):
                time.sleep(0.3)
                return put_many(records)

            client.keystore.put_many = slow_put_many
            with pytest.raises(IntegrityError):
                client.rekey_many(
                    file_ids, FilePolicy.for_users(["alice"]), RevocationMode.LAZY
                )
            states[depth] = _stored_state(cluster, file_ids)
            rekeyed = [
                index
                for index, file_id in enumerate(file_ids)
                if states[depth]["keystate", file_id] != before["keystate", file_id]
            ]
            assert rekeyed == list(range(8)), depth
            client.close()
    assert states[2] == states[1]


def test_single_file_and_small_window_start_no_worker():
    """A single-file ``rekey`` and a window below the wind threshold wind
    on the caller thread: no rekey worker process is ever started."""
    cluster, client, file_ids = _wind_cluster(
        b"no-workers", MIN_PARALLEL_WIND - 1
    )
    with cluster:
        # The uploads have started the key manager's signers by now.
        before = {child.pid for child in multiprocessing.active_children()}
        serial_before = client.metrics.value(
            "client_rekey_wind_batches_total", mode="serial"
        )
        policy = FilePolicy.for_users(["alice"])
        for mode in (RevocationMode.LAZY, RevocationMode.ACTIVE):
            client.rekey(file_ids[0], policy, mode)
            client.rekey_many(file_ids, policy, mode)
        assert client._rekey_pool._executor is None
        assert {c.pid for c in multiprocessing.active_children()} == before
        assert (
            client.metrics.value("client_rekey_wind_batches_total", mode="serial")
            - serial_before
            == 4
        )
        client.close()
