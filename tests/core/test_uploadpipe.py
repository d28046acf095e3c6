"""The pipelined upload: same bytes as the serial path, clean aborts."""

import threading
import time

import pytest

from repro.chunking.chunker import ChunkingSpec, chunk_stream
from repro.core.system import build_system
from repro.crypto import blindrsa
from repro.crypto.drbg import HmacDrbg
from repro.sim.clock import SimClock
from repro.util.errors import KeyManagerError, NotFoundError, RateLimitExceeded

KEY_WINDOW = 16
SMALL_CHUNKS = ChunkingSpec(avg_size=256, min_size=64, max_size=1024)


class _GetKeysOnly:
    """A key client from before ``derive_keys``: the serial reference.
    The wrapped client still reports its counters to the scope."""

    def __init__(self, inner):
        self.get_keys = inner.get_keys


def _lagging(inner):
    """The same key client, each derive call starting late: the chunker
    is always windows ahead of the keys."""
    derive = inner.derive_keys

    def late(fingerprints):
        time.sleep(0.02)
        return derive(fingerprints)

    inner.derive_keys = late
    return inner


def _upload(
    data, feed, chunking=None, batch_bytes=None, depth=2, key_client=None, cache_bytes=None
):
    """Upload ``data`` (shaped by ``feed``) on a fresh, identically seeded
    system; returns everything the upload left behind."""
    system = build_system(
        num_data_servers=2,
        chunking=chunking,
        key_batch_size=KEY_WINDOW,
        rng=HmacDrbg(b"uploadpipe"),
    )
    client = system.new_client("alice", cache_bytes=cache_bytes)
    client.pipeline_depth = depth
    if batch_bytes is not None:
        client.upload_batch_bytes = batch_bytes
    if key_client is not None:
        client.key_client = key_client(client.key_client)
    keys = []
    derive = getattr(client.key_client, "derive_keys", None) or client.key_client.get_keys

    def spy(fingerprints):
        got = derive(fingerprints)
        keys.extend(zip(fingerprints, got))
        return got

    if hasattr(client.key_client, "derive_keys"):
        client.key_client.derive_keys = spy
    else:
        client.key_client.get_keys = spy
    result = client.upload("file", feed(data))
    client.close()
    system.close()
    containers = {}
    for index, server in enumerate(system.servers):
        backend = server.store.backend
        for name in backend.list("container/"):
            containers[index, name] = backend.get(name)
    assert client.download("file").data == data
    return {
        "result": result,
        "mle_keys": dict(keys),
        "recipe": system.storage.recipe_get("file"),
        "stub_file": system.storage.stub_get("file"),
        "containers": containers,
    }


def _same_bytes(a, b):
    for part in ("mle_keys", "recipe", "stub_file", "containers"):
        assert a[part] == b[part], part
    for field in (
        "chunk_count",
        "new_chunks",
        "upload_batches",
        "key_oprf_evaluations",
        "key_round_trips",
        "store_round_trips",
    ):
        assert getattr(a["result"], field) == getattr(b["result"], field), field


def _blocks(size):
    return lambda data: (data[i : i + size] for i in range(0, len(data), size))


class TestBitIdentical:
    """Pipelined, depth-1 and pre-``derive_keys`` uploads of one file
    leave the same keys, recipe, stub file and container bytes."""

    def test_multi_window_file_across_feeds_and_paths(self):
        # 2.5 MiB at the default 8 KiB chunks: ~300 chunks, 3 store
        # batches, 2+ key windows per batch; as bytes it spans 3 feed
        # blocks of the chunker.
        data = HmacDrbg(b"big").random_bytes(5 << 19)
        shape = dict(batch_bytes=1 << 20)
        reference = _upload(data, bytes, key_client=_GetKeysOnly, depth=1, **shape)
        assert reference["result"].upload_batches == 3
        assert reference["containers"]
        pipelined = _upload(data, bytes, **shape)
        assert pipelined["result"].key_round_trips >= 6
        _same_bytes(pipelined, reference)
        _same_bytes(_upload(data, bytes, depth=1, **shape), reference)
        _same_bytes(_upload(data, _blocks(4 << 20), **shape), reference)
        _same_bytes(_upload(data, _blocks(300_000), **shape), reference)

    def test_one_byte_blocks(self):
        data = HmacDrbg(b"small").random_bytes(12_000)
        shape = dict(chunking=SMALL_CHUNKS, batch_bytes=4096)
        reference = _upload(data, bytes, key_client=_GetKeysOnly, depth=1, **shape)
        assert reference["result"].upload_batches >= 3
        assert reference["result"].chunk_count > 2 * KEY_WINDOW
        _same_bytes(_upload(data, _blocks(1), **shape), reference)
        _same_bytes(_upload(data, _blocks(1), depth=1, **shape), reference)

    def test_duplicate_chunks_cost_one_evaluation_per_batch(self):
        """Windows count unique, uncached fingerprints — like derive_keys."""
        block = HmacDrbg(b"dup").random_bytes(4096)
        data = block * 40
        fixed = ChunkingSpec(method="fixed", avg_size=4096)
        shape = dict(chunking=fixed, batch_bytes=10 * 4096)
        pipelined = _upload(data, bytes, **shape)
        assert pipelined["result"].chunk_count == 40
        assert pipelined["result"].key_oprf_evaluations == 4  # one per batch
        _same_bytes(pipelined, _upload(data, bytes, depth=1, **shape))

    @pytest.mark.parametrize("windows", [1, 2, 3])
    def test_file_ending_exactly_on_a_key_window(self, windows):
        """The last chunk closes a key window but not the store batch:
        the batch must ship all the same."""
        fixed = ChunkingSpec(method="fixed", avg_size=4096)
        data = HmacDrbg(b"edge").random_bytes(windows * KEY_WINDOW * 4096)
        pipelined = _upload(data, bytes, chunking=fixed)
        result = pipelined["result"]
        assert result.chunk_count == result.new_chunks == windows * KEY_WINDOW
        assert (result.key_round_trips, result.upload_batches) == (windows, 1)
        _same_bytes(pipelined, _upload(data, bytes, chunking=fixed, depth=1))

    def test_chunks_repeated_across_store_batches_with_a_key_cache(self):
        """A fingerprint an earlier window is still deriving is a cache
        hit by the time its repeat is derived, whatever the stage
        timing: windows (and round trips) are those of the serial path."""
        fixed = ChunkingSpec(method="fixed", avg_size=4096)
        repeated = HmacDrbg(b"again").random_bytes(12 * 4096)
        data = repeated + b"".join(
            HmacDrbg(b"tail%d" % i).random_bytes(8 * 4096) + repeated for i in range(3)
        )
        shape = dict(chunking=fixed, batch_bytes=20 * 4096, cache_bytes=1 << 20)
        reference = _upload(data, bytes, key_client=_GetKeysOnly, depth=1, **shape)
        assert reference["result"].upload_batches == 4
        assert reference["result"].key_cache_hits == 3 * 12
        pipelined = _upload(data, bytes, key_client=_lagging, **shape)
        assert pipelined["result"].key_cache_hits == 3 * 12
        _same_bytes(pipelined, reference)
        _same_bytes(_upload(data, bytes, depth=1, **shape), reference)

    def test_single_window_file_runs_inline(self):
        data = HmacDrbg(b"inline").random_bytes(8 * 1024)
        started = []
        original = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            original(thread)

        threading.Thread.start = recording_start
        try:
            done = _upload(data, bytes)
        finally:
            threading.Thread.start = original
        assert done["result"].upload_batches == 1
        assert done["result"].key_round_trips == 1
        # No pipeline stage thread; the in-process key manager's signer
        # pool starts threads of its own, which are not the upload's.
        assert not [name for name in started if name.startswith("reed-upload")]


def _upload_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("reed-upload")]


class TestAbort:
    """A key-manager failure in window k fails the upload with that
    error and leaves nothing half-written or running."""

    def _system(self, **kwargs):
        system = build_system(
            num_data_servers=2,
            chunking=SMALL_CHUNKS,
            key_batch_size=KEY_WINDOW,
            rng=HmacDrbg(b"abort"),
            **kwargs,
        )
        client = system.new_client("alice")
        client.upload_batch_bytes = 4096
        return system, client

    def _assert_nothing_written(self, system, client):
        with pytest.raises(NotFoundError):
            system.storage.recipe_get("file")
        with pytest.raises(NotFoundError):
            system.storage.stub_get("file")
        with pytest.raises(NotFoundError):
            system.keystore.get("file")
        assert _upload_threads() == []
        client.close()

    def test_rate_limit_exhausted_mid_file(self):
        # The bucket holds 40 tokens and (frozen clock) never refills:
        # window 3 of 16 fingerprints is the first the key manager refuses.
        system, client = self._system(rate_limit=40)
        system.key_manager._clock = SimClock()
        client.key_client._max_retries = 0
        data = HmacDrbg(b"limited").random_bytes(20_000)
        with pytest.raises(RateLimitExceeded):
            client.upload("file", data)
        assert client.key_client.oprf_evaluations == 2 * KEY_WINDOW
        self._assert_nothing_written(system, client)

    def test_bad_signature_in_window_k(self):
        system, client = self._system()
        channel = client.key_client._channel
        real = channel.derive_batch
        calls = []

        def corrupting(client_id, blinded):
            calls.append(len(blinded))
            signatures = real(client_id, blinded)
            if len(calls) == 3:
                signatures[5] ^= 1
            return signatures

        channel.derive_batch = corrupting
        data = HmacDrbg(b"forged").random_bytes(20_000)
        with pytest.raises(KeyManagerError, match="invalid blind signature"):
            client.upload("file", data)
        # Nothing behind the failing window went to the key manager.
        assert len(calls) == 3
        self._assert_nothing_written(system, client)

    def test_first_error_wins(self):
        """Window 2 and every later window fail; the upload reports window 2."""
        system, client = self._system()
        channel = client.key_client._channel
        calls = []

        def failing(client_id, blinded):
            calls.append(len(blinded))
            if len(calls) >= 2:
                raise KeyManagerError(f"window {len(calls)} refused")
            return system.key_manager.derive_batch(client_id, blinded)

        channel.derive_batch = failing
        data = HmacDrbg(b"first").random_bytes(20_000)
        with pytest.raises(KeyManagerError, match="window 2 refused"):
            client.upload("file", data)
        assert len(calls) == 2
        self._assert_nothing_written(system, client)


class TestConcurrentAttribution:
    def test_two_uploads_on_one_client_count_only_their_own_work(self):
        system = build_system(
            num_data_servers=2,
            chunking=SMALL_CHUNKS,
            key_batch_size=KEY_WINDOW,
            rng=HmacDrbg(b"concurrent"),
        )
        client = system.new_client("alice")
        client.upload_batch_bytes = 4096
        files = {
            "a": HmacDrbg(b"file-a").random_bytes(30_000),
            "b": HmacDrbg(b"file-b").random_bytes(17_000),
        }
        results = {}
        errors = []

        def upload(name):
            try:
                results[name] = client.upload(name, files[name])
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=upload, args=(name,)) for name in files]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        key_client = client.key_client
        assert sum(r.key_oprf_evaluations for r in results.values()) == (
            key_client.oprf_evaluations
        )
        assert sum(r.key_round_trips for r in results.values()) == key_client.round_trips
        for name, data in files.items():
            chunks = list(chunk_stream(data, SMALL_CHUNKS))
            solo = build_system(
                num_data_servers=2,
                chunking=SMALL_CHUNKS,
                key_batch_size=KEY_WINDOW,
                rng=HmacDrbg(b"solo"),
            ).new_client("alice")
            solo.upload_batch_bytes = 4096
            alone = solo.upload(name, data)
            solo.close()
            got = results[name]
            assert got.key_oprf_evaluations == len({c.fingerprint for c in chunks})
            assert got.key_round_trips == alone.key_round_trips
            assert got.store_round_trips == alone.store_round_trips
            assert got.upload_batches == alone.upload_batches
        assert client.download("a").data == files["a"]
        assert client.download("b").data == files["b"]
        client.close()


def test_blind_many_matches_per_item_blinding(rsa_512):
    fingerprints = [bytes([i]) * 32 for i in range(40)]
    one_rng, many_rng = HmacDrbg(b"r"), HmacDrbg(b"r")
    one = [blindrsa.blind(rsa_512.public, fp, one_rng) for fp in fingerprints]
    values, states = blindrsa.blind_many(rsa_512.public, fingerprints, many_rng)
    assert values == [value for value, _ in one]
    assert states == [state for _, state in one]
    assert one_rng.random_bytes(8) == many_rng.random_bytes(8)
    assert blindrsa.blind_many(rsa_512.public, [], many_rng) == ([], [])
