"""Hot-path acceleration benchmark: reference vs. accelerated engines.

Measures the four layers the acceleration pass touches —

* **chunking** — Rabin content-defined chunking, per engine
  (``reference`` / ``scan`` / ``numpy``);
* **ctr** — AES-CTR keystream generation, per engine
  (``reference`` / ``ttable`` / ``numpy``);
* **caont** — the CAONT chunk transform (enhanced scheme) with the
  reference CTR engine pinned vs. the auto-dispatched fast path, plus a
  ``caont/hashctr`` row for the default (HashCTR) cipher every client
  runs;
* **upload** — end-to-end client upload against an in-process system,
  reference engines vs. accelerated defaults;
* **upload_tcp** — end-to-end upload over a real localhost TCP cluster,
  per-chunk RPCs vs. the batched pipeline, recording round trips per
  layer alongside throughput;
* **download_tcp** — end-to-end restore over a 4-shard localhost TCP
  cluster: serial fetch/decrypt vs. the parallel restore pipeline
  (shard scatter-gather + process-pool CAONT inversion + prefetch
  overlap), plus a warm-chunk-cache pass that serves every trimmed
  package locally;
* **replicated_tcp** — upload + restore over a 3-node localhost TCP
  cluster at R=1 (ring placement, single copy) vs. R=2 (every chunk on
  two ring owners, write quorum 1): the recorded ``overhead_vs_r1``
  ratio on the R=2 rows is the price of replication, and the R=2
  store round trips show writes fanning out to both owners;
* **rekey_tcp** — active group rekey over a 4-shard localhost TCP
  cluster: the serial per-file reference path (~5 round trips per
  member file) vs. the batched rekey pipeline (one batch RPC per stage
  per window plus parallel stub re-encryption), recording store and
  keystore round trips alongside wall time;
* **gc_compaction** — the locality-aware container engine: a cold
  128-chunk restore over TCP recording container fetches per container
  (the coalesced batch-read path fetches each container exactly once),
  and a delete → compact → verify churn cycle recording the fraction
  of dead container bytes reclaimed —

and writes machine-readable ``BENCH_hotpath.json`` at the repo root so
future PRs can track the perf trajectory.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick] [--out PATH]

``--quick`` shrinks the inputs so the whole run takes ~a second (used by
the tier-1 smoke test); full-size runs take a couple of minutes on the
pure-Python reference paths.

This file is executable-only: it deliberately defines no ``test_*``
functions (``pyproject.toml`` collects ``bench_*.py``), and the pytest
entry point lives in ``tests/integration/test_bench_hotpath.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.chunking.rabin import available_chunking_engines, rabin_chunks  # noqa: E402
from repro.core.system import build_system  # noqa: E402
from repro.crypto import modes  # noqa: E402
from repro.crypto.aes import AES  # noqa: E402
from repro.crypto.cipher import get_cipher  # noqa: E402
from repro.crypto.drbg import HmacDrbg  # noqa: E402
from repro.obs.expo import parse_prometheus, render_prometheus  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402

SCHEMA = "reed-bench-hotpath/6"

#: Every timed repeat lands in ``bench_seconds{bench=...}`` here, so the
#: numbers the report prints are the same ones a scrape would export.
BENCH_METRICS = MetricsRegistry()

#: Wide bucket spread: benchmark repeats range from sub-millisecond
#: (quick CTR runs) to minutes (full reference chunking).
_BENCH_BUCKETS = tuple(
    base * scale for scale in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0) for base in (1, 2.5, 5)
)


def _bench_histogram():
    return BENCH_METRICS.histogram(
        "bench_seconds",
        "Wall time of one benchmark repeat, by benchmark name.",
        buckets=_BENCH_BUCKETS,
        labelnames=("bench",),
    )


def _seed_rng(tag: str, seed: int) -> HmacDrbg:
    """A deterministic byte stream bound to (tag, --seed)."""
    return HmacDrbg(f"{tag}/{seed}".encode())


def _mib_per_s(num_bytes: int, seconds: float) -> float:
    if seconds <= 0:
        return float("inf")
    return num_bytes / (1024 * 1024) / seconds


def _time(fn, repeats: int, name: str) -> float:
    """Best-of-N wall time after one untimed warm-up call.

    The warm-up absorbs one-time lazy costs (numpy table builds, key
    schedule caches) so the steady-state throughput is what's reported;
    best-of suppresses scheduler noise.  Every timed repeat is recorded
    into ``bench_seconds{bench=name}``; the return value is that
    histogram child's observed minimum, so the report and the metrics
    snapshot cannot disagree.
    """
    child = _bench_histogram().labels(bench=name)
    fn()
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        child.observe(time.perf_counter() - start)
    return child.minimum


def _quantiles(name: str) -> dict:
    """p50/p99 of the repeats recorded for one benchmark row.

    Interpolated from the ``bench_seconds{bench=name}`` histogram child
    (clamped to the observed min/max, so few-repeat runs stay sane) —
    the tail-latency companions to the best-of ``seconds`` value.
    """
    child = _bench_histogram().labels(bench=name)
    return {"p50_s": child.quantile(0.5), "p99_s": child.quantile(0.99)}


def bench_chunking(data: bytes, repeats: int) -> list[dict]:
    results = []
    for engine in available_chunking_engines():
        def run(engine=engine):
            for _ in rabin_chunks(data, min_size=512, max_size=4096, avg_size=1024, engine=engine):
                pass

        seconds = _time(run, repeats, f"chunking/{engine}")
        results.append(
            {
                "name": f"chunking/{engine}",
                "bytes": len(data),
                "seconds": seconds,
                "mib_per_s": _mib_per_s(len(data), seconds),
            }
        )
    return results


def bench_ctr(data_len: int, repeats: int) -> list[dict]:
    key = bytes(range(32))
    aes = AES(key)
    results = []
    for engine in modes.available_ctr_engines():
        def run(engine=engine):
            modes.ctr_keystream(aes, modes.ZERO_NONCE, data_len, engine=engine)

        seconds = _time(run, repeats, f"ctr/{engine}")
        results.append(
            {
                "name": f"ctr/{engine}",
                "bytes": data_len,
                "seconds": seconds,
                "mib_per_s": _mib_per_s(data_len, seconds),
            }
        )
    return results


def bench_caont(chunk_size: int, chunk_count: int, repeats: int, seed: int) -> list[dict]:
    """CAONT transform under AES-256: reference CTR vs. fast dispatch,
    then the same chunks under the default cipher (``caont/hashctr``).

    The cipher's ``mask``/``deterministic_encrypt`` go through
    ``ctr_keystream``, so pinning the dispatcher's default engine
    exercises exactly the paths the client uses.
    """
    from repro.core.schemes import get_scheme

    rng = _seed_rng("bench-caont", seed)
    chunks = [rng.random_bytes(chunk_size) for _ in range(chunk_count)]
    keys = [rng.random_bytes(32) for _ in range(chunk_count)]
    scheme = get_scheme("enhanced", cipher=get_cipher("aes256"))
    total = chunk_size * chunk_count
    results = []
    for label, engines in (("reference", ("reference",)), ("accelerated", (None,))):
        engine = engines[0]

        def run(engine=engine):
            if engine is None:
                for chunk, key in zip(chunks, keys):
                    scheme.encrypt_chunk(chunk, key)
            else:
                original = modes.ctr_keystream
                try:
                    modes.ctr_keystream = (
                        lambda aes, nonce, length, engine=None, _o=original: _o(
                            aes, nonce, length, "reference"
                        )
                    )
                    for chunk, key in zip(chunks, keys):
                        scheme.encrypt_chunk(chunk, key)
                finally:
                    modes.ctr_keystream = original

        seconds = _time(run, repeats, f"caont/{label}")
        results.append(
            {
                "name": f"caont/{label}",
                "bytes": total,
                "seconds": seconds,
                "mib_per_s": _mib_per_s(total, seconds),
            }
        )
    default_scheme = get_scheme("enhanced")

    def run_default():
        for chunk, key in zip(chunks, keys):
            default_scheme.encrypt_chunk(chunk, key)

    seconds = _time(run_default, repeats, "caont/hashctr")
    results.append(
        {
            "name": "caont/hashctr",
            "bytes": total,
            "seconds": seconds,
            "mib_per_s": _mib_per_s(total, seconds),
        }
    )
    return results


def bench_upload(file_bytes: int, repeats: int, seed: int) -> list[dict]:
    """End-to-end upload: reference engines vs. accelerated defaults."""
    from repro.chunking.chunker import ChunkingSpec

    rng = _seed_rng("bench-upload", seed)
    data = rng.random_bytes(file_bytes)
    results = []
    configs = (
        ("reference", ChunkingSpec(avg_size=1024, min_size=512, max_size=4096, engine="reference"), "reference"),
        ("accelerated", ChunkingSpec(avg_size=1024, min_size=512, max_size=4096), None),
    )
    for label, spec, ctr_engine in configs:
        counter = [0]

        def run(spec=spec, ctr_engine=ctr_engine):
            original = modes.ctr_keystream
            try:
                if ctr_engine is not None:
                    modes.ctr_keystream = (
                        lambda aes, nonce, length, engine=None, _o=original: _o(
                            aes, nonce, length, ctr_engine
                        )
                    )
                system = build_system(
                    num_data_servers=1, cipher_name="aes256", chunking=spec
                )
                client = system.new_client("bench-user", cache_bytes=1 << 22)
                counter[0] += 1
                client.upload(f"file-{counter[0]}", data)
                client.close()
            finally:
                modes.ctr_keystream = original

        seconds = _time(run, repeats, f"upload/{label}")
        results.append(
            {
                "name": f"upload/{label}",
                "bytes": file_bytes,
                "seconds": seconds,
                "mib_per_s": _mib_per_s(file_bytes, seconds),
            }
        )
    return results


def bench_upload_tcp(file_bytes: int, repeats: int, seed: int) -> list[dict]:
    """Upload over localhost TCP: per-chunk round trips vs. the batched
    pipeline (``derive_batch`` + per-shard ``put_many`` + pipelining).

    Each timed run uploads fresh (undeduplicatable) data with a cold
    client, so the two configurations pay identical crypto and storage
    costs and differ only in how the bytes travel.
    """
    from repro.chunking.chunker import ChunkingSpec
    from repro.core.cluster import TcpCluster

    rng = _seed_rng("bench-upload-tcp", seed)
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    configs = (
        # Per-chunk: one fingerprint per key RPC, one chunk per store
        # batch, no overlap — the O(chunks) round-trip reference path.
        ("per_chunk", {"key_batch_size": 1, "upload_batch_bytes": 1, "pipeline_depth": 1}),
        # Batched: whole-file key derivation, 4 MB store batches,
        # store/encrypt overlap — the protocol this PR adds.
        ("batched", {}),
    )
    results = []
    with TcpCluster(num_data_servers=2, chunking=chunking, rng=rng) as cluster:
        for label, kwargs in configs:
            state = {"counter": 0, "last": None}

            def run(label=label, kwargs=kwargs, state=state):
                state["counter"] += 1
                data = rng.random_bytes(file_bytes)
                client = cluster.new_client(
                    f"bench-{label}-{state['counter']}", encryption_workers=1, **kwargs
                )
                state["last"] = client.upload(f"file-{label}-{state['counter']}", data)
                client.close()

            seconds = _time(run, repeats, f"upload_tcp/{label}")
            upload = state["last"]
            results.append(
                {
                    "name": f"upload_tcp/{label}",
                    "bytes": file_bytes,
                    "seconds": seconds,
                    "mib_per_s": _mib_per_s(file_bytes, seconds),
                    "chunks": upload.chunk_count,
                    "key_round_trips": upload.key_round_trips,
                    "store_round_trips": upload.store_round_trips,
                    "upload_batches": upload.upload_batches,
                    **_quantiles(f"upload_tcp/{label}"),
                }
            )
    return results


def bench_download_tcp(file_bytes: int, repeats: int, seed: int) -> list[dict]:
    """Restore over localhost TCP: serial per-chunk vs. the pipeline.

    One client uploads a fixed-chunk file to a 4-shard cluster; then
    three download configurations restore it:

    * ``serial`` — the chunk-at-a-time restore protocol: one storage
      round trip per chunk, one shard sub-fetch at a time, one decrypt
      core, no prefetch overlap, no cache (the download twin of
      ``upload_tcp/per_chunk``);
    * ``pipelined`` — windowed fetches, concurrent shard
      scatter-gather, process-pool CAONT inversion, and fetch/decrypt
      overlap (the defaults);
    * ``cache_warm`` — pipelined plus a chunk cache big enough for the
      whole file: the untimed warm-up download fills it, so the timed
      repeats serve every trimmed package locally with zero
      ``chunk_get_batch`` RPCs.

    Like ``upload_tcp``, loopback throughput undersells the protocol
    win (RTT is microseconds and this box may have a single core, which
    serializes the decrypt fan-out) — the latency-independent evidence
    is the recorded counters: per-chunk restore pays one store round
    trip per chunk, the pipeline a handful per file.  Every
    configuration's restored plaintext is asserted bit-identical to the
    uploaded bytes.
    """
    from repro.chunking.chunker import ChunkingSpec
    from repro.core.cluster import TcpCluster

    rng = _seed_rng("bench-download-tcp", seed)
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    data = rng.random_bytes(file_bytes)
    file_id = "bench-download-file"
    user = "bench-download"
    results = []
    with TcpCluster(num_data_servers=4, chunking=chunking, rng=rng) as cluster:
        uploader = cluster.new_client(user)
        uploader.upload(file_id, data)
        uploader.close()
        configs = (
            (
                "serial",
                {"pipeline_depth": 1, "encryption_workers": 1, "fetch_workers": 1},
                {"fetch_batch_chunks": 1},
            ),
            ("pipelined", {}, {}),
            ("cache_warm", {"chunk_cache_bytes": 64 * 1024 * 1024}, {}),
        )
        for label, kwargs, download_kwargs in configs:
            client = cluster.new_client(user, **kwargs)
            state = {"last": None}

            def run(client=client, state=state, download_kwargs=download_kwargs):
                state["last"] = client.download(file_id, **download_kwargs)

            seconds = _time(run, repeats, f"download_tcp/{label}")
            download = state["last"]
            if download.data != data:
                raise AssertionError(
                    f"download_tcp/{label}: restored plaintext differs from input"
                )
            lookups = download.chunk_cache_hits + download.chunk_cache_misses
            results.append(
                {
                    "name": f"download_tcp/{label}",
                    "bytes": file_bytes,
                    "seconds": seconds,
                    "mib_per_s": _mib_per_s(file_bytes, seconds),
                    "chunks": download.chunk_count,
                    "store_round_trips": download.store_round_trips,
                    "fetch_batches": download.fetch_batches,
                    "chunk_cache_hits": download.chunk_cache_hits,
                    "chunk_cache_misses": download.chunk_cache_misses,
                    "cache_hit_rate": round(download.chunk_cache_hits / lookups, 4)
                    if lookups
                    else 0.0,
                    **_quantiles(f"download_tcp/{label}"),
                }
            )
            client.close()
    return results


def bench_replicated_tcp(file_bytes: int, repeats: int, seed: int) -> list[dict]:
    """Replication overhead over localhost TCP: R=1 vs R=2.

    The same 3-node cluster topology runs twice: once with single-copy
    ring placement (R=1) and once with every chunk, recipe, and stub on
    its first two ring owners (R=2, write quorum 1).  Each repeat
    uploads fresh (undeduplicatable) data and restores it, so the two
    configurations pay identical crypto and differ only in replica
    fan-out.  The ``overhead_vs_r1`` ratio on the R=2 rows is the cost
    of the durability: writes ship every chunk twice (watch the store
    round trips roughly double), reads still fetch each chunk once from
    its primary.
    """
    from repro.chunking.chunker import ChunkingSpec
    from repro.core.cluster import TcpCluster

    rng = _seed_rng("bench-replicated-tcp", seed)
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    results = []
    baseline: dict[str, float] = {}
    for replicas in (1, 2):
        label = f"r{replicas}"
        with TcpCluster(
            num_data_servers=3, replicas=replicas, chunking=chunking, rng=rng
        ) as cluster:
            state = {"counter": 0, "upload": None, "download": None}

            def run_upload(cluster=cluster, label=label, state=state):
                state["counter"] += 1
                data = rng.random_bytes(file_bytes)
                client = cluster.new_client(
                    f"bench-{label}-{state['counter']}", encryption_workers=1
                )
                state["upload"] = client.upload(
                    f"file-{label}-{state['counter']}", data
                )
                state["data"] = data
                client.close()

            seconds = _time(run_upload, repeats, f"replicated_tcp/upload_{label}")
            upload = state["upload"]
            row = {
                "name": f"replicated_tcp/upload_{label}",
                "bytes": file_bytes,
                "seconds": seconds,
                "mib_per_s": _mib_per_s(file_bytes, seconds),
                "replicas": replicas,
                "chunks": upload.chunk_count,
                "store_round_trips": upload.store_round_trips,
            }
            if replicas == 1:
                baseline["upload"] = seconds
            else:
                row["overhead_vs_r1"] = round(seconds / baseline["upload"], 2)
            results.append(row)

            # Restore the last uploaded file with a fresh cold client.
            reader = cluster.new_client(
                f"bench-{label}-{state['counter']}", encryption_workers=1
            )
            file_id = f"file-{label}-{state['counter']}"

            def run_download(reader=reader, file_id=file_id, state=state):
                state["download"] = reader.download(file_id)

            seconds = _time(
                run_download, repeats, f"replicated_tcp/download_{label}"
            )
            download = state["download"]
            reader.close()
            if download.data != state["data"]:
                raise AssertionError(
                    f"replicated_tcp/download_{label}: restored plaintext "
                    f"differs from input"
                )
            row = {
                "name": f"replicated_tcp/download_{label}",
                "bytes": file_bytes,
                "seconds": seconds,
                "mib_per_s": _mib_per_s(file_bytes, seconds),
                "replicas": replicas,
                "chunks": download.chunk_count,
                "store_round_trips": download.store_round_trips,
            }
            if replicas == 1:
                baseline["download"] = seconds
            else:
                row["overhead_vs_r1"] = round(
                    seconds / baseline["download"], 2
                )
            results.append(row)
    return results


def bench_rekey_tcp(
    group_files: int, file_bytes: int, batch_size: int, repeats: int, seed: int
) -> list[dict]:
    """Active group rekey over localhost TCP: serial vs. pipelined.

    One owner builds a group of ``group_files`` member files on a
    4-shard cluster, then revokes access twice per timed repeat style:

    * ``serial`` — the per-file reference path: each member costs a
      keystore get, a recipe get, a stub get, a stub put, a recipe put,
      and a keystore put (~5 storage/keystore round trips per file);
    * ``pipelined`` — the batched :class:`RekeyPipeline`: member files
      travel in windows of ``batch_size``, one batch RPC per stage per
      window, stub re-encryption fanned out across the rekey workers.

    Every repeat performs a real ACTIVE rekey (key regression makes
    them repeatable — each run just winds the group chain one version
    further), so both rows pay identical crypto and differ only in
    round-trip structure.  As with the other ``*_tcp`` families,
    loopback RTT undersells the win; the latency-independent evidence
    is the recorded ``store_round_trips`` / ``keystore_round_trips``.
    """
    from repro.chunking.chunker import ChunkingSpec
    from repro.core.cluster import TcpCluster
    from repro.core.groups import GroupManager
    from repro.core.policy import FilePolicy
    from repro.core.rekey import RevocationMode

    rng = _seed_rng("bench-rekey-tcp", seed)
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    group_id = "bench-rekey-group"
    policy = FilePolicy.for_users(["bench-rekey-owner", "bench-rekey-reader"])
    results = []
    with TcpCluster(num_data_servers=4, chunking=chunking, rng=rng) as cluster:
        owner = cluster.new_client(
            "bench-rekey-owner", rekey_batch_size=batch_size
        )
        groups = GroupManager(owner)
        groups.create_group(group_id, policy)
        for index in range(group_files):
            groups.upload(
                group_id, f"bench-rekey-{index}", rng.random_bytes(file_bytes)
            )
        for label, pipelined in (("serial", False), ("pipelined", True)):
            state = {"last": None}

            def run(pipelined=pipelined, state=state):
                state["last"] = groups.rekey(
                    group_id, policy, RevocationMode.ACTIVE, pipelined=pipelined
                )

            seconds = _time(run, repeats, f"rekey_tcp/{label}")
            rekey = state["last"]
            if rekey.files_rewrapped != group_files:
                raise AssertionError(
                    f"rekey_tcp/{label}: rewrapped {rekey.files_rewrapped} "
                    f"of {group_files} member files"
                )
            results.append(
                {
                    "name": f"rekey_tcp/{label}",
                    "bytes": rekey.stub_bytes_reencrypted,
                    "seconds": seconds,
                    "mib_per_s": _mib_per_s(rekey.stub_bytes_reencrypted, seconds),
                    "files": rekey.files_rewrapped,
                    "store_round_trips": rekey.store_round_trips,
                    "keystore_round_trips": rekey.keystore_round_trips,
                    "batches": rekey.batches,
                    "workers": rekey.workers,
                    "abe_operations": rekey.abe_operations,
                    **_quantiles(f"rekey_tcp/{label}"),
                }
            )
        owner.close()
    return results


def bench_gc_compaction(file_bytes: int, repeats: int, seed: int) -> list[dict]:
    """The locality-aware container engine: coalesced cold restores and
    compaction reclaim.

    Two rows over a 2-node localhost TCP cluster:

    * ``cold_restore`` — every timed repeat restores a file no server
      has read before, so each download hits sealed containers cold.
      The coalesced batch-read path (``DataStore.get_many`` →
      ``ContainerStore.read_many``) fetches each distinct container
      exactly once; the recorded ``fetches_per_container`` stays ~1.0
      where a chunk-at-a-time reader would pay one fetch per chunk.
    * ``reclaim`` — each repeat uploads a doomed file ``A||B`` and a
      kept file ``B`` (fixed-size chunking dedups the shared half),
      deletes the doomed file (stranding A's chunks as dead space in
      containers B still lives in), runs a compaction pass over the
      ``storage.gc`` RPC, and verifies the kept file restores
      bit-identically from its relocated chunks.  ``reclaim_fraction``
      is the share of dead bytes the pass recovered (>= 0.9 expected).
    """
    from repro.chunking.chunker import ChunkingSpec
    from repro.core.cluster import TcpCluster

    rng = _seed_rng("bench-gc-compaction", seed)
    chunking = ChunkingSpec(method="fixed", avg_size=4096)
    results = []
    with TcpCluster(
        num_data_servers=2, chunking=chunking, rng=rng, gc_threshold=0.2
    ) as cluster:
        stores = [server.store for server in cluster.servers]

        def total_fetches() -> int:
            return sum(s.containers.container_fetches for s in stores)

        # -- cold_restore: one never-read file per _time call ------------
        uploader = cluster.new_client("bench-gc-uploader")
        files = []
        for index in range(repeats + 1):  # one per warm-up + timed repeat
            payload = rng.random_bytes(file_bytes)
            uploader.upload(f"gc-cold-{index}", payload)
            files.append((f"gc-cold-{index}", payload))
        uploader.close()
        containers = sum(len(s.containers.sealed_container_ids()) for s in stores)
        reader = cluster.new_client("bench-gc-uploader")
        state: dict = {"index": 0, "last": None}

        def run_cold(reader=reader, state=state):
            file_id, _ = files[state["index"] % len(files)]
            state["index"] += 1
            state["last"] = reader.download(file_id)

        fetches_before = total_fetches()
        seconds = _time(run_cold, repeats, "gc_compaction/cold_restore")
        cold_fetches = total_fetches() - fetches_before
        last_id, last_payload = files[(state["index"] - 1) % len(files)]
        if state["last"].data != last_payload:
            raise AssertionError(f"gc_compaction/cold_restore: {last_id} corrupted")
        reader.close()
        results.append(
            {
                "name": "gc_compaction/cold_restore",
                "bytes": file_bytes,
                "seconds": seconds,
                "mib_per_s": _mib_per_s(file_bytes, seconds),
                "chunks": state["last"].chunk_count,
                "containers": containers,
                "container_fetches": cold_fetches,
                "fetches_per_container": round(cold_fetches / containers, 2),
                "store_round_trips": state["last"].store_round_trips,
                **_quantiles("gc_compaction/cold_restore"),
            }
        )

        # -- reclaim: delete -> compact -> verify, fresh data each repeat
        half = max(4096, file_bytes // 2)
        client = cluster.new_client("bench-gc-churn")
        churn: dict = {"counter": 0, "status": None, "dead": 0}

        def run_reclaim(client=client, churn=churn):
            churn["counter"] += 1
            tag = churn["counter"]
            block_a = rng.random_bytes(half)
            block_b = rng.random_bytes(half)
            client.upload(f"gc-doomed-{tag}", block_a + block_b)
            client.upload(f"gc-kept-{tag}", block_b)
            client.delete(f"gc-doomed-{tag}")
            before = client.storage.gc_status()
            churn["dead"] = before["dead_bytes"]
            churn["ratio_before"] = before["dead_space_ratio"]
            churn["status"] = client.storage.gc_run()
            if client.download(f"gc-kept-{tag}").data != block_b:
                raise AssertionError(
                    "gc_compaction/reclaim: kept file corrupted by compaction"
                )
            client.delete(f"gc-kept-{tag}")  # leave the cluster clean

        seconds = _time(run_reclaim, repeats, "gc_compaction/reclaim")
        status = churn["status"]
        reclaimed = status["last_reclaimed_bytes"]
        results.append(
            {
                "name": "gc_compaction/reclaim",
                "bytes": reclaimed,
                "seconds": seconds,
                "mib_per_s": _mib_per_s(reclaimed, seconds),
                "dead_bytes": churn["dead"],
                "reclaimed_bytes": reclaimed,
                "reclaim_fraction": round(reclaimed / churn["dead"], 4)
                if churn["dead"]
                else 0.0,
                "dead_ratio_before": round(churn["ratio_before"], 4),
                "dead_ratio_after": round(status["dead_space_ratio"], 4),
                "relocated_chunks": status["last_relocated_chunks"],
                **_quantiles("gc_compaction/reclaim"),
            }
        )
        client.close()

    return results


def compute_speedups(results: list[dict]) -> dict[str, float]:
    """Accelerated-over-reference ratios per benchmark family."""
    by_name = {r["name"]: r for r in results}
    speedups: dict[str, float] = {}
    pairs = (
        ("chunking", "chunking/reference", ("chunking/numpy", "chunking/scan")),
        ("ctr", "ctr/reference", ("ctr/numpy", "ctr/ttable")),
        ("caont", "caont/reference", ("caont/accelerated",)),
        ("upload", "upload/reference", ("upload/accelerated",)),
        ("upload_tcp", "upload_tcp/per_chunk", ("upload_tcp/batched",)),
        # Replication "speedup" reads below 1.0 by design: it is the
        # R=1-over-R=2 ratio, i.e. the inverse of the upload overhead.
        (
            "replicated_tcp",
            "replicated_tcp/upload_r1",
            ("replicated_tcp/upload_r2",),
        ),
        ("download_tcp", "download_tcp/serial", ("download_tcp/pipelined",)),
        ("rekey_tcp", "rekey_tcp/serial", ("rekey_tcp/pipelined",)),
    )
    for family, ref_name, fast_names in pairs:
        ref = by_name.get(ref_name)
        fast = next((by_name[n] for n in fast_names if n in by_name), None)
        if ref and fast and fast["seconds"] > 0:
            speedups[family] = round(ref["seconds"] / fast["seconds"], 2)
    return speedups


def run(quick: bool, seed: int = 0, only: list[str] | None = None) -> dict:
    global BENCH_METRICS
    BENCH_METRICS = MetricsRegistry()  # each run reports only its own repeats
    rng = _seed_rng("bench-hotpath", seed)
    if quick:
        chunk_data = rng.random_bytes(96 * 1024)
        ctr_len = 64 * 1024
        caont = (4096, 4)
        upload_bytes = 64 * 1024
        tcp_bytes = 64 * 1024
        download_bytes = 64 * 1024
        rekey = (8, 8 * 1024, 4)  # files, bytes/file, pipeline batch size
        repeats = 1
    else:
        chunk_data = rng.random_bytes(4 * 1024 * 1024)
        ctr_len = 1024 * 1024
        caont = (8192, 64)
        upload_bytes = 1024 * 1024
        tcp_bytes = 512 * 1024
        # 128 fixed 4 KiB chunks, matching upload_tcp's full scale: the
        # serial row then pays one store round trip per chunk while the
        # pipeline pays a handful per file.
        download_bytes = 512 * 1024
        # The ISSUE's acceptance scenario: a 64-file group over 4
        # shards, rekeyed in windows of 16 (4 batches per stage).
        rekey = (64, 16 * 1024, 16)
        repeats = 3

    families: tuple[tuple[str, object], ...] = (
        ("chunking", lambda: bench_chunking(chunk_data, repeats)),
        ("ctr", lambda: bench_ctr(ctr_len, repeats)),
        ("caont", lambda: bench_caont(*caont, repeats, seed)),
        ("upload", lambda: bench_upload(upload_bytes, repeats, seed)),
        ("upload_tcp", lambda: bench_upload_tcp(tcp_bytes, repeats, seed)),
        (
            "download_tcp",
            lambda: bench_download_tcp(download_bytes, repeats, seed),
        ),
        (
            "replicated_tcp",
            lambda: bench_replicated_tcp(tcp_bytes, repeats, seed),
        ),
        ("rekey_tcp", lambda: bench_rekey_tcp(*rekey, repeats, seed)),
        (
            "gc_compaction",
            lambda: bench_gc_compaction(download_bytes, repeats, seed),
        ),
    )
    known = {name for name, _ in families}
    for requested in only or []:
        if requested not in known:
            raise SystemExit(
                f"unknown bench family {requested!r}; choose from {sorted(known)}"
            )
    results: list[dict] = []
    for name, bench in families:
        if only and name not in only:
            continue
        results.extend(bench())
    return {
        "schema": SCHEMA,
        "quick": quick,
        "seed": seed,
        "python": sys.version.split()[0],
        "results": results,
        "speedups": compute_speedups(results),
        "metrics": BENCH_METRICS.snapshot(),
    }


def check_metrics_snapshot(report: dict) -> None:
    """Assert the run's metrics exposition is well-formed (smoke mode).

    Renders ``BENCH_METRICS`` to Prometheus text, re-parses it (the
    parser rejects NaN and malformed lines), and checks that every
    reported benchmark has a ``bench_seconds`` series whose observation
    count is positive and whose minimum matches the reported seconds.
    """
    series = parse_prometheus(render_prometheus(BENCH_METRICS))
    for result in report["results"]:
        name = result["name"]
        count = series.get(("bench_seconds_count", frozenset({("bench", name)})))
        if not count or count <= 0:
            raise AssertionError(f"no bench_seconds samples for {name!r}")
        total = series.get(("bench_seconds_sum", frozenset({("bench", name)})))
        if total is None or total < result["seconds"] - 1e-9:
            raise AssertionError(f"bench_seconds_sum inconsistent for {name!r}")
        if "p50_s" in result or "p99_s" in result:
            p50, p99 = result.get("p50_s"), result.get("p99_s")
            if p50 is None or p99 is None:
                raise AssertionError(f"missing latency quantiles for {name!r}")
            # seconds is the best-of (histogram minimum); the clamped
            # bucket interpolation keeps p50 <= p99 within [min, max].
            if not result["seconds"] - 1e-9 <= p50 <= p99 + 1e-9:
                raise AssertionError(
                    f"inconsistent quantiles for {name!r}: "
                    f"min={result['seconds']} p50={p50} p99={p99}"
                )
    snapshot = report["metrics"]
    if "bench_seconds" not in snapshot:
        raise AssertionError("metrics snapshot is missing bench_seconds")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny inputs (smoke-test scale)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="imply --quick and verify the metrics snapshot is well-formed "
        "(the deterministic CI pass)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for every input byte stream (same seed, same bytes)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="FAMILY",
        help="run only this bench family (repeatable, e.g. "
        "--only gc_compaction); default is every family",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_hotpath.json"),
        help="output JSON path (default: BENCH_hotpath.json at repo root)",
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick or args.smoke, seed=args.seed, only=args.only)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for result in report["results"]:
        print(f"{result['name']:24s} {result['mib_per_s']:10.2f} MiB/s")
    print("speedups:", report["speedups"])
    if args.smoke:
        check_metrics_snapshot(report)
        print("metrics snapshot: well-formed")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
