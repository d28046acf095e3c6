"""The paper's evaluation figures (Figs. 5–10), measured on this host.

Runs every figure point of §VI that the implementation can run here and
writes ``BENCH_figs.json``.  Each row is one figure point: the median
wall time over a stated number of repeats, the throughput where the
point is a speed, the deterministic counts behind it (keys derived,
OPRF evaluations, key and store round trips, container fetches, bytes)
and the value the paper quotes for that point, if it quotes one
(:data:`PAPER`, a table, not a model).  Same seed, same inputs, same
counts; the times move with the host.

* Fig. 5 — MLE key generation over a real TCP key manager (1024-bit
  blind RSA): (a) against the chunk size at batch 256, (b) against the
  batch size at 8 KiB chunks, where each batch is one real round trip;
* Fig. 6 — chunk encryption, basic against enhanced, per chunk size;
* Fig. 7 — first upload, second upload (keys cached, chunks deduped) and
  download over a 4-server ``TcpCluster`` per scheme and chunk size
  (a, b), and the aggregate upload of 1 and 2 concurrent clients (c);
* Fig. 8 — lazy and active rekey delay against the number of users (a),
  the revocation ratio (b) and the file size (c);
* Fig. 9 — the 147-day generated Fslhomes trace through the dedup
  accounting, and a 15-day prefix through the real ``DataStore``;
* Fig. 10 — a 7-day generated trace through the full client/server
  stack, per day, median of three replays.

The paper's shape claims are named checks (``report["checks"]``); a
failing check makes the script exit 1.  Run it as::

    PYTHONPATH=src python benchmarks/bench_figs.py --seed 0 [--out PATH]

The whole run takes about a minute on a 2-core host.  This file is
executable-only: it defines no ``test_*`` functions (``pyproject.toml``
collects ``bench_*.py``); ``tests/integration/test_bench_figs.py``
calls :func:`fig9` and :func:`fig10` directly.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

from benchmarks.common import mib_per_s, seed_rng  # noqa: E402
from repro.chunking.chunker import ChunkingSpec, chunk_stream  # noqa: E402
from repro.core.cluster import TcpCluster  # noqa: E402
from repro.core.policy import FilePolicy  # noqa: E402
from repro.core.rekey import RevocationMode  # noqa: E402
from repro.core.schemes import STUB_SIZE, get_scheme  # noqa: E402
from repro.core.system import build_system  # noqa: E402
from repro.crypto.hashing import sha256  # noqa: E402
from repro.obs import scope as obs_scope  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.storage.datastore import DataStore  # noqa: E402
from repro.util.units import KiB, MiB  # noqa: E402
from repro.workloads.fsl import (  # noqa: E402
    PAPER_PHYSICAL_GB,
    PAPER_STUB_GB,
    PAPER_TOTAL_SAVING,
    FslhomesGenerator,
    FslParameters,
    chunk_bytes_from_fingerprint,
)
from repro.workloads.replay import replay_dedup_accounting  # noqa: E402

SCHEMA = "reed-bench-figs/1"

#: Timed repeats behind every row's median.
REPEATS = 3

#: The paper's RSA modulus for the key manager (§VI-A).
PAPER_KEY_BITS = 1024
CHUNK_KIB = (2, 4, 8, 16)
SCHEMES = ("basic", "enhanced")

#: Fig. 5: data covered by the keys of one Fig. 5(a) point, and the
#: fingerprints per Fig. 5(b) point (256 keys = 2 MiB of 8 KiB chunks).
KEYGEN_BYTES = 1 * MiB
KEYGEN_KEYS = 256
BATCH_SIZES = (1, 16, 64, 256)
#: Fig. 6: unique data encrypted per point, and the interleaved rounds
#: of the basic-against-enhanced check (each scheme keeps its best
#: round, so a load spike during one round cannot flip the ratio).
ENCRYPT_BYTES = 4 * MiB
ENCRYPT_ROUNDS = 9
#: Fig. 7: the file each client uploads, and the concurrent clients.
UPDOWN_BYTES = 2 * MiB
CLIENT_COUNTS = (1, 2)
#: Fig. 8: the paper's 20 % revocation at 50–500 users over a 1 MiB
#: file; 50 users over 1–16 MiB files, where the stub file and not the
#: access tree sets an active rekey's cost.
REKEY_BYTES = 1 * MiB
USER_COUNTS = (50, 100, 200, 300, 400, 500)
REVOCATION_RATIOS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
FILE_MIB = (1, 4, 16)
#: A rekey here takes 2–20 ms, so host noise can swing a median of
#: ``REPEATS``; Fig. 8's shape checks compare medians of this many.
FIG8_REPEATS = 15
#: Fig. 9: the full 147-day trace for the accounting, a 15-day prefix
#: for the real storage engine.  Fig. 10: 7 days of 3 users.
FIG9_ACCOUNTING = FslParameters(scale=1e-5)
FIG9_ENGINE = FslParameters(scale=2e-6, days=15)
FIG10_TRACE = FslParameters(scale=2e-6, days=7, users=3)

#: Values the paper quotes in its text (§VI), keyed by (figure, point)
#: and then by the row field they compare with.  Speeds are the paper's
#: MB/s, rekey delays seconds; the paper ran 2 GB files on a 1 Gb/s LAN.
PAPER = {
    ("5a", "chunk_kib=16"): {"mib_per_s": 17.64},
    ("5b", "batch=256"): {"mib_per_s": 12.5},
    ("6", "scheme=basic chunk_kib=8"): {"mib_per_s": 203.0},
    ("6", "scheme=enhanced chunk_kib=8"): {"mib_per_s": 155.0},
    ("7a", "scheme=basic chunk_kib=16 upload=2nd"): {"mib_per_s": 108.1},
    ("7a", "scheme=enhanced chunk_kib=16 upload=2nd"): {"mib_per_s": 107.2},
    ("7b", "scheme=basic chunk_kib=8"): {"mib_per_s": 108.0},
    ("7b", "scheme=enhanced chunk_kib=8"): {"mib_per_s": 106.6},
    ("8a", "users=500 mode=lazy"): {"median_s": 2.25},
    ("8b", "ratio=0.5 mode=lazy"): {"median_s": 1.44},
    ("8b", "ratio=0.5 mode=active"): {"median_s": 2.0},
    ("9", "accounting days=147"): {
        "saving": PAPER_TOTAL_SAVING,
        "physical_to_stub": round(PAPER_PHYSICAL_GB / PAPER_STUB_GB, 3),
    },
    ("10", "day=0 upload"): {"mib_per_s": 13.1},
    **{("10", f"day={day} upload"): {"mib_per_s": 105.0} for day in range(1, 7)},
}


def timed(run, repeats: int = REPEATS, setup=lambda i: ()):
    """Median wall time of ``run(*setup(i))`` over ``repeats`` calls
    (``setup`` untimed), and the last call's result."""
    times = []
    for i in range(repeats):
        args = setup(i)
        start = time.perf_counter()
        result = run(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def row(figure: str, point: str, seconds: float, counts: dict, repeats: int = REPEATS,
        num_bytes: int | None = None, **measured) -> dict:
    """One figure point: timing, measured extras, counts and the paper's
    quote (``num_bytes`` makes it a speed)."""
    out = {"figure": figure, "point": point, "repeats": repeats, "median_s": seconds}
    if num_bytes is not None:
        out["mib_per_s"] = mib_per_s(num_bytes, seconds)
    out.update(measured)
    out["counts"] = counts
    out["paper"] = PAPER.get((figure, point), {})
    return out


def check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def at(rows: list[dict], point: str) -> dict:
    return next(r for r in rows if r["point"] == point)


def fixed_chunks(chunk_kib: int) -> ChunkingSpec:
    return ChunkingSpec(method="fixed", avg_size=chunk_kib * KiB)


def open_client(stack: contextlib.ExitStack, cluster: TcpCluster, user: str, **kwargs):
    """A cluster client that ``stack`` closes (before the cluster stops)."""
    client = cluster.new_client(user, **kwargs)
    stack.callback(client.close)
    return client


def container_fetches(servers) -> int:
    """Container fetches so far, read once per distinct registry: the
    servers of ``build_system`` share the process default."""
    registries = {id(server.store.metrics): server.store.metrics for server in servers}
    return int(sum(r.value("container_fetch_total") for r in registries.values()))


# -- Fig. 5: MLE key generation ------------------------------------------


def _derive_counts(key_client):
    """``derive_keys`` returning the keys, OPRF evaluations and round
    trips of that one call."""

    def derive(fingerprints):
        with obs_scope.attribution() as scope:
            keys = key_client.derive_keys(fingerprints)
        return {
            "keys_derived": len(keys),
            "oprf_evaluations": scope.get_int("key_oprf_evaluations"),
            "key_round_trips": scope.get_int("key_round_trips"),
        }

    return derive


def fig5a(seed: int) -> tuple[list[dict], list[dict]]:
    """Key generation speed (MiB of chunk data per second) against the
    chunk size, batch 256: smaller chunks need more keys per byte."""
    rng = seed_rng("fig5a", seed)
    rows = []
    with contextlib.ExitStack() as stack:
        cluster = stack.enter_context(
            TcpCluster(num_data_servers=1, key_bits=PAPER_KEY_BITS, rng=rng)
        )
        for chunk_kib in CHUNK_KIB:
            client = open_client(stack, cluster, f"keygen-{chunk_kib}", owner=False)

            def fingerprints(_i, spec=fixed_chunks(chunk_kib)):
                data = rng.random_bytes(KEYGEN_BYTES)
                return ([sha256(chunk.data) for chunk in chunk_stream(data, spec)],)

            seconds, counts = timed(_derive_counts(client.key_client), setup=fingerprints)
            rows.append(row("5a", f"chunk_kib={chunk_kib}", seconds,
                            {**counts, "bytes": KEYGEN_BYTES}, num_bytes=KEYGEN_BYTES))
    rates = [at(rows, f"chunk_kib={kib}")["mib_per_s"] for kib in CHUNK_KIB]
    checks = [
        check("fig5a.speed_rises_with_chunk_size", rates == sorted(rates),
              " < ".join(f"{rate:.2f}" for rate in rates) + " MiB/s over 2-16 KiB"),
    ]
    return rows, checks


def fig5b(seed: int) -> tuple[list[dict], list[dict]]:
    """Key generation speed against the batch size (8 KiB chunks): every
    batch is one round trip to the TCP key manager."""
    rng = seed_rng("fig5b", seed)
    rows = []
    with contextlib.ExitStack() as stack:
        cluster = stack.enter_context(
            TcpCluster(num_data_servers=1, key_bits=PAPER_KEY_BITS, rng=rng)
        )
        for batch in BATCH_SIZES:
            client = open_client(
                stack, cluster, f"batch-{batch}", owner=False, key_batch_size=batch
            )
            fingerprints = lambda _i: ([rng.random_bytes(32) for _ in range(KEYGEN_KEYS)],)
            seconds, counts = timed(_derive_counts(client.key_client), setup=fingerprints)
            covered = KEYGEN_KEYS * 8 * KiB
            rows.append(row("5b", f"batch={batch}", seconds, {**counts, "bytes": covered},
                            num_bytes=covered))
    single, batched = at(rows, "batch=1")["mib_per_s"], at(rows, "batch=256")["mib_per_s"]
    checks = [
        check("fig5b.batching_pays", batched > single,
              f"batch 256 {batched:.2f} MiB/s > batch 1 {single:.2f} MiB/s"),
    ]
    return rows, checks


# -- Fig. 6: encryption speed --------------------------------------------


def fig6(seed: int) -> tuple[list[dict], list[dict]]:
    """Chunk encryption into trimmed package + stub, basic vs enhanced."""
    data = seed_rng("fig6", seed).random_bytes(ENCRYPT_BYTES)
    corpus = {}
    for chunk_kib in CHUNK_KIB:
        chunks = [chunk.data for chunk in chunk_stream(data, fixed_chunks(chunk_kib))]
        corpus[chunk_kib] = (chunks, [sha256(b"mle" + chunk[:32]) for chunk in chunks])
    schemes = {name: get_scheme(name) for name in SCHEMES}

    def encrypt_all(scheme, chunks, keys):
        for chunk, key in zip(chunks, keys):
            scheme.encrypt_chunk(chunk, key)
        return {"chunks": len(chunks), "bytes": ENCRYPT_BYTES}

    rows = []
    for name, scheme in schemes.items():
        for chunk_kib, (chunks, keys) in corpus.items():
            seconds, counts = timed(lambda: encrypt_all(scheme, chunks, keys))
            rows.append(row("6", f"scheme={name} chunk_kib={chunk_kib}", seconds, counts,
                            num_bytes=ENCRYPT_BYTES))

    best = {name: float("inf") for name in schemes}
    for _round in range(ENCRYPT_ROUNDS):
        for name, scheme in schemes.items():
            start = time.perf_counter()
            encrypt_all(scheme, *corpus[8])
            best[name] = min(best[name], time.perf_counter() - start)
    ratio = best["enhanced"] / best["basic"]
    # The paper measures 1.24x: with AES-NI the enhanced scheme's extra
    # deterministic encryption pass is cheap next to the hashing.  E is
    # the same OpenSSL AES-256-CTR here, and the ratio reads about 1.5x:
    # what the enhanced scheme pays on top is its second SHA-256 digest
    # and the self-XOR fold, which cost more next to one interpreter's
    # per-chunk overhead than next to C.
    checks = [
        check("fig6.basic_faster", best["basic"] < best["enhanced"],
              f"best of {ENCRYPT_ROUNDS} at 8 KiB: basic {best['basic'] * 1e3:.1f} ms, "
              f"enhanced {best['enhanced'] * 1e3:.1f} ms"),
        check("fig6.ratio_in_band", 1.05 <= ratio <= 2.6,
              f"basic/enhanced at 8 KiB = {ratio:.2f} (band [1.05, 2.6], paper 1.24)"),
    ]
    return rows, checks


# -- Fig. 7: upload and download -----------------------------------------


def _upload_counts(result) -> dict:
    return {
        "chunks": result.chunk_count,
        "new_chunks": result.new_chunks,
        "oprf_evaluations": result.key_oprf_evaluations,
        "key_round_trips": result.key_round_trips,
        "store_round_trips": result.store_round_trips,
        "bytes": result.size,
    }


def fig7ab(seed: int) -> tuple[list[dict], list[dict]]:
    """Per scheme and chunk size over a 4-server TCP cluster: the first
    upload of unique data (cold key cache), the second upload of the
    same data (keys cached, every chunk deduplicated), and its download."""
    rng = seed_rng("fig7", seed)
    rows, mismatches = [], []
    for scheme in SCHEMES:
        for chunk_kib in CHUNK_KIB:
            with contextlib.ExitStack() as stack:
                cluster = stack.enter_context(TcpCluster(
                    num_data_servers=4, key_bits=PAPER_KEY_BITS, scheme=scheme,
                    chunking=fixed_chunks(chunk_kib), rng=rng,
                ))
                point = f"scheme={scheme} chunk_kib={chunk_kib}"

                def first(i):
                    # A new device of the same owner (a cold key cache)
                    # uploading data no one stored before.
                    client = open_client(stack, cluster, "owner", cache_bytes=64 * MiB)
                    return client, f"first-{i}", rng.random_bytes(UPDOWN_BYTES)

                seconds, upload = timed(lambda c, f, d: c.upload(f, d), setup=first)
                rows.append(row("7a", f"{point} upload=1st", seconds,
                                _upload_counts(upload), num_bytes=UPDOWN_BYTES))

                client = open_client(stack, cluster, "owner", cache_bytes=64 * MiB)
                data = rng.random_bytes(UPDOWN_BYTES)
                client.upload("prime", data)
                seconds, upload = timed(lambda i: client.upload(f"second-{i}", data),
                                        setup=lambda i: (i,))
                rows.append(row("7a", f"{point} upload=2nd", seconds,
                                _upload_counts(upload), num_bytes=UPDOWN_BYTES))

                def download():
                    fetches = container_fetches(cluster.servers)
                    result = client.download("prime")
                    if result.data != data:
                        mismatches.append(point)
                    return {
                        "chunks": result.chunk_count,
                        "store_round_trips": result.store_round_trips,
                        "container_fetches": container_fetches(cluster.servers) - fetches,
                        "bytes": result.size,
                    }

                seconds, counts = timed(download)
                rows.append(row("7b", point, seconds, counts, num_bytes=UPDOWN_BYTES))
    checks = [
        check("fig7b.download_matches_upload", not mismatches,
              f"{2 * len(CHUNK_KIB) * REPEATS} downloads; differing: {mismatches or 'none'}"),
    ]
    for scheme in SCHEMES:
        point = f"scheme={scheme} chunk_kib=8"
        first_rate = at(rows, f"{point} upload=1st")["mib_per_s"]
        second_rate = at(rows, f"{point} upload=2nd")["mib_per_s"]
        checks.append(check(
            f"fig7a.cached_upload_faster.{scheme}", second_rate > first_rate,
            f"8 KiB: 2nd {second_rate:.2f} MiB/s > 1st {first_rate:.2f} MiB/s",
        ))
    return rows, checks


def fig7c(seed: int) -> tuple[list[dict], list[dict]]:
    """Aggregate upload speed of concurrent clients (enhanced, 8 KiB):
    first uploads of unique data, then second uploads of the same data."""
    rng = seed_rng("fig7c", seed)
    rows = []
    for clients in CLIENT_COUNTS:
        with contextlib.ExitStack() as stack:
            cluster = stack.enter_context(TcpCluster(
                num_data_servers=4, key_bits=PAPER_KEY_BITS,
                chunking=fixed_chunks(8), rng=rng,
            ))
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=clients))
            users = [
                open_client(stack, cluster, f"client{i}", cache_bytes=64 * MiB)
                for i in range(clients)
            ]
            files: list[bytes] = []

            def upload_all(tag):
                futures = [
                    pool.submit(user.upload, f"{tag}-{n}", files[n])
                    for n, user in enumerate(users)
                ]
                results = [_upload_counts(future.result()) for future in futures]
                return {key: sum(r[key] for r in results) for key in results[0]}

            def fresh(i):
                files[:] = [rng.random_bytes(UPDOWN_BYTES) for _ in users]
                return (f"first{i}",)

            total = clients * UPDOWN_BYTES
            seconds, counts = timed(upload_all, setup=fresh)
            rows.append(row("7c", f"clients={clients} upload=1st", seconds, counts,
                            num_bytes=total))
            seconds, counts = timed(upload_all, setup=lambda i: (f"second{i}",))
            rows.append(row("7c", f"clients={clients} upload=2nd", seconds, counts,
                            num_bytes=total))
    return rows, []


# -- Fig. 8: rekeying ----------------------------------------------------


def _rekey_target(rng, users: int, file_bytes: int):
    """An in-process system whose owner stored one file readable by
    ``users`` users (owner included)."""
    system = build_system(num_data_servers=1, chunking=fixed_chunks(8), rng=rng)
    owner = system.new_client("owner", cache_bytes=32 * MiB)
    policy = FilePolicy.for_users(["owner"] + [f"user{i}" for i in range(users - 1)])
    owner.upload("target", rng.random_bytes(file_bytes), policy=policy)
    return owner, policy


def _rekey_rows(owner, figure, point, new_policy, wrong_policy: list) -> list[dict]:
    """One row per revocation mode: rekeys of ``target`` to ``new_policy``."""
    out = []
    for mode in (RevocationMode.LAZY, RevocationMode.ACTIVE):

        def rekey(mode=mode):
            result = owner.rekey("target", new_policy, mode)
            if result.new_policy_text != new_policy.text:
                wrong_policy.append(f"{figure} {point} {mode.value}")
            return {
                "store_round_trips": result.store_round_trips,
                "keystore_round_trips": result.keystore_round_trips,
                "stub_bytes_reencrypted": result.stub_bytes_reencrypted,
            }

        seconds, counts = timed(rekey, FIG8_REPEATS)
        out.append(row(figure, f"{point} mode={mode.value}", seconds, counts,
                       repeats=FIG8_REPEATS))
    return out


def fig8(seed: int) -> tuple[list[dict], list[dict]]:
    """Rekey delay, lazy and active: (a) against the number of users,
    20 % revoked; (b) against the revocation ratio of 500 users; (c)
    against the file size, 50 users with 10 revoked."""
    rng = seed_rng("fig8", seed)
    rows, wrong_policy = [], []
    for users in USER_COUNTS:
        owner, policy = _rekey_target(rng, users, REKEY_BYTES)
        revoked = {f"user{i}" for i in range(int((users - 1) * 0.2))}
        rows += _rekey_rows(owner, "8a", f"users={users}",
                            policy.without_users(revoked), wrong_policy)
    owner, policy = _rekey_target(rng, 500, REKEY_BYTES)
    for ratio in REVOCATION_RATIOS:
        revoked = {f"user{i}" for i in range(int(499 * ratio))}
        rows += _rekey_rows(owner, "8b", f"ratio={ratio}",
                            policy.without_users(revoked), wrong_policy)
    for file_mib in FILE_MIB:
        owner, policy = _rekey_target(rng, 50, file_mib * MiB)
        revoked = {f"user{i}" for i in range(10)}
        rows += _rekey_rows(owner, "8c", f"file_mib={file_mib}",
                            policy.without_users(revoked), wrong_policy)
    lazy_delay = lambda point: at(rows, f"{point} mode=lazy")["median_s"]
    users_50, users_400 = lazy_delay("users=50"), lazy_delay("users=400")
    few, half = lazy_delay("ratio=0.05"), lazy_delay("ratio=0.5")
    active = {mib: at(rows, f"file_mib={mib} mode=active")["median_s"] for mib in (1, 16)}
    lazy = {mib: lazy_delay(f"file_mib={mib}") for mib in (1, 16)}
    ms = lambda seconds: f"{seconds * 1e3:.1f} ms"
    checks = [
        check("fig8.rekey_applies_policy", not wrong_policy,
              f"rekeys whose new policy text differs: {wrong_policy or 'none'}"),
        check("fig8a.delay_grows_with_users", users_400 > users_50,
              f"lazy: 400 users {ms(users_400)} > 50 users {ms(users_50)}"),
        check("fig8b.delay_shrinks_with_ratio", half < few,
              f"lazy, 500 users: 50 % revoked {ms(half)} < 5 % revoked {ms(few)}"),
        check("fig8c.active_grows_with_file", active[16] > active[1],
              f"active: 16 MiB {ms(active[16])} > 1 MiB {ms(active[1])}"),
        check("fig8c.lazy_flat_in_file", lazy[16] < 8 * lazy[1],
              f"lazy: 16 MiB {ms(lazy[16])} < 8 x 1 MiB {ms(lazy[1])}"),
    ]
    return rows, checks


# -- Fig. 9: storage overhead on the generated Fslhomes trace -------------


def fig9(seed: int) -> tuple[list[dict], list[dict]]:
    """Logical, physical and stub data after the 147-day trace (the
    generator, seeded by ``seed``, is calibrated to the paper's
    aggregates), and a 15-day prefix through a real ``DataStore``."""
    accounting_params = dataclasses.replace(FIG9_ACCOUNTING, seed=seed)
    engine_params = dataclasses.replace(FIG9_ENGINE, seed=seed)

    def accounting(params):
        return replay_dedup_accounting(FslhomesGenerator(params).days())

    seconds, per_day = timed(lambda: accounting(accounting_params))
    final, mid = per_day[-1], per_day[97]
    saving = final.total_saving
    ratio = final.physical_bytes / final.stub_bytes
    counts = {
        "logical_bytes": final.logical_bytes,
        "physical_bytes": final.physical_bytes,
        "stub_bytes": final.stub_bytes,
    }
    rows = [row("9", f"accounting days={len(per_day)}", seconds, counts,
                saving=saving, physical_to_stub=ratio)]

    def engine():
        store = DataStore(metrics=MetricsRegistry())
        for snapshots in FslhomesGenerator(engine_params).days():
            for snapshot in snapshots:
                for chunk in snapshot.chunks:
                    store.put_chunk(
                        chunk.fingerprint + b"\x00" * 26,
                        chunk_bytes_from_fingerprint(chunk.fingerprint, chunk.size),
                    )
                store.put_stub_file(
                    f"{snapshot.user}-day{snapshot.day}",
                    b"\x00" * (len(snapshot.chunks) * STUB_SIZE),
                )
        store.flush()
        return store

    seconds, store = timed(engine)
    stats = store.stats
    rows.append(row("9", f"engine days={engine_params.days}", seconds, {
        "physical_bytes": stats.physical_bytes,
        "stub_bytes": stats.stub_bytes,
        "containers_sealed": int(store.metrics.value("container_seals_total")),
    }))
    engine_accounting = accounting(engine_params)[-1]

    paper_ratio = PAPER_PHYSICAL_GB / PAPER_STUB_GB
    tail_physical = final.physical_bytes - mid.physical_bytes
    tail_stub = final.stub_bytes - mid.stub_bytes
    daily_overhead = final.stored_bytes / len(per_day)
    daily_logical = final.logical_bytes / len(per_day)
    checks = [
        check("fig9.saving", abs(saving - PAPER_TOTAL_SAVING) <= 0.01,
              f"saving {saving:.4f} within 0.01 of the paper's {PAPER_TOTAL_SAVING}"),
        check("fig9.physical_to_stub", abs(ratio - paper_ratio) <= 0.35 * paper_ratio,
              f"physical:stub {ratio:.3f} within 35 % of the paper's {paper_ratio:.3f}"),
        check("fig9.stub_catches_up", tail_stub > 0.5 * tail_physical,
              f"days 98-147: stub +{tail_stub} B > 0.5 x physical +{tail_physical} B"),
        check("fig9.daily_overhead", daily_overhead < 0.03 * daily_logical,
              f"physical+stub per day {daily_overhead / daily_logical:.2%} of logical (< 3 %)"),
        check("fig9.engine_matches_accounting",
              (stats.physical_bytes, stats.stub_bytes)
              == (engine_accounting.physical_bytes, engine_accounting.stub_bytes),
              f"DataStore physical/stub {stats.physical_bytes}/{stats.stub_bytes} B, "
              f"accounting {engine_accounting.physical_bytes}/{engine_accounting.stub_bytes} B"),
    ]
    return rows, checks


# -- Fig. 10: trace-driven upload and download ----------------------------


def _replay_trace(params: FslParameters) -> list[dict]:
    """One 7-day replay through the full stack: per day, the upload and
    download seconds and counts.  Chunks are rebuilt from their
    fingerprints as the paper does; each user has its own key cache."""
    generator = FslhomesGenerator(params)
    # 64 KiB containers scale the fragmentation down with the data: the
    # paper's 4 MB containers against TB-scale days.
    system = build_system(num_data_servers=4, chunking=fixed_chunks(8),
                          rng=seed_rng("fig10-system", params.seed),
                          container_bytes=64 * KiB)
    clients = {user: system.new_client(user, cache_bytes=64 * MiB)
               for user in generator.users()}
    days = []
    for day, snapshots in enumerate(generator.days()):
        payloads = [
            (clients[s.user], f"{s.user}-d{day}", b"".join(
                chunk_bytes_from_fingerprint(c.fingerprint, c.size) for c in s.chunks))
            for s in snapshots
        ]
        start = time.perf_counter()
        uploads = [client.upload(file_id, data) for client, file_id, data in payloads]
        up_seconds = time.perf_counter() - start
        fetches = container_fetches(system.servers)
        start = time.perf_counter()
        for client, file_id, _data in payloads:
            client.download(file_id)
        down_seconds = time.perf_counter() - start
        days.append({
            "up_s": up_seconds,
            "down_s": down_seconds,
            "bytes": sum(len(data) for _c, _f, data in payloads),
            "new_chunks": sum(u.new_chunks for u in uploads),
            "oprf_evaluations": sum(u.key_oprf_evaluations for u in uploads),
            "key_round_trips": sum(u.key_round_trips for u in uploads),
            "container_fetches": container_fetches(system.servers) - fetches,
        })
    return days


def fig10(seed: int) -> tuple[list[dict], list[dict]]:
    """Per-day upload and download speed of a 7-day trace replay (median
    of ``REPEATS`` replays), with the key-manager and container work."""
    params = dataclasses.replace(FIG10_TRACE, seed=seed)
    replays = [_replay_trace(params) for _ in range(REPEATS)]
    days = replays[-1]
    rows = []
    for day, counts in enumerate(days):
        up = statistics.median(replay[day]["up_s"] for replay in replays)
        down = statistics.median(replay[day]["down_s"] for replay in replays)
        rows.append(row("10", f"day={day} upload", up, {
            key: counts[key]
            for key in ("bytes", "new_chunks", "oprf_evaluations", "key_round_trips")
        }, num_bytes=counts["bytes"]))
        rows.append(row("10", f"day={day} download", down, {
            key: counts[key] for key in ("bytes", "container_fetches")
        }, num_bytes=counts["bytes"]))

    first, later, last = days[0], days[1:], days[-1]
    mean_later_oprf = sum(d["oprf_evaluations"] for d in later) / len(later)
    upload = lambda day: at(rows, f"day={day} upload")["mib_per_s"]
    day1_up = upload(0)
    steady_up = sum(upload(day) for day in range(1, len(days))) / len(later)
    # Fragmentation: day 0 reads roughly the containers it just wrote;
    # later days write little new data (OPRF evaluations count the new
    # chunks) but still fetch the containers of their older chunks.
    first_ratio = first["container_fetches"] / max(1, first["oprf_evaluations"])
    last_ratio = last["container_fetches"] / max(1, last["oprf_evaluations"])
    checks = [
        check("fig10.day1_pays_oprf", first["oprf_evaluations"] > 0,
              f"day 0: {first['oprf_evaluations']} OPRF evaluations"),
        check("fig10.later_days_cached", mean_later_oprf < 0.5 * first["oprf_evaluations"],
              f"days 1-6 mean {mean_later_oprf:.1f} < half of day 0's "
              f"{first['oprf_evaluations']}"),
        check("fig10.steady_upload_faster", steady_up > 1.3 * day1_up,
              f"days 1-6 mean {steady_up:.2f} MiB/s > 1.3 x day 0 {day1_up:.2f} MiB/s"),
        check("fig10.fetches_per_new_chunk_not_falling",
              last["container_fetches"] > 0 and last_ratio >= first_ratio,
              f"container fetches per OPRF evaluation: day 0 {first_ratio:.3f}, "
              f"day {len(days) - 1} {last_ratio:.3f} ({last['container_fetches']} fetches)"),
    ]
    return rows, checks


FIGURES = (fig5a, fig5b, fig6, fig7ab, fig7c, fig8, fig9, fig10)


def run(seed: int) -> dict:
    rows, checks = [], []
    for figure in FIGURES:
        start = time.perf_counter()
        figure_rows, figure_checks = figure(seed)
        rows += figure_rows
        checks += figure_checks
        print(f"{figure.__name__:6s} {len(figure_rows):3d} rows "
              f"{time.perf_counter() - start:6.1f} s", flush=True)
    return {
        "schema": SCHEMA,
        "seed": seed,
        "host": {
            "python": sys.version.split()[0],
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "rows": rows,
        "checks": checks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every input byte stream and trace (same seed, same counts)")
    parser.add_argument("--out", default=os.path.join(REPO_ROOT, "BENCH_figs.json"),
                        help="output JSON path (default: BENCH_figs.json at repo root)")
    args = parser.parse_args(argv)
    report = run(args.seed)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for r in report["rows"]:
        value = f"{r['mib_per_s']:9.2f} MiB/s" if "mib_per_s" in r else (
            f"{r['median_s'] * 1e3:9.1f} ms   ")
        print(f"{r['figure']:>3s} {r['point']:42s} {value}  paper {r['paper'] or '-'}")
    failed = [c for c in report["checks"] if not c["passed"]]
    for c in report["checks"]:
        print(f"{'ok  ' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
