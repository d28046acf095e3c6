"""Experiment A.1 / Figure 5: MLE key generation performance.

Paper setup: a client requests MLE keys for a 2 GB file of unique chunks
from the key manager (1024-bit blind RSA), varying (a) the average chunk
size with batch size 256 and (b) the batch size with 8 KB chunks.

Real measurement here: the same protocol (blind → FDH-sign → unblind →
hash) with the paper's 1024-bit RSA, in process, over a reduced key
count.  The paper's *shape* claims checked against the real run:

* Fig. 5(a): speed grows with chunk size (fewer keys per byte);
* Fig. 5(b): speed grows with batch size and saturates once the key
  manager is compute-bound.
"""

import pytest

from benchmarks.common import mbps, record_series, save_result
from repro.crypto.drbg import HmacDrbg
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import LocalKeyManagerChannel, ServerAidedKeyClient
from repro.sim.figures import PAPER_QUOTED, fig5a, fig5b
from repro.util.units import KiB

#: Keys fetched per measured round (reduced scale).
KEY_COUNT = 64


@pytest.fixture(scope="module")
def manager():
    km = KeyManager(key_bits=1024, rng=HmacDrbg(b"bench-km"))
    yield km
    km.close()  # reap the signer workers


def fingerprints(n, tag):
    return [bytes([tag]) * 16 + i.to_bytes(16, "big") for i in range(n)]


@pytest.mark.parametrize("chunk_kib", [2, 4, 8, 16])
def test_fig5a_keygen_speed_vs_chunk_size(benchmark, manager, chunk_kib):
    """Real OPRF throughput, expressed as MB/s of chunk data covered."""
    client = ServerAidedKeyClient(
        LocalKeyManagerChannel(manager),
        client_id=f"bench-{chunk_kib}",
        batch_size=256,
        rng=HmacDrbg(b"bench"),
    )
    fps = fingerprints(KEY_COUNT, chunk_kib)

    def run():
        return client.derive_keys(fps)

    keys = benchmark(run)
    assert len(keys) == KEY_COUNT
    covered = KEY_COUNT * chunk_kib * KiB
    rate = mbps(covered, benchmark.stats["mean"])
    benchmark.extra_info["data_rate_MBps"] = round(rate, 3)
    benchmark.extra_info["chunk_kib"] = chunk_kib
    save_result(
        "fig5",
        f"real fig5a: chunk={chunk_kib}KB keys={KEY_COUNT} -> {rate:.2f} MB/s-of-data",
    )


@pytest.mark.parametrize("batch_size", [1, 16, 64, 256])
def test_fig5b_keygen_speed_vs_batch_size(benchmark, manager, batch_size):
    client = ServerAidedKeyClient(
        LocalKeyManagerChannel(manager),
        client_id=f"bench-batch-{batch_size}",
        batch_size=batch_size,
        rng=HmacDrbg(b"bench"),
    )
    fps = fingerprints(KEY_COUNT, 99)

    def run():
        return client.derive_keys(fps)

    keys = benchmark(run)
    assert len(keys) == KEY_COUNT
    covered = KEY_COUNT * 8 * KiB
    rate = mbps(covered, benchmark.stats["mean"])
    keys_per_s = KEY_COUNT / benchmark.stats["mean"]
    benchmark.extra_info["data_rate_MBps"] = round(rate, 3)
    benchmark.extra_info["keys_per_s"] = round(keys_per_s)
    benchmark.extra_info["batch_size"] = batch_size
    save_result(
        "fig5",
        f"real fig5b: batch={batch_size} keys={KEY_COUNT} -> {rate:.2f} MB/s-of-data"
        f" ({keys_per_s:.0f} keys/s)",
    )


def test_fig5_model_series(benchmark):
    """Regenerate Fig. 5 at paper scale from the calibrated model."""

    def generate():
        return fig5a() + fig5b()

    series = benchmark(generate)
    record_series(
        "fig5",
        series,
        preamble=(
            "Figure 5 (model, paper scale) — paper quotes: "
            f"{PAPER_QUOTED['fig5a.keygen@16KB']} MB/s @16KB, "
            f"plateau {PAPER_QUOTED['fig5b.plateau@8KB']} MB/s @8KB/batch>=256"
        ),
    )
    assert series[0].y_at(16) == pytest.approx(17.64, rel=0.1)
    assert series[1].y_at(256) == pytest.approx(12.5, rel=0.1)
