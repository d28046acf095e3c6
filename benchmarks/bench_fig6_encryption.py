"""Experiment A.2 / Figure 6: chunk encryption performance.

Paper setup: encrypt 2 GB of unique chunks into trimmed packages + stubs
with two worker threads, varying the average chunk size; basic vs
enhanced.  Claims: throughput grows with chunk size; basic is ~24 %
faster than enhanced at 8 KB (the extra MLE encryption pass).

Real measurement: same pipeline over 4 MB of unique chunks with the
SHAKE-256 cipher every client runs (see DESIGN.md §3 — the paper's
prototype used OpenSSL AES-256; the *ratio* and the chunk-size slope are
the reproducible shape).
"""

import pytest

from benchmarks.common import mbps, record_series, save_result
from repro.chunking.chunker import ChunkingSpec, chunk_stream
from repro.core.schemes import get_scheme
from repro.crypto.hashing import sha256
from repro.sim.figures import PAPER_QUOTED, fig6
from repro.util.units import KiB, MiB
from repro.workloads.synthetic import unique_data

DATA_BYTES = 4 * MiB


@pytest.fixture(scope="module")
def corpus():
    """Pre-chunked unique data keyed by chunk size, with MLE keys."""
    out = {}
    data = unique_data(DATA_BYTES, seed=6)
    for chunk_kib in (2, 4, 8, 16):
        spec = ChunkingSpec(method="fixed", avg_size=chunk_kib * KiB)
        chunks = [c.data for c in chunk_stream(data, spec)]
        keys = [sha256(b"mle" + c[:32]) for c in chunks]
        out[chunk_kib] = (chunks, keys)
    return out


@pytest.mark.parametrize("chunk_kib", [2, 4, 8, 16])
@pytest.mark.parametrize("scheme_name", ["basic", "enhanced"])
def test_fig6_encryption_speed(benchmark, corpus, scheme_name, chunk_kib):
    scheme = get_scheme(scheme_name)
    chunks, keys = corpus[chunk_kib]

    def encrypt_all():
        for chunk, key in zip(chunks, keys):
            scheme.encrypt_chunk(chunk, key)

    benchmark(encrypt_all)
    rate = mbps(DATA_BYTES, benchmark.stats["mean"])
    benchmark.extra_info["rate_MBps"] = round(rate, 2)
    save_result(
        "fig6",
        f"real fig6: scheme={scheme_name} chunk={chunk_kib}KB -> {rate:.1f} MB/s",
    )


#: Interleaved timing rounds of the shape check; each scheme keeps its
#: best round, so a load spike during one round cannot flip the ratio.
SHAPE_ROUNDS = 9


def test_fig6_real_shape_basic_faster(corpus):
    """Shape check on the real implementation: basic beats enhanced."""
    import time

    chunks, keys = corpus[8]
    schemes = {name: get_scheme(name) for name in ("basic", "enhanced")}
    best = {name: float("inf") for name in schemes}
    for _round in range(SHAPE_ROUNDS):
        for name, scheme in schemes.items():
            start = time.perf_counter()
            for chunk, key in zip(chunks, keys):
                scheme.encrypt_chunk(chunk, key)
            best[name] = min(best[name], time.perf_counter() - start)
    rates = {name: DATA_BYTES / seconds for name, seconds in best.items()}
    assert rates["basic"] > rates["enhanced"]
    ratio = rates["basic"] / rates["enhanced"]
    save_result("fig6", f"real fig6: basic/enhanced ratio @8KB = {ratio:.2f} (paper 1.24)")
    # The paper measures 1.24x: with AES-NI the extra deterministic
    # encryption pass of the enhanced scheme is cheap relative to the
    # hashing.  With SHAKE-256 a keystream pass costs about as much as a
    # SHA-256 pass, so the expected ratio is closer to 2x (enhanced ~=
    # two keystream passes + two hashes + a fold vs one + one).  The
    # *direction* (basic faster, gap shrinks as the cipher gets faster)
    # is the reproducible shape.
    assert 1.05 <= ratio <= 2.6


def test_fig6_model_series(benchmark):
    series = benchmark(fig6)
    record_series(
        "fig6",
        series,
        preamble=(
            "Figure 6 (model, paper scale) — paper quotes: basic "
            f"{PAPER_QUOTED['fig6.basic@8KB']} MB/s, enhanced "
            f"{PAPER_QUOTED['fig6.enhanced@8KB']} MB/s @8KB"
        ),
    )
    basic = next(s for s in series if s.label == "basic")
    enhanced = next(s for s in series if s.label == "enhanced")
    assert basic.y_at(8) == pytest.approx(203, rel=0.05)
    assert enhanced.y_at(8) == pytest.approx(155, rel=0.05)
