"""Hot-path benchmark: the per-chunk and per-key compute kernels.

Measures the two kernels every upload runs on each chunk —

* **chunking** — Rabin content-defined chunking, per engine
  (``reference`` / ``numpy``), and the numpy engine at the client's
  spec (``chunking/numpy-client``: 2/8/16 KiB sizes, 1 MiB feeds, a
  2 MiB input, as a ``backup_generations`` upload chunks);
* **caont** — the CAONT chunk transform (enhanced scheme) under
  ``E``, OpenSSL's AES-256-CTR: chunk by chunk (``caont/aes256ctr``,
  the Fig. 3 reference) and a window at a time through the scheme's
  window engine, which the client runs (``caont/aes256ctr-window`` and
  ``caont/aes256ctr-window-decrypt``) —

and the RSA operations under every OPRF evaluation and key-regression
step, on a 1024-bit three-prime key (the key manager's size):

* **rsa/private** — ``x^d mod n`` through the CRT (a signature, a wind);
* **rsa/public** — ``x^e mod n`` (a blinding factor, a check, an unwind),

each in µs per operation on the running engine
(:func:`repro.crypto.modexp.engine`) next to ``pow``, its reference —

and writes machine-readable ``BENCH_hotpath.json`` at the repo root.
End-to-end operations over a real ``TcpCluster`` are measured by the
claims benchmark (``python -m benchmarks.e2e``) and the paper's figures
(``benchmarks/bench_figs.py``).  Run it directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick] [--out PATH]

``--quick`` shrinks the inputs so the whole run takes seconds (used by
the tier-1 smoke test); a full-size run is dominated by the reference
chunker.

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
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

from benchmarks.common import mib_per_s, seed_rng  # noqa: E402
from repro.chunking import rabin  # noqa: E402
from repro.obs.expo import parse_prometheus, render_prometheus  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402

SCHEMA = "reed-bench-hotpath/12"

#: Every timed repeat lands in ``bench_seconds{bench=...}`` here, so the
#: numbers the report prints are the same ones a scrape would export.
BENCH_METRICS = MetricsRegistry()

#: Wide bucket spread: benchmark repeats range from sub-millisecond
#: (quick CAONT runs) to minutes (full reference chunking).
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


def bench_chunking(data: bytes, repeats: int) -> list[dict]:
    results = []
    for engine in rabin.ENGINES:
        def run(engine=engine):
            chunks = rabin.rabin_chunks(
                data, min_size=512, max_size=4096, avg_size=1024, engine=engine
            )
            for _ in chunks:
                pass

        results.append(_throughput(f"chunking/{engine}", data, run, repeats))
    return results


#: The client's input for ``chunking/numpy-client``: one file version of
#: ``backup_generations``, fed in the client's 1 MiB blocks.
CLIENT_INPUT_BYTES = 2 * 1024 * 1024


def bench_client_chunking(data: bytes, repeats: int) -> dict:
    """The numpy engine at the client's chunking spec (the paper's
    2/8/16 KiB sizes; a byte string is fed in 1 MiB blocks)."""

    def run():
        for _ in rabin.rabin_chunks(data):
            pass

    return _throughput("chunking/numpy-client", data, run, repeats)


def _throughput(name: str, data: bytes, run, repeats: int) -> dict:
    seconds = _time(run, repeats, name)
    return {
        "name": name,
        "bytes": len(data),
        "seconds": seconds,
        "mib_per_s": mib_per_s(len(data), seconds),
    }


def bench_caont(chunk_size: int, chunk_count: int, repeats: int, seed: int) -> list[dict]:
    """CAONT transform under AES-256-CTR, per chunk (``caont/aes256ctr``)
    and per window, both ways (``caont/aes256ctr-window*``).

    The window rows first check that the engine's output equals the
    per-chunk path's, chunk for chunk.
    """
    from repro.core.schemes import get_scheme

    rng = seed_rng("bench-caont", seed)
    chunks = [rng.random_bytes(chunk_size) for _ in range(chunk_count)]
    keys = [rng.random_bytes(32) for _ in range(chunk_count)]
    scheme = get_scheme("enhanced")
    total = chunk_size * chunk_count

    packages = [scheme.encrypt_chunk(chunk, key) for chunk, key in zip(chunks, keys)]
    trimmed = [package.trimmed_package for package in packages]
    stubs = [package.stub for package in packages]
    if scheme.encrypt_chunks(chunks, keys) != packages:
        raise AssertionError("caont/aes256ctr-window: the engine disagrees per chunk")
    if scheme.decrypt_chunks(trimmed, stubs) != chunks:
        raise AssertionError("caont/aes256ctr-window-decrypt: the engine disagrees")

    def run():
        for chunk, key in zip(chunks, keys):
            scheme.encrypt_chunk(chunk, key)

    rows = []
    for name, fn in (
        ("caont/aes256ctr", run),
        ("caont/aes256ctr-window", lambda: scheme.encrypt_chunks(chunks, keys)),
        ("caont/aes256ctr-window-decrypt", lambda: scheme.decrypt_chunks(trimmed, stubs)),
    ):
        seconds = _time(fn, repeats, name)
        rows.append(
            {
                "name": name,
                "bytes": total,
                "seconds": seconds,
                "mib_per_s": mib_per_s(total, seconds),
            }
        )
    return rows


def bench_rsa(private_ops: int, public_ops: int, repeats: int, seed: int) -> list[dict]:
    """µs per RSA operation, engine against ``pow`` (``rsa/*``).

    The reference runs the very CRT recombination of
    :meth:`RSAPrivateKey.apply <repro.crypto.rsa.RSAPrivateKey.apply>`
    with ``pow`` for each prime's exponentiation; both sides must agree
    on every value.
    """
    from repro.crypto import modexp
    from repro.crypto.rsa import generate_keypair

    key = generate_keypair(1024, rng=seed_rng("bench-rsa", seed))
    draw = seed_rng("bench-rsa-values", seed).randint_below
    values = [draw(key.n) for _ in range(64)]
    first, first_power, steps = key._crt

    def reference_private(x: int) -> int:
        m = pow(x % first, first_power.exponent, first)
        for prime, power, coefficient, prefix in steps:
            m += prefix * ((pow(x % prime, power.exponent, prime) - m) * coefficient % prime)
        return m

    def reference_public(x: int) -> int:
        return pow(x, key.e, key.n)

    rows = []
    for name, engine, reference, operations in (
        ("rsa/private", key.apply, reference_private, private_ops),
        ("rsa/public", key.public.apply, reference_public, public_ops),
    ):
        inputs = [values[index % len(values)] for index in range(operations)]
        if [engine(x) for x in values] != [reference(x) for x in values]:
            raise AssertionError(f"{name}: the engine disagrees with pow")
        seconds = _time(lambda: [engine(x) for x in inputs], repeats, name)
        reference_seconds = _time(
            lambda: [reference(x) for x in inputs], repeats, f"{name}/reference"
        )
        rows.append(
            {
                "name": name,
                "engine": modexp.engine(),
                "operations": operations,
                "seconds": seconds,
                "us_per_op": seconds / operations * 1e6,
                "reference_us_per_op": reference_seconds / operations * 1e6,
            }
        )
    return rows


def compute_speedups(results: list[dict]) -> dict[str, float]:
    """The numpy chunker's, the window engine's and the RSA engine's
    speedups over their references."""
    by_name = {r["name"]: r for r in results}
    ref, fast = by_name["chunking/reference"], by_name["chunking/numpy"]
    speedups = {"chunking": round(ref["seconds"] / fast["seconds"], 2)}
    per_chunk, window = by_name["caont/aes256ctr"], by_name["caont/aes256ctr-window"]
    speedups["caont/window"] = round(per_chunk["seconds"] / window["seconds"], 2)
    for name in ("rsa/private", "rsa/public"):
        row = by_name[name]
        speedups[name] = round(row["reference_us_per_op"] / row["us_per_op"], 2)
    return speedups


def run(quick: bool, seed: int = 0) -> dict:
    global BENCH_METRICS
    BENCH_METRICS = MetricsRegistry()  # each run reports only its own repeats
    rng = seed_rng("bench-hotpath", seed)
    if quick:
        chunk_data = rng.random_bytes(96 * 1024)
        caont = (4096, 4)
        rsa = (16, 64)
        repeats = 1
    else:
        chunk_data = rng.random_bytes(4 * 1024 * 1024)
        caont = (8192, 64)
        rsa = (256, 2048)
        repeats = 3
    results = (
        bench_chunking(chunk_data, repeats)
        + [bench_client_chunking(rng.random_bytes(CLIENT_INPUT_BYTES), repeats)]
        + bench_caont(*caont, repeats, seed)
        + bench_rsa(*rsa, repeats, seed)
    )
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
    count is positive and whose sum covers the reported seconds.
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
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_hotpath.json"),
        help="output JSON path (default: BENCH_hotpath.json at repo root)",
    )
    args = parser.parse_args(argv)
    report = run(quick=args.quick or args.smoke, seed=args.seed)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for result in report["results"]:
        if "us_per_op" in result:
            print(
                f"{result['name']:30s} {result['us_per_op']:10.1f} us/op "
                f"({result['engine']}; pow {result['reference_us_per_op']:.1f} us/op)"
            )
        else:
            print(f"{result['name']:30s} {result['mib_per_s']:10.2f} MiB/s")
    print("speedups:", report["speedups"])
    if args.smoke:
        check_metrics_snapshot(report)
        print("metrics snapshot: well-formed")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
