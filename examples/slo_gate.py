"""CI SLO soak gate: drive a mixed workload, gate on per-node p99s.

Boots a real four-data-server :class:`~repro.core.cluster.TcpCluster`
(the paper's Fig. 1 topology at full width), drives a mixed
upload / download / rekey workload through it, then scrapes the JSON
``metrics`` snapshot of **every** node and fails if any gated
histogram's p99 exceeds its latency budget, or if a budget saw no
sample at all (it would gate nothing) — the soak-test complement
of ``examples/metrics_gate.py`` (which checks that the series *exist*;
this gate checks that they are *fast*).

The budgets are deliberately loose for CI hardware (tens to hundreds of
milliseconds for sub-millisecond handlers): the gate exists to catch
order-of-magnitude regressions — an accidental ``O(n²)``, a lock held
across a blocking call, an event-loop stall — not 10% noise.  That the
gate *can* fail is itself tested: ``--inject-delay 0.1`` wraps every
storage handler in a 100 ms sleep, which must push ``storage.*`` p99s
over budget and flip the exit status.

On failure the gate writes the merged distributed-trace trees of the
workload (client spans + per-node handler spans, spliced by
:mod:`repro.obs.propagate`) to ``--trace-out``, and CI uploads that
file as an artifact — the "why was it slow" evidence attached to the
red build.

Run it the way CI does::

    PYTHONPATH=src python examples/slo_gate.py

Exit status 0 means every gated p99 is inside its budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.cluster import TcpCluster  # noqa: E402
from repro.core.policy import FilePolicy  # noqa: E402
from repro.core.rekey import RevocationMode  # noqa: E402
from repro.obs.metrics import default_registry  # noqa: E402
from repro.obs.propagate import dump_tracer  # noqa: E402
from repro.obs.tracing import default_tracer  # noqa: E402
from repro.workloads.synthetic import unique_data  # noqa: E402

#: Per-node handler-latency budgets: ``rpc_handler_seconds{method=...}``
#: p99 ceilings in seconds, applied on every node that served the
#: method.  Wide enough for loaded CI runners, tight enough that a
#: 100 ms injected stall (or a real regression of that size) fails.
#: Every budget must be reached by the soak: a method no node served is
#: a violation, not a pass.
HANDLER_P99_BUDGETS = {
    "storage.put_many": 0.08,
    "storage.get": 0.08,
    "storage.file_commit": 0.05,
    "storage.file_get_many": 0.05,
    "keystore.put_many": 0.05,
    "keystore.get_many": 0.05,
    "km.derive_batch": 0.30,
}

#: Client-side pipeline budgets: ``span_seconds{span=...}`` p99
#: ceilings in seconds on the workload process's own registry.  These
#: cover the full operation (client compute + every RPC round trip);
#: a span with no samples is a violation too.
SPAN_P99_BUDGETS = {
    "upload": 3.0,
    "download": 3.0,
    "rekey": 3.0,
}


def run_workload(cluster: TcpCluster, operations: int, seed: int) -> None:
    """Mixed upload / download / rekey soak against the cluster."""
    alice = cluster.new_client("alice")
    policy = FilePolicy.parse("alice or bob")
    payloads = [
        unique_data(60_000 + 10_000 * (index % 3), seed=seed + index)
        for index in range(operations)
    ]
    for index, payload in enumerate(payloads):
        alice.upload(f"file-{index}", payload, policy=policy)
    for index, payload in enumerate(payloads):
        restored = alice.download(f"file-{index}")
        if restored.data != payload:
            raise AssertionError(f"corrupt download of file-{index}")
    for index in range(operations):
        mode = RevocationMode.ACTIVE if index % 2 else RevocationMode.LAZY
        alice.rekey(f"file-{index}", policy, mode=mode)


def inject_storage_delay(cluster: TcpCluster, seconds: float) -> None:
    """Wrap every data server's handler entry points in a sleep.

    The service closures call methods on the live ``REEDServer``
    instances, so instance-level wrapping slows every storage RPC —
    the synthetic regression the gate must catch.
    """
    for server in cluster.servers:
        for name in (
            "chunk_put_many",
            "chunk_get_batch",
            "chunk_exists_batch",
            "flush",
        ):
            original = getattr(server, name)

            def slowed(*args, _original=original, **kwargs):
                time.sleep(seconds)
                return _original(*args, **kwargs)

            setattr(server, name, slowed)


def _check_series(
    where: str,
    family: str,
    label: str,
    series_list: list[dict],
    budgets: dict[str, float],
    samples: dict[str, int],
) -> list[str]:
    """Budget violations among one snapshot's series; adds each gated
    series' sample count to ``samples``."""
    violations: list[str] = []
    for series in series_list:
        name = series["labels"].get(label, "")
        budget = budgets.get(name)
        if budget is None:
            continue
        samples[name] += series.get("count", 0)
        p99 = series.get("p99")
        if p99 is not None and p99 > budget:
            violations.append(
                f"{where}: {family}{{{label}={name}}} "
                f"p99 {p99 * 1000:.1f} ms > budget {budget * 1000:.1f} ms "
                f"({series['count']} samples)"
            )
    return violations


def _unsampled(family: str, label: str, samples: dict[str, int]) -> list[str]:
    """A budget no sample reached gates nothing: that is a violation."""
    return [
        f"{family}{{{label}={name}}}: no samples, so its budget gates nothing"
        for name, count in samples.items()
        if count == 0
    ]


def check_handler_budgets(cluster: TcpCluster) -> list[str]:
    """Scrape every node's JSON snapshot; return budget violations."""
    violations: list[str] = []
    samples = dict.fromkeys(HANDLER_P99_BUDGETS, 0)
    for node in cluster.node_addresses():
        snapshot = json.loads(cluster.scrape_node(node, fmt="json"))
        family = snapshot.get("rpc_handler_seconds")
        if family:
            violations += _check_series(
                node, "rpc_handler_seconds", "method", family["series"],
                HANDLER_P99_BUDGETS, samples,
            )
    return violations + _unsampled("rpc_handler_seconds", "method", samples)


def check_span_budgets() -> list[str]:
    """Gate the workload process's own pipeline span p99s."""
    snapshot = default_registry().snapshot()
    family = snapshot.get("span_seconds")
    if not family:
        return ["client: span_seconds family missing from default registry"]
    samples = dict.fromkeys(SPAN_P99_BUDGETS, 0)
    violations = _check_series(
        "client", "span_seconds", "span", family["series"],
        SPAN_P99_BUDGETS, samples,
    )
    return violations + _unsampled("span_seconds", "span", samples)


def write_trace_artifact(cluster: TcpCluster, path: str) -> None:
    """Merged distributed traces of the soak — the failure evidence."""
    merged = cluster.merged_traces(include_local=True)
    artifact = {
        "traces": merged,
        "slow": dump_tracer(default_tracer(), node="client")["slow"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--operations",
        type=int,
        default=8,
        help="uploads (and downloads, and rekeys) driven through the cluster",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload data seed")
    parser.add_argument(
        "--inject-delay",
        type=float,
        default=0.0,
        help="synthetic per-storage-RPC stall in seconds (self-test: the "
        "gate must FAIL when this pushes p99 over budget)",
    )
    parser.add_argument(
        "--trace-out",
        default="SLO_traces.json",
        help="merged distributed-trace JSON written on failure",
    )
    args = parser.parse_args(argv)

    with TcpCluster(num_data_servers=4) as cluster:
        if args.inject_delay > 0:
            inject_storage_delay(cluster, args.inject_delay)
        started = time.perf_counter()
        run_workload(cluster, args.operations, args.seed)
        elapsed = time.perf_counter() - started
        print(
            f"soak: {args.operations} uploads + downloads + rekeys over "
            f"{len(cluster.servers)} data servers in {elapsed:.2f} s"
        )
        violations = check_handler_budgets(cluster) + check_span_budgets()
        if violations:
            print(f"SLO gate: FAIL ({len(violations)} violation(s))")
            for violation in violations:
                print(f"  {violation}")
            write_trace_artifact(cluster, args.trace_out)
            print(f"merged traces written to {args.trace_out}")
            return 1
    print("SLO gate: PASS (every gated p99 within budget)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
