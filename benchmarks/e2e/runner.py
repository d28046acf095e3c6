"""One workload, end to end: passes, set-up samples, result and tables."""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from benchmarks.e2e import OUT_DIR, PROCESS_START, REPO_ROOT, layers, metrics
from benchmarks.e2e.inputs import Sizes
from benchmarks.e2e.record import MEASURE, VERIFY, Recorder
from benchmarks.e2e.replay import replay
from benchmarks.e2e.rig import RIG, Rig
from benchmarks.e2e.tracing import layer_table
from benchmarks.e2e.workloads import WORKLOADS, Workload

#: ``setup_s`` is the median of this many set-ups, each in a fresh
#: interpreter so imports, table builds and pool spawns are paid again.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


@dataclass
class Pass:
    """What one run of set-up → measured phase → verification produced."""

    rec: Recorder
    #: Timings are seconds at reference host speed (see
    #: :mod:`benchmarks.e2e.hostspeed`); ``*_raw_s`` is the wall clock.
    setup_s: float
    setup_raw_s: float
    wall_s: float = 0.0
    wall_raw_s: float = 0.0
    stored_bytes: int = 0
    live_bytes: int = 0
    layer_values: dict | None = None


def run_pass(
    name: str,
    seed: int,
    sizes: Sizes,
    trace: bool,
    started: float,
    setup_only: bool = False,
) -> Pass:
    """Run ``name`` once on a fresh cluster.

    ``started`` is when this pass's set-up began — the process start for
    the first pass of a process, so that imports count.
    """
    rec = Recorder(trace)
    with contextlib.ExitStack() as stack:
        stack.callback(rec.host.stop)
        rec.host.start()
        workload: Workload = WORKLOADS[name](seed, sizes)
        rig = Rig(name, seed, rec)
        stack.callback(rig.close)
        workload.setup(rig, rec)
        set_up = time.perf_counter()
        if setup_only:
            rec.host.stop()
            return Pass(
                rec=rec,
                setup_s=rec.host.normalised(started, set_up),
                setup_raw_s=set_up - started,
            )
        before = rig.snapshot() if trace else None
        rec.phase = MEASURE
        begun = time.perf_counter()
        workload.measure(rig, rec)
        ended = time.perf_counter()
        rec.host.stop()
        rec.normalise()
        result = Pass(
            rec=rec,
            setup_s=rec.host.normalised(started, set_up),
            setup_raw_s=set_up - started,
            wall_s=rec.host.normalised(begun, ended),
            wall_raw_s=ended - begun,
        )
        rec.phase = VERIFY
        after = rig.snapshot() if trace else None
        workload.verify(rig, rec)
        for index, report in enumerate(rig.fsck_all()):
            rec.check(
                f"fsck:storage-{index}",
                report.clean,
                f"{len(report.corrupt)} corrupt, "
                f"{len(report.orphaned_containers)} orphaned, "
                f"{len(report.missing_containers)} missing",
            )
        result.stored_bytes = rig.stored_bytes()
        result.live_bytes = sum(file.size for file in workload.live_files())
        if trace:
            result.layer_values = {
                **layers.from_spans(rec.log.spans(), rec, result.wall_raw_s),
                **layers.from_series(before, after, rig, rec),
                **replay(workload, rig, rec),
            }
        return result


def sizes_for(seconds: float, smoke: bool) -> Sizes:
    return Sizes.tiny() if smoke else Sizes.for_seconds(seconds)


def _child_setup_seconds(
    name: str, seed: int, seconds: float, smoke: bool
) -> tuple[float, float]:
    """One more set-up sample ``(raw, normalised)`` from a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e",
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--setup-only", *(["--smoke"] if smoke else []),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return float(line["setup_raw_s"]), float(line["setup_s"])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """The full result of one workload: end-to-end metrics from an
    untraced pass and, under ``trace``, per-layer metrics from a second,
    traced pass on a fresh cluster."""
    sizes = sizes_for(seconds, smoke)
    plain = run_pass(name, seed, sizes, trace=False, started=PROCESS_START)
    # Read memory before anything else inflates it.
    end_to_end = metrics.end_to_end(
        name, plain.rec, plain.setup_s, plain.wall_s, plain.stored_bytes, plain.live_bytes
    )
    samples = [(plain.setup_raw_s, plain.setup_s)] + [
        _child_setup_seconds(name, seed, seconds, smoke) for _ in range(SETUP_SAMPLES - 1)
    ]
    end_to_end["setup_s"]["value"] = statistics.median(norm for _, norm in samples)
    end_to_end["setup_s"]["n"] = len(samples)
    failures = plain.rec.failures()
    attempted = plain.rec.attempted
    result = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "counts": WORKLOADS[name].counts(sizes),
        "rig": RIG,
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in samples),
            "wall_s": plain.wall_raw_s,
            "host_slowdown": plain.wall_raw_s / plain.wall_s,
            "host_speed_samples": plain.rec.host.samples,
        },
        "end_to_end": end_to_end,
        "per_layer": None,
        "layer_table": None,
    }
    if trace:
        traced = run_pass(name, seed, sizes, trace=True, started=time.perf_counter())
        values = dict(traced.layer_values)
        values["obs.trace_overhead_share"] = (traced.wall_s - plain.wall_s) / plain.wall_s
        result["per_layer"] = layers.report(values, WORKLOADS[name].exact_counts)
        # Spans are wall-clock, so their shares are of the wall-clock phase.
        result["layer_table"] = layer_table(traced.rec.log.spans(), traced.wall_raw_s)
        result["traced_wall_s"] = traced.wall_raw_s
        os.makedirs(OUT_DIR, exist_ok=True)
        traced.rec.log.write(
            os.path.join(OUT_DIR, f"trace-{name}.json"),
            {"workload": name, "seed": seed, "seconds": seconds, "wall_s": traced.wall_raw_s},
        )
        failures += traced.rec.failures()
        attempted += traced.rec.attempted
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures
    result["correct"] = not failures
    # Both passes answer for correctness; the share is over both.
    end_to_end["failed_ops_share"]["value"] = len(failures) / attempted
    end_to_end["failed_ops_share"]["n"] = attempted
    return result


# -- output -------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        if abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  seconds={result['seconds']}")
    print(f"   why: {result['why']}")
    print(f"   counts: {json.dumps(result['counts'])}")
    print(f"   {'end-to-end metric':<34}{'value':>14}  {'unit':<8}{'n':>6}  bound")
    for metric in metrics.END_TO_END:
        entry = result["end_to_end"][metric.name]
        n = "" if entry["n"] is None else entry["n"]
        print(
            f"   {metric.name:<34}{_fmt(entry['value']):>14}  {entry['unit']:<8}{n:>6}"
            f"  {metric.bound:.0%} {metric.better}"
        )
    raw = result["raw"]
    print(
        f"   timings are at reference host speed; wall clock: setup {raw['setup_s']:.4f} s, "
        f"measured phase {raw['wall_s']:.4f} s (host slowdown {raw['host_slowdown']:.3f}, "
        f"{raw['host_speed_samples']} samples)"
    )
    if result["per_layer"] is not None:
        wall = result["traced_wall_s"]
        print(f"   traced pass: wall {wall:.4f} s; proxied calls by layer")
        print(f"   {'layer':<34}{'busy s':>14}  {'share of wall':>14}{'calls':>8}")
        for group, busy, share, calls in result["layer_table"]:
            print(f"   {group:<34}{busy:>14.4f}  {share:>14.1%}{calls:>8}")
        print(f"   {'per-layer metric':<44}{'value':>14}  {'unit':<7}{'src':<4}exact")
        for layer in layers.PER_LAYER:
            entry = result["per_layer"][layer.name]
            print(
                f"   {layer.name:<44}{_fmt(entry['value']):>14}  {entry['unit']:<7}"
                f"{entry['source']:<4}{'exact' if entry['exact'] else ''}"
            )
        overhead = result["per_layer"]["obs.trace_overhead_share"]["value"]
        if overhead > layers.MAX_TRACE_OVERHEAD:
            print(
                f"   !! tracing overhead {overhead:.1%} exceeds "
                f"{layers.MAX_TRACE_OVERHEAD:.0%}: per-layer numbers unreliable"
            )
    print(
        f"   attempted {result['attempted']}, failed {result['failed']}"
        f"{'' if result['correct'] else '  <-- INCORRECT'}"
    )
    for failure in result["failures"][:20]:
        print(f"   !! {failure}")


def write_result(result: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"run-{result['workload']}-seed{result['seed']}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)


def contract_line(result: dict, trace: bool) -> str:
    """The last line of standard output the driver reads: the metrics
    ``BENCHMARK.json`` names for this mode, and nothing else."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    source = result["per_layer"] if trace else result["end_to_end"]
    out = {}
    for entry in declared:
        value = source[entry["name"]]["value"]
        if value is None:
            if not trace:
                raise ValueError(
                    f"{entry['name']} is not measured on {result['workload']}"
                )
            # A ratio with an empty base on this workload.
            value = 0.0
        if not math.isfinite(value):
            raise ValueError(f"{entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": out,
        }
    )
