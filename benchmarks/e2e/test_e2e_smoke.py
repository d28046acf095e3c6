"""Self-test of the claims benchmark.

Run as ``pytest benchmarks/e2e`` (not part of tier-1's ``testpaths``).
Executes all four workloads at tiny counts, traced, and checks that every
metric the benchmark names is present, finite and correctly united, that
``BENCHMARK.json`` agrees with the definitions here, and that a corrupted
restore trips the oracle.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import pytest

from repro.core.client import REEDClient

from benchmarks.e2e import (
    REPO_ROOT,
    compare,
    hostspeed,
    inputs,
    layers,
    metrics,
    runner,
    tracing,
)
from benchmarks.e2e.inputs import WORKLOADS, Sizes
from benchmarks.e2e.workloads import WORKLOADS as WORKLOAD_CLASSES


@pytest.fixture(scope="module", params=WORKLOADS)
def result(request) -> dict:
    return runner.run_workload(request.param, seed=7, seconds=1, trace=True, smoke=True)


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_workload_is_correct_and_every_metric_is_reported(result):
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in metrics.END_TO_END:
        entry = result["end_to_end"][metric.name]
        assert entry["unit"] == metric.unit
        if result["workload"] not in metric.workloads:
            assert entry["value"] is None, metric.name
            continue
        assert math.isfinite(entry["value"]), metric.name
        if metric.name == "failed_ops_share":
            assert entry["value"] == 0
        else:
            assert entry["value"] > 0, metric.name
    assert result["end_to_end"]["setup_s"]["n"] == runner.SETUP_SAMPLES
    # Timings are stated at reference host speed from the spinners' samples.
    raw = result["raw"]
    assert raw["host_speed_samples"] > 0
    assert raw["wall_s"] / result["end_to_end"]["wall_s"]["value"] == pytest.approx(
        raw["host_slowdown"]
    )
    assert set(result["per_layer"]) == {layer.name for layer in layers.PER_LAYER}
    for layer in layers.PER_LAYER:
        entry = result["per_layer"][layer.name]
        assert entry["unit"] == layer.unit
        assert entry["value"] is None or math.isfinite(entry["value"]), layer.name
        assert entry["exact"] == (layer.exact and result["workload"] != "small_files_mixed")


def test_layers_separate_as_predicted(result):
    per_layer = {name: entry["value"] for name, entry in result["per_layer"].items()}
    workload = result["workload"]
    assert per_layer["core.system.degraded_writes"] == 0
    assert per_layer["core.system.read_fallbacks"] == 0
    assert per_layer["net.retries"] == 0
    assert (per_layer["storage.gc.bytes_reclaimed"] > 0) == (workload == "backup_generations")
    if workload == "rekey_storm":
        assert per_layer["mle.oprf_evaluations"] == 0
        assert per_layer["core.system.chunk_put_busy_s"] == 0
        assert per_layer["core.system.store_round_trips_lazy_rekey"] == 0
    if workload == "backup_unique":
        assert per_layer["mle.key_cache_hit_ratio"] == 0
    if workload == "backup_generations":
        assert per_layer["mle.key_cache_hit_ratio"] > 0.5


def test_contract_lines_carry_exactly_the_declared_metrics(result, declared):
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(runner.contract_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [entry["name"] for entry in declared[group]]
        for entry in declared[group]:
            reported = line["metrics"][entry["name"]]
            assert reported["unit"] == entry["unit"]
            assert math.isfinite(reported["value"])


def test_benchmark_json_agrees_with_the_definitions(declared):
    assert [entry["name"] for entry in declared["workloads"]] == list(WORKLOADS)
    for entry in declared["workloads"]:
        assert entry["why"] == WORKLOAD_CLASSES[entry["name"]].why
    assert declared["run_seconds"] == inputs.REFERENCE_SECONDS
    for entry in declared["end_to_end"]:
        metric = metrics.END_TO_END_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound,
        )
        # The driver wants a number from every workload.
        assert metric.workloads == WORKLOADS
    for entry in declared["per_layer"]:
        layer = layers.PER_LAYER_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"]) == (layer.unit, layer.better)


def test_corrupted_restore_trips_the_oracle(monkeypatch):
    genuine = REEDClient.download

    def corrupted(self, file_id, *args, **kwargs):
        result = genuine(self, file_id, *args, **kwargs)
        flipped = bytes([result.data[0] ^ 1]) + result.data[1:]
        return dataclasses.replace(result, data=flipped)

    monkeypatch.setattr(REEDClient, "download", corrupted)
    done = runner.run_pass(
        "backup_unique", 7, Sizes.tiny(), trace=False, started=time.perf_counter()
    )
    failures = done.rec.failures()
    assert failures and all("restored bytes differ" in failure for failure in failures)
    reported = metrics.end_to_end(
        "backup_unique", done.rec, done.setup_s, done.wall_s, done.stored_bytes, done.live_bytes
    )
    assert reported["failed_ops_share"]["value"] > 0


def test_host_speed_normalises_piece_by_piece():
    host = hostspeed.HostSpeed()
    assert host.normalised(0.0, 3.0) == pytest.approx(3.0)  # no sample: wall clock
    unit = hostspeed.REFERENCE_UNIT_S
    # Reference speed for the first two seconds, half speed after.
    host._times = [0.25 * index for index in range(16)]
    host._costs = [unit if time < 2.0 else 2 * unit for time in host._times]
    assert host.slowdown(0.5, 1.0) == pytest.approx(1.0)
    assert host.slowdown(3.0, 3.5) == pytest.approx(2.0)
    assert host.slowdown(50.0, 51.0) == pytest.approx(2.0)  # nearest sample
    assert host.normalised(0.5, 1.5) == pytest.approx(1.0)
    assert host.normalised(2.5, 3.5) == pytest.approx(0.5)
    assert 2.5 < host.normalised(0.0, 4.0) < 3.5


def test_spinners_report_and_are_gone_after_stop():
    host = hostspeed.HostSpeed()
    host.start()
    spinners = list(host._spinners)
    assert len(spinners) == len(os.sched_getaffinity(0))
    time.sleep(0.3)
    host.stop()
    assert all(spinner.poll() is not None for spinner in spinners)
    assert host.samples > 0 and 0.5 < host.slowdown(0.0, time.perf_counter()) < 4.0
    host.stop()  # idempotent


def test_small_files_mix_is_exact():
    sizes = Sizes.for_seconds(inputs.REFERENCE_SECONDS)
    for seed in (3, 4):
        for plan in inputs.small_files_inputs(seed, sizes).clients:
            kinds = [op.kind for op in plan.ops]
            assert [kinds.count(kind) for kind, _ in inputs.SMALL_MIX] == [110, 88, 22]


def test_inputs_come_from_the_seed_alone():
    sizes = Sizes.tiny()
    assert inputs.small_files_inputs(3, sizes) == inputs.small_files_inputs(3, sizes)
    assert inputs.small_files_inputs(3, sizes) != inputs.small_files_inputs(4, sizes)
    plan = inputs.small_files_inputs(3, sizes).clients[0]
    live = {file.file_id for file in plan.live}
    assert live.isdisjoint(plan.deleted)
    first, second = inputs.backup_generations_inputs(3, sizes).generations[:2]
    assert first.sha256 != second.sha256 and first.size == second.size


def test_additivity_check_catches_overlapping_spans():
    def span(span_id, parent, start, end):
        return tracing.Span(span_id, parent, 1, "core.system", "flush", start, end, thread=1)

    root = span(1, None, 0.0, 1.0)
    clean = tracing.op_breakdown(root, [span(2, 1, 0.1, 0.3), span(3, 1, 0.5, 0.9)])
    assert clean.blocked == pytest.approx(0.6) and clean.other == pytest.approx(0.4)
    assert tracing.additivity_error(clean) == pytest.approx(0.0)
    nested = tracing.op_breakdown(root, [span(2, 1, 0.1, 0.6), span(3, 1, 0.2, 0.5)])
    assert tracing.additivity_error(nested) > layers.ADDITIVITY_TOLERANCE


def test_compare_verdicts():
    lower = metrics.END_TO_END_BY_NAME["download_p50_ms"]
    higher = metrics.END_TO_END_BY_NAME["upload_mibps"]
    assert compare.judge(lower, [10.0], [10.5])[1] == "ok"
    assert compare.judge(lower, [10.0], [11.5])[1] == "regressed"
    assert compare.judge(higher, [10.0], [8.5])[1] == "regressed"
    assert compare.judge(higher, [10.0], [11.5])[1] == "ok"
    assert compare.judge(lower, [10.0, 12.0], [10.0, 10.1])[1] == "unresolved"
    assert compare.judge(metrics.END_TO_END_BY_NAME["failed_ops_share"], [0.0], [0.01])[1] == (
        "regressed"
    )
