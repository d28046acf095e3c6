"""Unit tests for the metrics primitives (repro.obs.metrics).

Covers single-child semantics, labeled families, registry get-or-create
conflict rules, snapshots — and the concurrency contract: N threads
hammering one labeled counter and histogram must produce exact totals.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
)
from repro.util.errors import ConfigurationError


def test_counter_monotonic():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ConfigurationError):
        counter.inc(-1)


def test_gauge_up_down():
    gauge = Gauge()
    gauge.set(10)
    gauge.inc(5)
    gauge.dec(2)
    assert gauge.value == 13.0


def test_histogram_buckets_and_stats():
    hist = Histogram(buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.5, 1.7, 3.0, 99.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["buckets"] == {1.0: 1, 2.0: 2, 5.0: 1}  # 99.0 -> +Inf only
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(105.7)
    assert hist.minimum == 0.5
    assert hist.maximum == 99.0
    assert hist.mean == pytest.approx(105.7 / 5)


def test_histogram_empty_stats_are_none():
    hist = Histogram()
    assert hist.minimum is None
    assert hist.maximum is None
    assert hist.mean is None


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ConfigurationError):
        Histogram(buckets=(2.0, 1.0))
    with pytest.raises(ConfigurationError):
        Histogram(buckets=())


def test_unlabeled_family_delegates():
    registry = MetricsRegistry()
    requests = registry.counter("requests_total", "Requests.")
    requests.inc(3)
    assert requests.value == 3.0
    assert registry.value("requests_total") == 3.0


def test_labeled_family_children():
    registry = MetricsRegistry()
    family = registry.counter("rpc_total", "RPCs.", labelnames=("method",))
    family.labels(method="a").inc()
    family.labels(method="a").inc()
    family.labels(method="b").inc(7)
    assert family.labels(method="a").value == 2.0
    assert registry.value("rpc_total", method="b") == 7.0
    # Wrong label set is a configuration error, not a silent new series.
    with pytest.raises(ConfigurationError):
        family.labels(wrong="x")
    with pytest.raises(ConfigurationError):
        family.inc()  # labeled family has no sole child


def test_registry_get_or_create_conflicts():
    registry = MetricsRegistry()
    registry.counter("metric_a", "first", labelnames=("x",))
    # Same name + kind + labels: returns the same family.
    again = registry.counter("metric_a", "ignored help", labelnames=("x",))
    assert again is registry.get("metric_a")
    with pytest.raises(ConfigurationError):
        registry.gauge("metric_a")  # kind conflict
    with pytest.raises(ConfigurationError):
        registry.counter("metric_a", labelnames=("y",))  # label conflict


def test_registry_value_of_missing_metric_is_zero():
    registry = MetricsRegistry()
    assert registry.value("nope") == 0.0
    registry.counter("present", labelnames=("x",))
    assert registry.value("present", wrong="label") == 0.0


def test_registry_value_without_labels_sums_a_labeled_family():
    registry = MetricsRegistry()
    family = registry.counter("rpc_total", labelnames=("method",))
    assert registry.value("rpc_total") == 0.0
    family.labels(method="a").inc(2)
    family.labels(method="b").inc(5)
    assert registry.value("rpc_total") == 7.0
    assert registry.value("rpc_total", method="a") == 2.0


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c_total", "help!", labelnames=("k",)).labels(k="v").inc()
    registry.histogram("h_seconds").observe(0.25)
    snap = registry.snapshot()
    assert snap["c_total"]["kind"] == "counter"
    assert snap["c_total"]["series"] == [{"labels": {"k": "v"}, "value": 1.0}]
    hist = snap["h_seconds"]["series"][0]
    assert hist["count"] == 1
    assert hist["sum"] == 0.25
    assert hist["min"] == hist["max"] == 0.25


def test_default_registry_reset():
    first = default_registry()
    first.counter("tmp_total").inc()
    fresh = reset_default_registry()
    assert fresh is default_registry()
    assert fresh is not first
    assert fresh.value("tmp_total") == 0.0


def test_default_latency_buckets_sorted():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


def test_concurrent_hammer_exact_totals():
    """N threads × M increments on shared labeled children: totals exact."""
    registry = MetricsRegistry()
    counter = registry.counter("hammer_total", labelnames=("worker",))
    hist = registry.histogram(
        "hammer_seconds", labelnames=("worker",), buckets=(0.5, 1.0)
    )
    gauge = registry.gauge("hammer_gauge")
    threads, iterations = 8, 2_000

    def work(index: int) -> None:
        # Half the threads share one label; the rest get their own.
        label = "shared" if index % 2 == 0 else f"w{index}"
        for _ in range(iterations):
            counter.labels(worker=label).inc()
            hist.labels(worker=label).observe(0.25)
            gauge.inc()
            gauge.dec()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(threads)))

    total = sum(child.value for child in counter.children().values())
    assert total == threads * iterations
    assert counter.labels(worker="shared").value == (threads // 2) * iterations
    hist_total = sum(child.count for child in hist.children().values())
    assert hist_total == threads * iterations
    shared_snap = hist.labels(worker="shared").snapshot()
    assert shared_snap["buckets"][0.5] == (threads // 2) * iterations
    assert gauge.value == 0.0


def test_concurrent_child_creation_single_instance():
    """Racing .labels() calls for a new key must converge on one child."""
    registry = MetricsRegistry()
    family = registry.counter("race_total", labelnames=("k",))
    barrier = threading.Barrier(8)
    children = []

    def create() -> None:
        barrier.wait()
        children.append(family.labels(k="same"))

    threads = [threading.Thread(target=create) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(child is children[0] for child in children)


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        hist = Histogram(buckets=(1.0, 2.0))
        assert hist.quantile(0.5) is None
        snap = hist.snapshot()
        assert snap["p50"] is None and snap["p95"] is None and snap["p99"] is None

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(0.5)
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)
        with pytest.raises(ConfigurationError):
            hist.quantile(-0.1)

    def test_interpolation_within_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        # 100 observations spread evenly through (1, 2].
        for index in range(100):
            hist.observe(1.0 + (index + 1) / 100)
        p50 = hist.quantile(0.5)
        # Rank 50 of 100 falls midway through the (1, 2] bucket.
        assert 1.4 <= p50 <= 1.6
        assert hist.quantile(0.0) == 1.01  # clamped to the observed min
        assert hist.quantile(1.0) == 2.0   # clamped to the observed max

    def test_quantiles_clamped_to_observed_range(self):
        hist = Histogram(buckets=(10.0, 100.0))
        hist.observe(3.0)
        hist.observe(4.0)
        # Interpolation inside the wide (0, 10] bucket would estimate
        # ~5 and ~10; the min/max clamp keeps estimates inside [3, 4].
        assert 3.0 <= hist.quantile(0.5) <= 4.0
        assert hist.quantile(0.99) <= 4.0

    def test_overflow_bucket_quantile_is_observed_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(50.0)
        hist.observe(70.0)
        assert hist.quantile(0.99) == 70.0

    def test_quantiles_are_monotone_in_q(self):
        hist = Histogram(buckets=DEFAULT_LATENCY_BUCKETS)
        for value in (0.0005, 0.002, 0.004, 0.02, 0.3, 1.5, 12.0):
            hist.observe(value)
        quantiles = [hist.quantile(q) for q in (0.1, 0.25, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_snapshot_carries_quantiles(self):
        hist = Histogram(buckets=(1.0, 2.0))
        for value in (0.5, 0.6, 1.5):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["p50"] == hist.quantile(0.5)
        assert snap["p99"] == hist.quantile(0.99)
        assert snap["min"] == 0.5 and snap["max"] == 1.5
