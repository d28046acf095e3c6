"""Tests for the interval daemon behind background repair and compaction."""

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.util.daemon import IntervalDaemon
from repro.util.errors import ConfigurationError, ProtocolError


def failure_counter(registry):
    return registry.counter("pass_failures_total", "Passes that raised.")


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class TestIntervalDaemon:
    def test_rejects_non_positive_interval(self):
        failures = failure_counter(MetricsRegistry())
        for interval in (0, -1.0):
            with pytest.raises(ConfigurationError):
                IntervalDaemon(lambda: None, failures, interval)

    def test_failing_pass_keeps_thread_alive(self):
        """A pass that raises must not kill the thread: the loop bumps the
        caller's counter, records the error and retries next interval."""
        registry = MetricsRegistry()
        calls = []

        def boom():
            calls.append(1)
            raise ProtocolError("node died mid-scan")

        daemon = IntervalDaemon(boom, failure_counter(registry), interval=0.01)
        with daemon:
            assert wait_for(lambda: registry.value("pass_failures_total") >= 2)
            assert daemon._thread.is_alive()
        assert len(calls) >= 2  # the loop outlived the first failure
        assert daemon.last_report is None  # no pass completed
        assert isinstance(daemon.last_error, ProtocolError)
        assert registry.value("pass_failures_total") == len(calls)

    def test_next_good_pass_clears_last_error(self):
        registry = MetricsRegistry()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("pass exploded")
            return "report"

        daemon = IntervalDaemon(flaky, failure_counter(registry), interval=0.01)
        with daemon:
            assert wait_for(lambda: daemon.last_report == "report")
        assert daemon.last_error is None  # cleared by the good pass
        assert daemon.last_report == "report"
        assert registry.value("pass_failures_total") == 1

    def test_run_now_counts_a_pass(self):
        """One ``run_now`` is one pass; the pass counts itself on its own
        series (``gc_passes_total``, ``repair_scans_total``)."""
        report = object()
        passes = MetricsRegistry().counter("passes_total")

        def run_pass():
            passes.inc()
            return report

        daemon = IntervalDaemon(
            run_pass, failure_counter(MetricsRegistry()), interval=30.0
        )
        assert daemon.run_now() is report
        assert passes.value == 1
        assert daemon.last_report is report

    def test_start_and_stop_are_idempotent(self):
        ran = threading.Event()
        daemon = IntervalDaemon(
            ran.set, failure_counter(MetricsRegistry()), interval=0.05
        )
        daemon.stop()  # never started
        daemon.start()
        thread = daemon._thread
        daemon.start()  # second start is a no-op
        assert daemon._thread is thread
        assert ran.wait(10)
        daemon.stop()
        daemon.stop()
        assert not thread.is_alive()
        daemon.start()  # a stopped daemon can start again
        daemon.stop()
