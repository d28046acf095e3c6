"""Tests for the shared span pool: paths, fallbacks, worker hygiene."""

import multiprocessing
import os
import signal
import socket
import time

import pytest

from repro.util.errors import ConfigurationError
from repro.util.spanpool import SpanPool, default_worker_count

_HELD = None


def _hold(value):
    global _HELD
    _HELD = value


def _held_plus_span(span):
    return [_HELD + item for item in span]


def _pid_span(span):
    return [os.getpid() for _ in span]


def _double(span):
    return [2 * item for item in span]


class TestPaths:
    def test_default_worker_count_positive_and_capped(self):
        assert 1 <= default_worker_count() <= 8
        assert default_worker_count(cap=1) == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            SpanPool(workers=0)

    @pytest.mark.parametrize(
        "workers, items, use_processes",
        [(1, [1, 2, 3], True), (2, [1], True), (2, [1, 2, 3], False)],
    )
    def test_in_process_paths_never_start_workers(self, workers, items, use_processes):
        pool = SpanPool(workers=workers, use_processes=use_processes)
        got = pool.map_spans_where(items, _double, _double)
        assert got == (_double(items), False)
        assert (pool.serial_batches, pool.parallel_batches) == (1, 0)
        assert pool._executor is None

    def test_processes_match_serial_in_order(self):
        items = list(range(11))
        with SpanPool(workers=3) as pool:
            assert pool.map_spans_where(items, _double, _double)[0] == _double(items)
            pids, on_processes = pool.map_spans_where(items, _pid_span, _pid_span)
            assert on_processes and pool.parallel_batches == 2
        assert os.getpid() not in pids
        # One contiguous span per worker: pids change at most twice.
        assert sum(a != b for a, b in zip(pids, pids[1:])) <= 2

    def test_in_process_when_processes_are_off(self):
        with SpanPool(workers=2, use_processes=False) as pool:
            pids, on_processes = pool.map_spans_where([1, 2, 3, 4], _pid_span, _pid_span)
            assert pids == [os.getpid()] * 4
            assert on_processes is False and pool.parallel_batches == 0
            assert pool._executor is None

    def test_initializer_state_is_held_from_start_up(self):
        with SpanPool(workers=2, initializer=_hold, initargs=(100,)) as pool:
            assert pool.map_spans_where([1, 2, 3, 4], _double, _held_plus_span)[0] == [
                101, 102, 103, 104,
            ]
        assert _HELD is None  # the parent never ran the initializer

    def test_restarts_after_close(self):
        pool = SpanPool(workers=2)
        first = pool.map_spans_where([1, 2, 3, 4], _double, _double)[0]
        pool.close()
        pool.close()
        assert pool._executor is None
        assert pool.map_spans_where([1, 2, 3, 4], _double, _double)[0] == first
        pool.close()

    def test_earliest_failing_span_raises_first(self):
        def serial(span):
            raise AssertionError("not used on the process path")

        with SpanPool(workers=2) as pool:
            with pytest.raises(ZeroDivisionError):
                pool.map_spans_where([0, 1, 2, 3], serial, _reciprocal_span)


def _reciprocal_span(span):
    return [1 // item for item in span]


class TestWorkerHygiene:
    def test_workers_hold_none_of_the_parents_sockets(self):
        """A live worker must not keep a closed listener's port bound."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        with SpanPool(workers=2) as pool:
            # Forks both workers; whichever serves the batch, neither may
            # still be on its way to dropping the listener afterwards.
            pool.map_spans_where([1, 2, 3, 4], _double, _double)
            listener.close()
            again = socket.socket()
            try:
                again.bind(("127.0.0.1", port))  # EADDRINUSE if a worker held it
            finally:
                again.close()
            # The workers still work after losing their inherited sockets.
            assert pool.map_spans_where([5, 6], _double, _double)[0] == [10, 12]

    def test_killed_worker_redoes_the_batch_in_process(self):
        pool = SpanPool(workers=2)
        pids = set(pool.map_spans_where([1, 2, 3, 4], _pid_span, _pid_span)[0])
        os.kill(next(iter(pids)), signal.SIGKILL)
        # Until the executor has noticed, the surviving worker may still
        # serve a whole batch; the redo is what happens once it has.
        deadline = time.monotonic() + 30
        while not pool._executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.map_spans_where([1, 2, 3, 4], _double, _double) == (
            [2, 4, 6, 8],
            False,
        )
        assert (pool.parallel_batches, pool.serial_batches) == (1, 1)
        # A dead worker poisons the executor: the pool stays off processes.
        assert pool.use_processes is False
        assert pool.map_spans_where([1, 2], _pid_span, _pid_span)[0] == [os.getpid()] * 2
        pool.close()
        assert pids.isdisjoint(child.pid for child in multiprocessing.active_children())

    def test_in_process_after_a_killed_worker(self):
        """The batch that finds a worker dead and every batch after it
        run in the caller's process, whole."""
        pool = SpanPool(workers=2)
        executor = pool._get_executor()
        os.kill(next(iter(executor._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        for _ in range(2):
            pids, on_processes = pool.map_spans_where([1, 2, 3, 4], _pid_span, _pid_span)
            assert pids == [os.getpid()] * 4
            assert on_processes is False and pool.parallel_batches == 0
        assert pool._executor is None and pool.serial_batches == 2
        pool.close()
