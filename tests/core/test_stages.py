"""The ordered stage worker and the read-ahead generator behind every
client pipeline."""

import contextvars
import threading
import time

import pytest

from repro.core.stages import Stage, read_ahead

NAME = "test-stage"


def _stage_threads():
    return [t for t in threading.enumerate() if t.name.startswith(NAME)]


@pytest.mark.parametrize("name", [NAME, None])
def test_tasks_run_in_submission_order(name):
    ran = []
    with Stage(name, depth=3) as stage:
        futures = [stage.submit(ran.append, index) for index in range(20)]
        stage.drain()
    assert ran == list(range(20))
    assert all(future.done() for future in futures)
    assert _stage_threads() == []


def test_unnamed_stage_runs_on_the_submitting_thread():
    with Stage(None, depth=2) as stage:
        future = stage.submit(threading.current_thread)
        assert future.done()
        assert future.result() is threading.current_thread()


@pytest.mark.parametrize("name", [NAME, None])
def test_tasks_after_a_failure_are_skipped_and_the_first_error_wins(name):
    ran = []
    gate = threading.Event()

    def task(index):
        gate.wait(timeout=10)
        ran.append(index)
        if index >= 2:
            raise ValueError(f"task {index} failed")

    if name is None:
        gate.set()
    errors = []
    with Stage(name, depth=10) as stage:
        futures = []
        for index in range(6):
            try:
                futures.append(stage.submit(task, index))
            except ValueError as error:  # an inline stage reads it at once
                errors.append(str(error))
        gate.set()
        try:
            stage.drain()
        except ValueError as error:
            errors.append(str(error))
        # Every skipped task raises the first error, unrun.
        errors += [str(future.exception(timeout=10)) for future in futures[3:]]
    assert ran == [0, 1, 2]
    assert errors == ["task 2 failed"] * 4


def test_no_more_than_depth_tasks_are_outstanding():
    depth = 3
    lock = threading.Lock()
    finished = 0

    def task():
        nonlocal finished
        time.sleep(0.005)
        with lock:
            finished += 1

    with Stage(NAME, depth=depth) as stage:
        for submitted in range(1, 21):
            stage.submit(task)
            with lock:
                assert submitted - finished <= depth
        stage.drain()
    assert finished == 20


def test_threaded_tasks_see_the_submitters_context():
    var = contextvars.ContextVar("test_stage_var", default="unset")

    def read_and_set():
        seen = var.get()
        var.set("worker")
        return seen

    with Stage(NAME, depth=2) as stage:
        token = var.set("caller")
        try:
            first = stage.submit(read_and_set)
            var.set("caller again")
            second = stage.submit(read_and_set)
            stage.drain()
        finally:
            var.reset(token)
    # Each task runs in a copy taken when it was submitted; nothing it
    # sets leaks to the caller or into the next task.
    assert (first.result(), second.result()) == ("caller", "caller again")
    assert var.get() == "unset"


def test_close_cancels_queued_tasks_and_leaves_no_thread():
    gate = threading.Event()
    ran = []

    def task(index):
        gate.wait(timeout=10)
        ran.append(index)

    stage = Stage(NAME, depth=10)
    futures = [stage.submit(task, index) for index in range(5)]
    while not futures[0].running():
        time.sleep(0.001)
    opener = threading.Timer(0.05, gate.set)
    opener.start()
    stage.close()
    opener.join(timeout=10)
    assert ran == [0]
    assert all(future.cancelled() for future in futures[1:])
    assert _stage_threads() == []


@pytest.mark.parametrize("items", [5, 1])
def test_read_ahead_at_depth_1_fetches_on_demand(items):
    log = []

    def fetch(item):
        log.append(("fetch", item, threading.current_thread().name))
        return item * 10

    for item, fetched in read_ahead(list(range(items)), fetch, 1, NAME):
        assert fetched == item * 10
        log.append(("done", item))
    caller = threading.current_thread().name
    expected = []
    for item in range(items):
        expected += [("fetch", item, caller), ("done", item)]
    assert log == expected


def test_read_ahead_with_one_item_fetches_on_the_caller():
    names = []

    def fetch(item):
        names.append(threading.current_thread().name)
        return item.upper()

    assert list(read_ahead(["only"], fetch, 4, NAME)) == [("only", "ONLY")]
    assert names == [threading.current_thread().name]


def test_read_ahead_yields_in_order_from_its_worker():
    names = set()

    def fetch(item):
        names.add(threading.current_thread().name)
        time.sleep(0.001 * (item % 3))
        return -item

    got = list(read_ahead(list(range(12)), fetch, 3, NAME))
    assert got == [(item, -item) for item in range(12)]
    assert len(names) == 1 and names.pop().startswith(NAME)
    assert _stage_threads() == []


def test_read_ahead_raises_a_fetch_error_where_its_item_would_be():
    def fetch(item):
        if item >= 2:
            raise KeyError(item)
        return item

    consumed = []
    with pytest.raises(KeyError) as raised:
        for item, _fetched in read_ahead(list(range(6)), fetch, 4, NAME):
            consumed.append(item)
    assert raised.value.args == (2,)
    assert consumed == [0, 1]
    assert _stage_threads() == []


def test_closing_read_ahead_early_joins_its_worker():
    fetched = []

    def fetch(item):
        time.sleep(0.01)
        fetched.append(item)
        return item

    reader = read_ahead(list(range(50)), fetch, 3, NAME)
    assert next(reader) == (0, 0)
    assert _stage_threads()
    reader.close()
    assert _stage_threads() == []
    # It fetched no further than its read-ahead allowed.
    assert len(fetched) <= 3
