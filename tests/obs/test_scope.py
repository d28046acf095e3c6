"""Attribution-scope tests: per-operation counter deltas that survive
concurrency (the fix for upload counter cross-contamination)."""

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import scope as obs_scope


def test_add_outside_scope_is_noop():
    obs_scope.add("orphan", 5)  # must not raise
    assert obs_scope.current() is None


def test_scope_collects_deltas():
    with obs_scope.attribution() as scope:
        obs_scope.add("key_round_trips")
        obs_scope.add("key_round_trips")
        obs_scope.add("bytes", 100.5)
    assert scope.get_int("key_round_trips") == 2
    assert scope.get("bytes") == 100.5
    assert scope.get("missing") == 0.0
    assert scope.counts() == {"key_round_trips": 2.0, "bytes": 100.5}


def test_nested_scopes_propagate_to_parent():
    with obs_scope.attribution() as outer:
        obs_scope.add("n", 1)
        with obs_scope.attribution() as inner:
            obs_scope.add("n", 10)
        obs_scope.add("n", 100)
    assert inner.get("n") == 10.0
    assert outer.get("n") == 111.0


def test_scope_restored_after_exit():
    with obs_scope.attribution() as outer:
        with obs_scope.attribution():
            pass
        assert obs_scope.current() is outer
    assert obs_scope.current() is None


def test_copy_context_carries_scope_across_threads():
    """The upload pipeline's pattern: executor work keeps attribution."""
    with obs_scope.attribution() as scope:
        context = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(context.run, obs_scope.add, "store_round_trips").result()
    assert scope.get_int("store_round_trips") == 1


def test_plain_thread_does_not_inherit_scope():
    """Without copy_context a new thread has no active scope."""
    observed = {}

    def worker() -> None:
        observed["scope"] = obs_scope.current()

    with obs_scope.attribution():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert observed["scope"] is None


def test_concurrent_operations_do_not_cross_contaminate():
    """Two 'uploads' on different threads each see only their own adds —
    the exact failure mode of the old before/after counter diffing."""
    results = {}
    barrier = threading.Barrier(2)

    def operation(name: str, amount: int) -> None:
        with obs_scope.attribution() as scope:
            barrier.wait()  # both scopes active simultaneously
            for _ in range(amount):
                obs_scope.add("work")
            barrier.wait()
            results[name] = scope.get_int("work")

    threads = [
        threading.Thread(target=operation, args=("a", 300)),
        threading.Thread(target=operation, args=("b", 7)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == {"a": 300, "b": 7}


def test_threaded_adds_into_shared_scope_are_exact():
    """Many workers under one scope (pipelined stages): totals exact."""
    with obs_scope.attribution() as scope:

        def bump() -> None:
            for _ in range(1_000):
                obs_scope.add("n")

        # One context per submit: a Context cannot be entered by two
        # threads at once.
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, bump) for _ in range(4)
            ]
            for future in futures:
                future.result()
    assert scope.get_int("n") == 4_000
