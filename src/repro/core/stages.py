"""Ordered stage workers: the one engine under upload, restore and rekey.

REED's client overlaps chunking, key generation, encryption and
transfer (Section V-B).  Each pipeline runs its steps on :class:`Stage`
workers, and reads ahead with :func:`read_ahead`; docs/ARCHITECTURE.md
("Pipeline stages") states the contract every pipeline relies on.
"""

from __future__ import annotations

import contextvars
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import islice


class Stage:
    """One ordered worker.

    With a ``name``, tasks run one at a time in submission order on one
    thread named with that prefix, each in a copy of the submitter's
    :mod:`contextvars` context.  Without one, each task runs on the
    submitting thread and its future is done when :meth:`submit`
    returns.  After a task fails, every later task is skipped and raises
    that first error.
    """

    def __init__(self, name: str | None, depth: int) -> None:
        self._depth = depth
        self._executor = (
            None
            if name is None
            else ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)
        )
        self._outstanding: deque[Future] = deque()
        self._error: BaseException | None = None

    def __enter__(self) -> Stage:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, fn: Callable, *args) -> Future:
        """Queue ``fn(*args)``.  Reads finished tasks at once, oldest
        first, and blocks while more than ``depth`` are outstanding."""
        if self._executor is None:
            future: Future = Future()
            try:
                future.set_result(self._run(fn, args))
            except BaseException as error:  # noqa: BLE001 - raised when read, below
                future.set_exception(error)
        else:
            future = self._executor.submit(
                contextvars.copy_context().run, self._run, fn, args
            )
        outstanding = self._outstanding
        outstanding.append(future)
        while outstanding and (
            outstanding[0].done() or len(outstanding) > self._depth
        ):
            outstanding.popleft().result()
        return future

    def _run(self, fn: Callable, args: tuple):
        if self._error is not None:
            raise self._error
        try:
            return fn(*args)
        except BaseException as error:
            self._error = error
            raise

    def drain(self) -> None:
        """Read every outstanding task in order; raises the first failure."""
        while self._outstanding:
            self._outstanding.popleft().result()

    def close(self) -> None:
        """Cancel queued tasks and join the worker thread."""
        self._outstanding.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)


def _attempt(fetch: Callable, item) -> tuple:
    """``(fetch(item), None)``, or ``(None, error)`` if it raised."""
    try:
        return fetch(item), None
    except Exception as error:  # noqa: BLE001 - re-raised in item order
        return None, error


_END = object()


def read_ahead(
    items: Sequence, fetch: Callable, depth: int, name: str
) -> Iterator[tuple]:
    """Yield ``(item, fetch(item))`` for each item, in order.

    Up to ``depth − 1`` fetches run ahead of the consumer on a stage
    named ``name``.  A fetch error is raised where its item would have
    been yielded, never earlier, so the consumer finishes every item
    before it, as at depth 1.  At depth 1, or with one item, each fetch
    runs on the consumer's thread when the consumer asks for the item.
    Closing the generator joins its worker.
    """
    if depth <= 1 or len(items) <= 1:
        for item in items:
            yield item, fetch(item)
        return
    with Stage(name, depth - 1) as stage:
        source = iter(items)
        ahead = deque(
            (item, stage.submit(_attempt, fetch, item))
            for item in islice(source, depth - 1)
        )
        while ahead:
            item, future = ahead.popleft()
            result, error = future.result()
            if error is not None:
                raise error
            following = next(source, _END)
            if following is not _END:
                ahead.append((following, stage.submit(_attempt, fetch, following)))
            yield item, result
