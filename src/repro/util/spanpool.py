"""A lazily started process pool that maps a batch over contiguous spans.

Chunk transforms, stub re-encryption, blind-RSA signing and
key-regression winds are CPU-bound batches.  The first two are Python
under the GIL; the RSA operations let it go only for their
exponentiations (:mod:`repro.crypto.modexp`).  *Processes* run all of
them concurrently.  They share one shape: a batch of independent items,
a picklable module-level function that handles a contiguous span of
them, and a result that must come back in submission order.  :class:`SpanPool` is that shape, once:

* workers start on first parallel use and are reused until
  :meth:`SpanPool.close` (the pool restarts lazily afterwards);
* a batch is sliced into one span per worker and the futures are read in
  submission order, so the earliest failing item raises first no matter
  how the workers were scheduled;
* everything else runs the caller's in-process function over the whole
  batch: batches that cannot repay the IPC, pools whose processes are
  switched off or cannot start, and the redo of a batch whose worker
  died (OOM kill, signal) — a dead worker poisons the whole executor,
  so the pool stays off processes from then on.  Threads would only take
  turns on the GIL, so there is no third way to run a batch.

Workers are forked where the platform allows it: they inherit warm
module state instead of re-importing everything, and ``spawn`` /
``forkserver`` would re-run an unguarded ``__main__``.  A forked child
also inherits every descriptor the parent had open; a worker that kept
a copy of a listening socket would keep that port bound after the
parent closed it, so workers point their inherited socket descriptors
at ``/dev/null`` when they start, and a starting pool hands out no work
until every worker has answered a roll call from behind that step.
"""

from __future__ import annotations

import multiprocessing
import os
import stat
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.util.errors import ConfigurationError

#: Upper bound on the default worker count: the batch transforms saturate
#: memory bandwidth well before this many cores help.
DEFAULT_WORKER_CAP = 8


def default_worker_count(cap: int = DEFAULT_WORKER_CAP) -> int:
    """``os.cpu_count()`` capped — the default worker count everywhere."""
    return max(1, min(os.cpu_count() or 1, cap))


def _drop_inherited_sockets() -> None:
    """Detach this (worker) process from every socket it inherited.

    The descriptors are redirected rather than closed: socket objects
    copied from the parent still name these numbers, and closing one of
    them later must not hit a descriptor the worker opened since.
    """
    try:
        names = os.listdir("/dev/fd")
    except OSError:  # pragma: no cover - platform without /dev/fd
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in names:
            try:
                fd = int(name)
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except (ValueError, OSError):
                continue  # the listing's own descriptor, already closed
    finally:
        os.close(null)


#: Worker processes only: where a starting pool's workers meet.
_ROLL_CALL = None


def _start_worker(
    roll_call, initializer: Callable[..., None] | None, initargs: tuple
) -> None:
    global _ROLL_CALL
    _drop_inherited_sockets()
    _ROLL_CALL = roll_call
    if initializer is not None:
        initializer(*initargs)


def _answer_roll_call() -> None:
    """Block until every worker of the pool runs this task: a waiting
    worker takes no second task, so each of them has started by then."""
    _ROLL_CALL.wait()


class SpanPool:
    """Maps batches over worker processes, one contiguous span each.

    ``initializer(*initargs)`` runs once in every worker process before
    it takes work — state a worker must hold from start-up (a private
    key) travels there, never per task.
    """

    def __init__(
        self,
        workers: int | None = None,
        use_processes: bool = True,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        if workers is None:
            workers = default_worker_count()
        if workers < 1:
            raise ConfigurationError("need at least one worker")
        self.workers = workers
        #: False keeps every batch in-process; the pool clears it
        #: itself when processes fail.
        self.use_processes = use_processes
        self._initializer = initializer
        self._initargs = initargs
        self._executor: ProcessPoolExecutor | None = None
        self._start_lock = threading.Lock()
        #: Batches that ran on the workers / in-process (for tests/stats).
        self.parallel_batches = 0
        self.serial_batches = 0

    # -- executor lifecycle ------------------------------------------------

    def _start_processes(self) -> ProcessPoolExecutor | None:
        """A process pool whose every worker is up, or ``None``."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        executor = None
        try:
            executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_start_worker,
                initargs=(
                    context.Barrier(self.workers),
                    self._initializer,
                    self._initargs,
                ),
            )
            # A worker is forked holding the parent's sockets and drops
            # them on its own time: nobody gets a result (and goes on to
            # close a listener) before every worker has.
            roll_call = [
                executor.submit(_answer_roll_call) for _ in range(self.workers)
            ]
            for answer in roll_call:
                answer.result()
        except (NotImplementedError, OSError, BrokenProcessPool):
            # No working multiprocessing here, or a worker died starting up.
            if executor is not None:
                executor.shutdown(wait=True)
            return None
        return executor

    def _get_executor(self) -> ProcessPoolExecutor | None:
        """The worker processes, started on first use; ``None`` once
        processes are off."""
        with self._start_lock:
            if self._executor is None and self.use_processes:
                self._executor = self._start_processes()
                self.use_processes = self._executor is not None
            return self._executor

    def close(self) -> None:
        """Reap the worker processes; the pool restarts lazily."""
        with self._start_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- mapping -----------------------------------------------------------

    def map_spans_where(
        self,
        items: list,
        serial: Callable[[list], list],
        task: Callable[..., list],
        *task_args,
        parallel: bool = True,
    ) -> tuple[list, bool]:
        """``serial(items)``, computed span by span on the workers, and
        whether the batch really ran on them.

        Worker processes run ``task(*task_args, span)`` (module-level
        and picklable).  Every other batch runs ``serial(items)`` here:
        ``parallel=False`` (the caller's verdict that the batch is too
        small to repay the hand-off), a one-item batch (nothing to split,
        and the round trip would only add to the caller's wait), a
        one-worker pool, a pool whose processes are off, and the redo of
        a batch whose worker died.
        """
        executor = None
        if parallel and self.workers > 1 and len(items) >= 2:
            executor = self._get_executor()
        if executor is not None:
            size = -(-len(items) // self.workers)
            try:
                futures = [
                    executor.submit(task, *task_args, items[start : start + size])
                    for start in range(0, len(items), size)
                ]
                results = [future.result() for future in futures]
            except BrokenProcessPool:
                with self._start_lock:
                    self.use_processes = False
                    if self._executor is executor:
                        self._executor = None
                executor.shutdown(wait=True)
            else:
                self.parallel_batches += 1
                return [result for batch in results for result in batch], True
        self.serial_batches += 1
        return serial(items), False
