"""The batched, windowed rekeying pipeline.

Rekeying is REED's headline operation (Section IV-D): renewing a file's
key costs O(stub), not O(file).  This module closes the round-trip gap
the upload (batched ship) and download (windowed prefetch) pipelines
already closed for data: instead of ~5 RPCs per file, member files move
through the pipeline in windows of ``batch_size`` files, with one batch
RPC per stage per window.

Stages, mirroring the upload pipeline:

1. **fetch** (single worker thread) — ``keystore.get_many`` plus, for
   active revocation, ``recipe_get_many`` and ``stub_get_many``;
2. **open → wind → plan → re-encrypt** (caller thread) — an *opener*
   callback opens every key state of the window in file order; the
   *winder* advances them all one version in one call (the client runs
   windows of :data:`~repro.core.parallel.MIN_PARALLEL_WIND` or more on
   its :class:`~repro.core.parallel.RekeyPool` workers, which hold the
   owner's derivation key); a per-file *planner* callback then seals
   each new record, drawing every random byte **on the caller thread in
   file order**; the pure stub re-encryption then fans out across the
   same pool with caller-drawn nonces.  Winds are deterministic and the
   draw order is the per-file order, so pipelined output is
   bit-identical to the serial path;
3. **ship** (single worker thread) — ``stub_put_many`` →
   ``recipe_put_many`` → ``keystore.put_many``.  Key states commit
   *last*: until they land, the old record still opens the file, and the
   owner's deterministic wind re-derives the same new key on retry.

Up to ``pipeline_depth`` windows are in flight at once (window N+1
fetching while window N re-encrypts and window N−1 ships).  The first
per-item error — in file order within its window — aborts the pipeline
deterministically: a shared abort flag stops every window behind the
failing one from shipping anything.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.parallel import RekeyPool
from repro.keyreg.rsa_keyreg import KeyState
from repro.obs.tracing import Tracer
from repro.storage.keystore import KeyStateRecord

#: Files per pipeline window — one batch RPC per stage per window.
DEFAULT_REKEY_BATCH_SIZE = 64


@dataclass
class FileRekeyPlan:
    """Everything the ship stage needs for one file, planned in order."""

    file_id: str
    new_record: KeyStateRecord
    old_key_version: int
    new_key_version: int
    #: Active-mode fields; ``None`` for lazy revocation.
    stub_file: bytes | None = None
    old_file_key: bytes | None = None
    new_file_key: bytes | None = None
    nonce: bytes | None = None
    updated_recipe: bytes | None = None
    #: Filled by the re-encrypt stage.
    new_stub_file: bytes | None = None
    #: Stub bytes moved for this file (old + new encrypted sizes).
    moved_bytes: int = 0


#: opener(record) -> the file's current key state.  Called on the caller
#: thread in file order; draws no randomness.
Opener = Callable[[KeyStateRecord], KeyState]

#: winder(states) -> each state one version on, in order.
Winder = Callable[[list[KeyState]], list[KeyState]]

#: planner(file_id, record, old_state, new_state, recipe_bytes, stub_file)
#: -> FileRekeyPlan.  ``new_state`` is the state the new record seals:
#: the wound one, or ``old_state`` itself when the pipeline has no
#: winder.  ``recipe_bytes``/``stub_file`` are None for lazy revocation.
#: Called on the caller thread in file order — all rng draws belong here.
Planner = Callable[
    [str, KeyStateRecord, KeyState, KeyState, bytes | None, bytes | None],
    FileRekeyPlan,
]


@dataclass
class RekeyPipelineStats:
    """What one pipeline run did (fed into the caller's result object)."""

    files: int = 0
    batches: int = 0
    stub_bytes: int = 0
    #: ``(file_id, old_version, new_version, moved_bytes)`` per shipped
    #: file, in file order — enough to build per-file results without
    #: retaining the (potentially large) plans themselves.
    shipped: list[tuple[str, int, int, int]] = field(default_factory=list)


def _check_items(results: list) -> None:
    """Raise the first per-item error, in item (= file) order."""
    for status in results:
        if isinstance(status, Exception):
            raise status


class RekeyPipeline:
    """One batched rekey run over a fixed list of file ids.

    The pipeline is policy-agnostic: the *opener* and *planner* decide
    how each key state opens and how its new record is sealed (per-file
    ABE for :meth:`REEDClient.rekey_many`, symmetric group envelopes for
    :meth:`GroupManager.rekey`), so both ride the same fetch/wind/
    re-encrypt/ship machinery.  Without a *winder* the states are
    resealed as they are (lazy group rekeying re-wraps, it never winds
    member files).
    """

    def __init__(
        self,
        storage,
        keystore,
        opener: Opener,
        planner: Planner,
        tracer: Tracer,
        winder: Winder | None = None,
        stub_pool: RekeyPool | None = None,
        active: bool = False,
        batch_size: int = DEFAULT_REKEY_BATCH_SIZE,
        pipeline_depth: int = 2,
    ) -> None:
        self._storage = storage
        self._keystore = keystore
        self._opener = opener
        self._planner = planner
        self._tracer = tracer
        self._winder = winder
        self._stub_pool = stub_pool
        self._active = active
        self._batch_size = max(1, batch_size)
        self._depth = max(1, pipeline_depth)

    # -- stages --------------------------------------------------------------

    def _fetch(self, window: list[str]):
        with self._tracer.span("rekey.fetch", files=len(window)):
            records = self._keystore.get_many(window)
            recipes: list = [None] * len(window)
            stub_files: list = [None] * len(window)
            if self._active:
                recipes = self._storage.recipe_get_many(window)
                stub_files = self._storage.stub_get_many(window)
            return records, recipes, stub_files

    def _transform(
        self, window: list[str], fetched, stats: RekeyPipelineStats
    ) -> list[FileRekeyPlan]:
        records, recipes, stub_files = fetched
        with self._tracer.span("rekey.reencrypt", files=len(window)):
            # Open in file order up to the first file that cannot be
            # fetched or opened.  Its error is raised only after every
            # file before it is planned, so a planning error of an
            # earlier file still wins: the first error in file order.
            old_states: list[KeyState] = []
            failure: Exception | None = None
            for record, recipe, stub_file in zip(records, recipes, stub_files):
                try:
                    for item in (record, recipe, stub_file):
                        if isinstance(item, Exception):
                            raise item
                    old_states.append(self._opener(record))
                except Exception as error:
                    failure = error
                    break
            new_states = old_states
            if self._winder is not None and old_states:
                new_states = self._winder(old_states)
            plans = [
                self._planner(file_id, record, old, new, recipe, stub_file)
                for file_id, record, old, new, recipe, stub_file in zip(
                    window, records, old_states, new_states, recipes, stub_files
                )
            ]
            if failure is not None:
                raise failure
            if self._active:
                items = [
                    (p.stub_file, p.old_file_key, p.new_file_key, p.nonce)
                    for p in plans
                ]
                pool = self._stub_pool
                new_stub_files = pool.reencrypt(items)
                for plan, new_stub_file in zip(plans, new_stub_files):
                    plan.new_stub_file = new_stub_file
                    plan.moved_bytes = len(plan.stub_file) + len(new_stub_file)
                    stats.stub_bytes += plan.moved_bytes
        return plans

    def _ship(
        self,
        plans: list[FileRekeyPlan],
        abort: threading.Event,
        stats: RekeyPipelineStats,
    ) -> None:
        # A window behind a failed one never ships anything — that is
        # what makes the abort deterministic under pipelining.
        if abort.is_set():
            return
        try:
            with self._tracer.span("rekey.ship", files=len(plans)):
                if self._active:
                    _check_items(
                        self._storage.stub_put_many(
                            [(p.file_id, p.new_stub_file) for p in plans]
                        )
                    )
                    _check_items(
                        self._storage.recipe_put_many(
                            [(p.file_id, p.updated_recipe) for p in plans]
                        )
                    )
                # Key states last: a crash before this line leaves every
                # file readable under its old record, and the stub-side
                # recovery (decrypt-under-new-key, wind-forward) converges
                # on retry.
                _check_items(
                    self._keystore.put_many([p.new_record for p in plans])
                )
        except BaseException:
            abort.set()
            raise
        stats.batches += 1
        stats.files += len(plans)
        for plan in plans:
            stats.shipped.append(
                (
                    plan.file_id,
                    plan.old_key_version,
                    plan.new_key_version,
                    plan.moved_bytes,
                )
            )

    # -- run -----------------------------------------------------------------

    def run(self, file_ids: list[str]) -> RekeyPipelineStats:
        stats = RekeyPipelineStats()
        windows = [
            list(file_ids[start : start + self._batch_size])
            for start in range(0, len(file_ids), self._batch_size)
        ]
        if not windows:
            return stats
        abort = threading.Event()
        if self._depth <= 1 or len(windows) == 1:
            for window in windows:
                plans = self._transform(window, self._fetch(window), stats)
                self._ship(plans, abort, stats)
            return stats

        fetch_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="reed-rekey-fetch"
        )
        ship_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="reed-rekey-ship"
        )
        fetching: deque[tuple[list[str], Future]] = deque()
        shipping: deque[Future] = deque()
        pending = iter(windows)

        def submit_fetch() -> None:
            window = next(pending, None)
            if window is not None:
                # copy_context: the worker keeps reporting round trips
                # into this operation's attribution scope.
                context = contextvars.copy_context()
                fetching.append(
                    (window, fetch_executor.submit(context.run, self._fetch, window))
                )

        try:
            for _ in range(max(1, self._depth - 1)):
                submit_fetch()
            while fetching:
                window, future = fetching.popleft()
                fetched = future.result()
                # Refill before transforming so window N+1 fetches while
                # window N re-encrypts and window N−1 ships.
                submit_fetch()
                plans = self._transform(window, fetched, stats)
                while len(shipping) >= self._depth:
                    shipping.popleft().result()
                context = contextvars.copy_context()
                shipping.append(
                    ship_executor.submit(context.run, self._ship, plans, abort, stats)
                )
            while shipping:
                shipping.popleft().result()
        except BaseException:
            # Stop queued-but-unstarted ships; in-flight futures that
            # cannot be cancelled see the abort flag instead.
            abort.set()
            raise
        finally:
            while fetching:
                fetching.popleft()[1].cancel()
            while shipping:
                shipping.popleft().cancel()
            fetch_executor.shutdown(wait=True)
            ship_executor.shutdown(wait=True)
        return stats
