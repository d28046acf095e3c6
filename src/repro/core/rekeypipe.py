"""The rekeying pipeline: the one engine behind every rekey.

Rekeying is REED's headline operation (Section IV-D): renewing a file's
key costs O(stub), not O(file).  Every rekey — a single file
(:meth:`REEDClient.rekey`, :meth:`REEDClient.revoke_users`), a fleet of
files (:meth:`REEDClient.rekey_many`) and a group's member files
(:meth:`GroupManager.rekey`) — runs through :class:`RekeyPipeline`:
member files move through it in windows of ``batch_size`` files, with
one batch RPC per stage per window.  A single-file rekey is one window.

Stages, mirroring the upload pipeline:

1. **fetch** (:func:`~repro.core.stages.read_ahead`, on the
   ``reed-rekey-fetch`` worker) — ``keystore.get_many`` (skipped when
   the caller already holds the records) plus, for active revocation,
   one ``file_get_many`` (stub file and recipe per file);
2. **open → wind → plan → re-encrypt** (caller thread) — an *opener*
   callback opens every key state of the window in file order; the
   *winder* advances them all one version in one call; a per-file
   *planner* callback then seals each new record and, in active mode,
   draws its stub nonce, every random byte **on the caller thread in
   file order**; then each stub file is re-encrypted with its pre-drawn
   nonce.  The client writes the one planner
   (:meth:`REEDClient._rekey_files`), with two seal steps: a per-file
   run seals each record as the next item of the run's one CP-ABE
   header, and a group run seals each member in a group envelope under
   the new group key.  Winds are deterministic and the draw order is the per-file
   order, so the output does not depend on the window size or the
   pipeline depth.  All of it runs in the client's process: a wind is
   about 0.13 ms and a stub file of a few KiB about 20 µs, too little
   to repay a hand-off to worker processes (docs/PERFORMANCE.md,
   *Rekeys in the client's process*), and the owner's derivation key
   never leaves the process;
3. **ship** (a :class:`~repro.core.stages.Stage`, the
   ``reed-rekey-ship`` worker) — ``file_commit`` (stub file and recipe
   per file) → ``keystore.put_many``.  Key states commit *last*:
   until they land, the old record still opens the file, and the
   owner's deterministic wind re-derives the same new key on retry.

Up to ``pipeline_depth`` windows are in flight at once (window N+1
fetching while window N re-encrypts and window N−1 ships); at depth 1,
or with one window, everything runs on the caller thread.  The stored
state after a failure does not depend on the depth either.  The first
per-item error — in file order within its window — fails its window
before anything of that window ships; every window before it still
ships, as it does at depth 1, and none after it does.  A failed ship
makes the ship stage skip every later window, and because it comes
first in file order its error is the one the run raises.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import closing
from dataclasses import dataclass, field

from repro.core.stages import Stage, read_ahead
from repro.core.stubs import reencrypt_stub_file
from repro.keyreg.rsa_keyreg import KeyState
from repro.obs.tracing import Tracer
from repro.storage.keystore import KeyStateRecord
from repro.util.errors import IntegrityError

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


def check_items(results: list) -> list:
    """Raise the first per-item error, in item (= file) order; else
    return ``results``."""
    for status in results:
        if isinstance(status, Exception):
            raise status
    return results


def _reencrypt_stub(plan: FileRekeyPlan) -> bytes:
    """The plan's stub file under its new file key, with its nonce.

    If the old key no longer opens the stub file, the new key is tried:
    an interrupted earlier rekey may have shipped this stub file already
    (key state commits last), and the owner's deterministic wind
    re-derives the very same new key on retry.
    """
    try:
        return reencrypt_stub_file(
            plan.old_file_key, plan.new_file_key, plan.stub_file, nonce=plan.nonce
        )
    except IntegrityError:
        if plan.new_file_key == plan.old_file_key:
            raise
        return reencrypt_stub_file(
            plan.new_file_key, plan.new_file_key, plan.stub_file, nonce=plan.nonce
        )


class RekeyPipeline:
    """One batched rekey run over a fixed list of file ids.

    The pipeline is policy-agnostic: the *opener* and *planner* decide
    how each key state opens and how its new record is sealed.  Without
    a *winder* the states are resealed as they are (lazy group rekeying
    re-wraps, it never winds member files).
    """

    def __init__(
        self,
        storage,
        keystore,
        opener: Opener,
        planner: Planner,
        tracer: Tracer,
        winder: Winder | None = None,
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
        self._active = active
        self._batch_size = max(1, batch_size)
        self._depth = max(1, pipeline_depth)

    # -- stages --------------------------------------------------------------

    def _fetch(self, item: tuple[list[str], list | None]):
        window, records = item
        with self._tracer.span("rekey.fetch", files=len(window)):
            if records is None:
                records = self._keystore.get_many(window)
            files: list = [(None, None)] * len(window)
            if self._active:
                files = self._storage.file_get_many(window)
            return records, files

    def _transform(
        self, window: list[str], fetched, stats: RekeyPipelineStats
    ) -> list[FileRekeyPlan]:
        records, files = fetched
        with self._tracer.span("rekey.reencrypt", files=len(window)):
            # Open in file order up to the first file that cannot be
            # fetched or opened.  Its error is raised only after every
            # file before it is planned, so a planning error of an
            # earlier file still wins: the first error in file order.
            old_states: list[KeyState] = []
            failure: Exception | None = None
            for record, stored in zip(records, files):
                try:
                    for item in (record, stored):
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
                self._planner(file_id, record, old, new, stored[1], stored[0])
                for file_id, record, old, new, stored in zip(
                    window, records, old_states, new_states, files
                )
            ]
            if failure is not None:
                raise failure
            if self._active:
                for plan in plans:
                    plan.new_stub_file = _reencrypt_stub(plan)
                    plan.moved_bytes = len(plan.stub_file) + len(plan.new_stub_file)
                    stats.stub_bytes += plan.moved_bytes
        return plans

    def _ship(self, plans: list[FileRekeyPlan], stats: RekeyPipelineStats) -> None:
        with self._tracer.span("rekey.ship", files=len(plans)):
            if self._active:
                check_items(
                    self._storage.file_commit(
                        [(p.file_id, p.new_stub_file, p.updated_recipe) for p in plans]
                    )
                )
            # Key states last: a crash before this line leaves every
            # file readable under its old record, and the stub-side
            # recovery (decrypt-under-new-key, wind-forward) converges
            # on retry.
            check_items(self._keystore.put_many([p.new_record for p in plans]))
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

    def run(
        self, file_ids: list[str], records: list[KeyStateRecord] | None = None
    ) -> RekeyPipelineStats:
        """Rekey ``file_ids``; ``records`` (one per file, in order) are
        their current key-state records when the caller already read
        them, so the fetch stage skips its ``keystore.get_many``."""
        stats = RekeyPipelineStats()
        size = self._batch_size
        windows = [
            (
                list(file_ids[start : start + size]),
                None if records is None else list(records[start : start + size]),
            )
            for start in range(0, len(file_ids), size)
        ]
        if not windows:
            return stats
        threaded = self._depth > 1 and len(windows) > 1
        with Stage(
            "reed-rekey-ship" if threaded else None, self._depth
        ) as ship, closing(
            read_ahead(windows, self._fetch, self._depth, "reed-rekey-fetch")
        ) as fetched:
            try:
                for (window, _known), window_fetched in fetched:
                    plans = self._transform(window, window_fetched, stats)
                    ship.submit(self._ship, plans, stats)
            finally:
                # Also after a fetch or transform error: the windows before
                # the failing one ship, as at depth 1, and an earlier
                # ship's error wins (it comes first in file order).
                ship.drain()
        return stats
