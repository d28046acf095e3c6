"""The upload pipeline: chunk → derive → encrypt → store.

An upload has four stages, each with its own bottleneck: chunking
(caller thread), MLE key derivation (a round trip to the key manager
per key window — the OPRF), the chunk transform (CAONT, on the
:class:`~repro.core.parallel.ChunkTransformPool` processes) and the
store RPC.  Run back to back, every stage idles while another works;
here each runs on its own single worker thread, so they overlap while
order — and with it every byte written — stays that of the serial path::

    caller   chunk ─ chunk ─ chunk ─ chunk ─ …
    key            derive(w1) ─ derive(w2) ─ derive(w3) …
    encrypt                  wait·encrypt(w1) ─ wait·encrypt(w2) …
    ship                                       store(b1) ───── store(b2)

* A **key window** closes as soon as the chunker has produced
  ``window`` fingerprints that need an OPRF evaluation (unique within
  their store batch, not in the key cache and not on their way into it
  from an earlier window), or when its store batch ends — the same
  windows, hence the same RPCs, the whole-batch ``derive_keys`` call
  would cut.  The window's chunks form a *segment*, the unit the derive
  and encrypt stages work on.  The file's last segment always ends its
  store batch.
* A **store batch** is ``batch_bytes`` of chunks, as before: its
  segments' packages accumulate and ship as one ``chunk_put_many``.
* One worker per stage keeps each stage's calls in file order: blinding
  factors are drawn, ``refs``/``stubs`` appended and containers filled
  exactly as without the pipeline.
* ``depth`` bounds what is in flight: that many segments between the
  chunker and the encrypt stage, that many batches on the wire.
* Every task first re-raises its predecessor's failure, so after the
  first error nothing behind it does any work, and that error is the
  one the upload raises.

A file that ends inside its first key window and first store batch
never starts a thread: its single segment runs inline on the caller, as
does everything when ``depth`` is 1.
"""

from __future__ import annotations

import contextvars
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor

from repro.chunking.chunker import Chunk
from repro.core.schemes import SplitPackage
from repro.obs.tracing import Tracer
from repro.storage.recipes import ChunkRef

_STAGES = ("key", "encrypt", "ship")
_KEY, _ENCRYPT, _SHIP = range(3)


class _InlineExecutor:
    """Runs a task on the calling thread; the future is done on return."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - re-raised when the result is read
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class UploadPipeline:
    """Runs one upload's chunks through derive, encrypt and store.

    ``derive(fingerprints) -> keys``, ``encrypt(chunks, keys) ->
    packages`` and ``store(payload) -> new chunk count`` are the three
    stage functions; ``key_cache`` (anything supporting ``in``) and
    ``key_window`` size the key windows.  Results accumulate on the
    instance in file order.
    """

    def __init__(
        self,
        derive: Callable[[Sequence[bytes]], list[bytes]],
        encrypt: Callable[[list[Chunk], list[bytes]], list[SplitPackage]],
        store: Callable[[list[tuple[bytes, bytes]]], int],
        tracer: Tracer,
        key_window: int,
        key_cache,
        batch_bytes: int,
        depth: int,
    ) -> None:
        self._derive = derive
        self._encrypt = encrypt
        self._store = store
        self._tracer = tracer
        self._key_window = key_window
        self._key_cache = key_cache
        self._batch_bytes = batch_bytes
        self._depth = depth
        self.refs: list[ChunkRef] = []
        self.stubs: list[bytes] = []
        self.total_size = 0
        self.new_chunks = 0
        self.trimmed_bytes = 0
        self.upload_batches = 0
        self.chunking_seconds = 0.0
        #: One executor per stage once the first segment is submitted.
        self._executors: tuple | None = None
        #: Last future submitted per stage (the next task's predecessor).
        self._last: list[Future | None] = [None, None, None]
        #: Whether the next segment continues the last one's store batch.
        self._mid_batch = False
        self._payload: list[tuple[bytes, bytes]] = []
        self._encrypting: deque[Future] = deque()
        self._storing: deque[Future] = deque()

    # -- caller thread -----------------------------------------------------

    def run(self, chunks: Iterable[Chunk]) -> None:
        """Consume ``chunks``; returns once every batch is stored."""
        try:
            self._feed(iter(chunks))
            while self._encrypting:
                self._encrypting.popleft().result()
            while self._storing:
                self.new_chunks += self._storing.popleft().result()
        finally:
            # Surface the first failure but never leak futures/threads:
            # queued tasks are cancelled, running ones fail fast on
            # their predecessor, and every worker is joined.
            for executor in self._executors or ():
                executor.shutdown(wait=True, cancel_futures=True)
            self._tracer.observe("upload.chunk", self.chunking_seconds)

    def _feed(self, chunker: Iterator[Chunk]) -> None:
        clock = self._tracer.clock
        cache = self._key_cache
        segment: list[Chunk] = []
        #: Fingerprints first seen in this segment, and in this batch.
        fresh: list[bytes] = []
        seen: set[bytes] = set()
        #: Misses of earlier windows: their keys are in the cache by the
        #: time a later window is derived (one key worker, in order), so
        #: they are no misses then — whether or not they are cached *yet*.
        awaited: set[bytes] = set()
        misses = 0
        batch_bytes = 0

        def read() -> Chunk | None:
            started = clock()
            chunk = next(chunker, None)
            self.chunking_seconds += clock() - started
            return chunk

        # One chunk of lookahead: the last segment must close its store
        # batch whatever else closes it, and only a file with more to
        # come is worth starting the stage workers for.
        chunk = read()
        while chunk is not None:
            following = read()
            self.total_size += chunk.size
            segment.append(chunk)
            batch_bytes += chunk.size
            fingerprint = chunk.fingerprint
            if fingerprint not in seen:
                seen.add(fingerprint)
                fresh.append(fingerprint)
                if cache is None:
                    misses += 1
                elif fingerprint not in cache and fingerprint not in awaited:
                    awaited.add(fingerprint)
                    misses += 1
            last = following is None
            batch_end = last or batch_bytes >= self._batch_bytes
            if batch_end or misses >= self._key_window:
                self._submit(segment, fresh, batch_end, more=not last)
                segment, fresh, misses = [], [], 0
                if batch_end:
                    seen = set()
                    batch_bytes = 0
            chunk = following

    def _submit(
        self, segment: list[Chunk], fresh: list[bytes], batch_end: bool, more: bool
    ) -> None:
        if self._executors is None:
            if self._depth > 1 and more:
                self._executors = tuple(
                    ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix=f"reed-upload-{stage}"
                    )
                    for stage in _STAGES
                )
            else:
                self._executors = (_InlineExecutor(),) * len(_STAGES)
        keys = self._stage(_KEY, self._derive_segment, fresh, self._mid_batch)
        self._mid_batch = not batch_end
        self._encrypting.append(
            self._stage(_ENCRYPT, self._encrypt_segment, segment, keys, batch_end)
        )
        # Finished work is read at once (an error must not wait for the
        # pipeline to fill); unfinished work only when the pipeline is full.
        while self._encrypting and (
            self._encrypting[0].done() or len(self._encrypting) > self._depth
        ):
            self._encrypting.popleft().result()

    def _stage(self, stage: int, fn, *args) -> Future:
        """Queue ``fn(previous, *args)`` on ``stage``'s worker.

        ``previous`` is the stage's last future, already done when the
        task starts (one worker per stage).  The task runs in a copy of
        the caller's context, so it keeps reporting into this upload's
        attribution scope and trace.
        """
        future = self._executors[stage].submit(
            contextvars.copy_context().run, fn, self._last[stage], *args
        )
        self._last[stage] = future
        return future

    # -- key worker --------------------------------------------------------

    def _derive_segment(
        self, previous: Future | None, fingerprints: list[bytes], mid_batch: bool
    ) -> dict[bytes, bytes]:
        """Fingerprint → MLE key for the store batch so far."""
        known = previous.result() if previous is not None else {}
        if not mid_batch:
            known = {}
        if not fingerprints:
            return known
        with self._tracer.span("upload.key_derive", chunks=len(fingerprints)):
            keys = self._derive(fingerprints)
        return {**known, **dict(zip(fingerprints, keys))}

    # -- encrypt worker ----------------------------------------------------

    def _encrypt_segment(
        self,
        previous: Future | None,
        chunks: list[Chunk],
        keys: Future,
        batch_end: bool,
    ) -> None:
        if previous is not None:
            previous.result()
        with self._tracer.span("upload.key_wait"):
            key_of = keys.result()
        with self._tracer.span("upload.encrypt", chunks=len(chunks)):
            packages = self._encrypt(
                chunks, [key_of[chunk.fingerprint] for chunk in chunks]
            )
        for chunk, package in zip(chunks, packages):
            self.refs.append(
                ChunkRef(fingerprint=package.fingerprint, length=chunk.size)
            )
            self.stubs.append(package.stub)
            self._payload.append((package.fingerprint, package.trimmed_package))
            self.trimmed_bytes += len(package.trimmed_package)
        if not batch_end:
            return
        self.upload_batches += 1
        while len(self._storing) >= self._depth:
            self.new_chunks += self._storing.popleft().result()
        payload, self._payload = self._payload, []
        self._storing.append(self._stage(_SHIP, self._store_batch, payload))

    # -- ship worker -------------------------------------------------------

    def _store_batch(
        self, previous: Future | None, payload: list[tuple[bytes, bytes]]
    ) -> int:
        if previous is not None:
            previous.result()
        with self._tracer.span("upload.store", chunks=len(payload)):
            return self._store(payload)
