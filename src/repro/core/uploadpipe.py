"""The upload pipeline: chunk → blind → derive → encrypt → store.

An upload has five steps, each with its own bottleneck: chunking
(caller thread), blinding a key window's fingerprints (client CPU), the
rest of the OPRF — a round trip to the key manager per window, then
unblinding and verifying — the chunk transform (CAONT on OpenSSL's
AES-256-CTR, a segment at a time through the scheme's window engine,
:meth:`~repro.core.schemes.EncryptionScheme.encrypt_chunks`) and the
store RPC.  Run back to back, every step idles while another works;
here each step after chunking runs on its own single worker thread, so
they overlap while order — and with it every byte written — stays that
of the serial path::

    caller   chunk ─ chunk ─ chunk ─ chunk ─ …
    key            blind(w1) ─ blind(w2) ─ blind(w3) …
    derive                   derive(w1) ─── derive(w2) ─── derive(w3) …
    encrypt                              wait·encrypt(w1) ─ wait·encrypt(w2) …
    ship                                                  store(b1) ───── store(b2)

* A **key window** closes as soon as the chunker has produced
  ``window`` fingerprints that need an OPRF evaluation (unique within
  their store batch, not in the key cache and not on their way into it
  from an earlier window), or when its store batch ends — the same
  windows, hence the same RPCs, the whole-batch ``derive_keys`` call
  would cut.  The window's chunks form a *segment*, the unit the key,
  derive and encrypt stages work on.  The file's last segment always
  ends its store batch.
* The key stage blinds window k+1 while the derive stage has window k
  at the key manager.  The derive stage sends a window only after it
  has verified the one before, so nothing behind a forged response
  reaches the key manager; a fingerprint an earlier window is still
  deriving is looked up in the key cache there, in window order, as it
  is without the pipeline.
* A **store batch** is ``batch_bytes`` of chunks, as before: its
  segments' packages accumulate and ship as one ``chunk_put_many``.
  The file's last batch ships with ``last`` set, so the store stage can
  fold the upload's flush into it.
* Each stage is a :class:`~repro.core.stages.Stage`, one ordered
  worker, which keeps its calls in file order: blinding factors are
  drawn, ``refs``/``stubs`` appended and containers filled exactly as
  without the pipeline.  After a task fails, the stage skips every later
  task, so nothing behind the first error does any work, and that error
  is the one the upload raises.
* ``depth`` bounds what is in flight: that many segments per stage
  between the chunker and the encrypt stage, that many batches on the
  wire.

A file that ends inside its first key window and first store batch
never starts a thread: its single segment runs inline on the caller, as
does everything when ``depth`` is 1.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from concurrent.futures import Future

from repro.chunking.chunker import Chunk
from repro.core.schemes import SplitPackage
from repro.core.stages import Stage
from repro.mle.server_aided import PendingKeys
from repro.obs.tracing import Tracer
from repro.storage.recipes import ChunkRef

_STAGES = ("key", "derive", "encrypt", "ship")


class UploadPipeline:
    """Runs one upload's chunks through blind, derive, encrypt and store.

    ``blind(fingerprints, awaited) -> pending``, ``finish(pending) ->
    keys``, ``encrypt(chunks, keys) -> packages`` and ``store(payload,
    last) -> new chunk count`` are the four stage functions (``last``
    marks the file's final batch); ``key_cache`` (anything supporting
    ``in``) and ``key_window`` size the key windows.  Results accumulate
    on the instance in file order.
    """

    def __init__(
        self,
        blind: Callable[[Sequence[bytes], Collection[bytes]], PendingKeys],
        finish: Callable[[PendingKeys], list[bytes]],
        encrypt: Callable[[list[Chunk], list[bytes]], list[SplitPackage]],
        store: Callable[[list[tuple[bytes, bytes]], bool], int],
        tracer: Tracer,
        key_window: int,
        key_cache,
        batch_bytes: int,
        depth: int,
    ) -> None:
        self._blind = blind
        self._finish = finish
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
        #: The key, derive, encrypt and ship stages, once the first
        #: segment closes.
        self._stages: tuple[Stage, Stage, Stage, Stage] | None = None
        #: Whether the next segment continues the last one's store batch.
        self._mid_batch = False
        #: Fingerprint -> MLE key for the derive stage's running store batch.
        self._keys: dict[bytes, bytes] = {}
        self._payload: list[tuple[bytes, bytes]] = []

    # -- caller thread -----------------------------------------------------

    def run(self, chunks: Iterable[Chunk]) -> None:
        """Consume ``chunks``; returns once every batch is stored."""
        try:
            self._feed(iter(chunks))
            if self._stages is not None:
                # Every key is read by its encrypt task.
                _key, _derive, encrypt, ship = self._stages
                encrypt.drain()
                ship.drain()
        finally:
            # Upstream first: the key worker submits to the derive stage,
            # the encrypt worker to the ship stage.
            for stage in self._stages or ():
                stage.close()

    def _feed(self, chunker: Iterator[Chunk]) -> None:
        clock = self._tracer.clock
        cache = self._key_cache
        segment: list[Chunk] = []
        #: Fingerprints first seen in this segment, and in this batch.
        fresh: list[bytes] = []
        seen: set[bytes] = set()
        #: Misses of earlier windows: their keys are in the cache by the
        #: time a later window is derived (one derive worker, in order),
        #: so they are no misses then — whether or not they are cached
        #: *yet*.  ``later`` holds this segment's.
        awaited: set[bytes] = set()
        later: set[bytes] = set()
        misses = 0
        batch_bytes = 0
        #: The reads since the last segment closed: one ``upload.chunk``
        #: span per segment, not one per chunk.
        reads_start: float | None = None
        reads_end = 0.0

        def read() -> Chunk | None:
            nonlocal reads_start, reads_end
            started = clock()
            chunk = next(chunker, None)
            reads_end = clock()
            if reads_start is None:
                reads_start = started
            return chunk

        def chunked() -> None:
            nonlocal reads_start
            if reads_start is not None:
                self._tracer.record("upload.chunk", reads_start, reads_end)
                reads_start = None

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
                elif fingerprint in awaited:
                    later.add(fingerprint)
                elif fingerprint not in cache:
                    awaited.add(fingerprint)
                    misses += 1
            last = following is None
            batch_end = last or batch_bytes >= self._batch_bytes
            if batch_end or misses >= self._key_window:
                chunked()
                self._submit(segment, fresh, later, batch_end, more=not last)
                segment, fresh, later, misses = [], [], set(), 0
                if batch_end:
                    seen = set()
                    batch_bytes = 0
            chunk = following
        chunked()

    def _submit(
        self,
        segment: list[Chunk],
        fresh: list[bytes],
        later: set[bytes],
        batch_end: bool,
        more: bool,
    ) -> None:
        if self._stages is None:
            threaded = self._depth > 1 and more
            self._stages = tuple(
                Stage(f"reed-upload-{name}" if threaded else None, self._depth)
                for name in _STAGES
            )
        key, _derive, encrypt, _ship = self._stages
        keys = key.submit(self._blind_segment, fresh, later, self._mid_batch)
        self._mid_batch = not batch_end
        encrypt.submit(self._encrypt_segment, segment, keys, batch_end, not more)

    # -- key worker --------------------------------------------------------

    def _blind_segment(
        self, fingerprints: list[bytes], later: set[bytes], mid_batch: bool
    ) -> Future:
        """Blind the segment's fingerprints; the future of its keys."""
        pending = None
        if fingerprints:
            with self._tracer.span("upload.key_blind", chunks=len(fingerprints)):
                pending = self._blind(fingerprints, later)
        _key, derive, _encrypt, _ship = self._stages
        return derive.submit(self._derive_segment, pending, mid_batch)

    # -- derive worker -----------------------------------------------------

    def _derive_segment(
        self, pending: PendingKeys | None, mid_batch: bool
    ) -> dict[bytes, bytes]:
        """Fingerprint → MLE key for the store batch so far."""
        if not mid_batch:
            self._keys = {}
        if pending is not None:
            fingerprints = pending.fingerprints
            with self._tracer.span("upload.key_derive", chunks=len(fingerprints)):
                keys = self._finish(pending)
            # A new dict: an earlier segment's encrypt task may be reading
            # the last one.
            self._keys = {**self._keys, **dict(zip(fingerprints, keys))}
        return self._keys

    # -- encrypt worker ----------------------------------------------------

    def _encrypt_segment(
        self, chunks: list[Chunk], keys: Future, batch_end: bool, last: bool
    ) -> None:
        with self._tracer.span("upload.key_wait"):
            key_of = keys.result().result()
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
        payload, self._payload = self._payload, []
        _key, _derive, _encrypt, ship = self._stages
        ship.submit(self._store_batch, payload, last)

    # -- ship worker -------------------------------------------------------

    def _store_batch(self, payload: list[tuple[bytes, bytes]], last: bool) -> None:
        with self._tracer.span("upload.store", chunks=len(payload)):
            self.new_chunks += self._store(payload, last)
