"""The REED client.

The client is the trusted software layer on each user machine (Section
III-A).  It implements the four operations of Section IV-D:

* **upload** — chunk the file, obtain MLE keys from the key manager via
  the blind-RSA OPRF, transform every chunk into a trimmed package plus
  stub with the configured encryption scheme, and ship trimmed packages
  (batched), the encrypted stub file, the file recipe, and the
  ABE-encrypted key state;
* **download** — the reverse, unwinding key-regression states as needed
  and aborting on any integrity violation;
* **rekey** — renew the key state (and, for active revocation, the stub
  file) under a new policy; and
* **delete** — release chunk references and remove file metadata.

Performance measures from Section V-B are built in: MLE-key batching and
caching (in :class:`~repro.mle.server_aided.ServerAidedKeyClient`),
4 MB upload batches, process-parallel chunk encryption
(:mod:`repro.core.parallel`), and an upload pipeline that overlaps
chunking, key generation, encryption and shipping
(:mod:`repro.core.uploadpipe`).
"""

from __future__ import annotations

import io
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

from repro.abe.cpabe import AbeOpener, AbeSealer, PrivateAccessKey
from repro.chunking.chunker import Chunk, ChunkingSpec, chunk_stream
from repro.core import envelopes
from repro.core.chunkcache import ChunkCache
from repro.core.parallel import MIN_PARALLEL_WIND, ChunkTransformPool, RekeyPool
from repro.core.policy import FilePolicy
from repro.core.rekey import RekeyManyResult, RekeyResult, RevocationMode
from repro.core.rekeypipe import (
    DEFAULT_REKEY_BATCH_SIZE,
    FileRekeyPlan,
    RekeyPipeline,
    check_items,
)
from repro.core.schemes import EncryptionScheme, SplitPackage, get_scheme
from repro.core.server import StorageService
from repro.core.stages import read_ahead
from repro.core.uploadpipe import UploadPipeline
from repro.core.stubs import (
    STUB_NONCE_SIZE,
    decrypt_stub_file,
    encrypt_stub_file,
)
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.crypto.rsa import RSAPublicKey
from repro.keyreg.rsa_keyreg import KeyRegressionMember, KeyRegressionOwner, KeyState
from repro.mle.server_aided import ServerAidedKeyClient
from repro.obs import scope as obs_scope
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import Tracer, default_tracer
from repro.storage.keystore import KeyStateRecord, KeyStore
from repro.storage.recipes import ChunkRef, FileRecipe, obfuscate_pathname
from repro.util.errors import (
    ConfigurationError,
    CorruptionError,
    IntegrityError,
)
from repro.util.spanpool import default_worker_count
from repro.util.units import MiB

#: Client-side upload batch: trimmed packages buffered before one RPC
#: (Section V-B sets the in-memory buffer to 4 MB).
DEFAULT_UPLOAD_BATCH_BYTES = 4 * MiB


@dataclass(frozen=True)
class UploadResult:
    """Summary of one file upload."""

    file_id: str
    size: int
    chunk_count: int
    #: Chunks the server had not seen before (bytes actually stored).
    new_chunks: int
    #: Bytes of trimmed packages sent (== file size for both schemes).
    trimmed_bytes: int
    #: Bytes of the encrypted stub file.
    stub_file_bytes: int
    key_version: int
    #: MLE-key requests answered from the client-side key cache during
    #: this upload (delta of the key client's counter).
    key_cache_hits: int = 0
    #: Blind-RSA OPRF evaluations this upload actually paid for.
    key_oprf_evaluations: int = 0
    #: Key-manager round trips (derive-batch RPCs) this upload issued —
    #: with batching this is ~``chunk_count / batch_size``, and with a
    #: warm cache it is zero.
    key_round_trips: int = 0
    #: Storage-layer round trips (batch messages to data servers) this
    #: upload issued — at most ``shards × upload_batches`` chunk puts,
    #: one bare flush per node an earlier batch touched but the last
    #: (flushing) batch did not, and one ``file_commit`` per owner.
    store_round_trips: int = 0
    #: Upload batches shipped (chunk-put pipeline stages executed).
    upload_batches: int = 0
    #: Distributed trace id of the upload's root span — feed it to
    #: ``reed trace`` / :meth:`TcpCluster.merged_traces` to see the
    #: cross-node tree this upload produced.
    trace_id: str = ""


@dataclass(frozen=True)
class DownloadResult:
    """A downloaded file plus its reassembly metadata."""

    file_id: str
    data: bytes
    chunk_count: int
    key_version: int
    #: Plaintext bytes restored.  Equals ``len(data)`` for in-memory
    #: downloads; streaming surfaces (:meth:`REEDClient.download_to`,
    #: :meth:`REEDClient.download_path`) leave ``data`` empty and report
    #: the byte count here.
    size: int = 0
    #: Storage-layer round trips this download issued.
    store_round_trips: int = 0
    #: Fetch windows that actually hit the storage layer (a fully cached
    #: window costs zero).
    fetch_batches: int = 0
    #: Trimmed packages served from the client-side chunk cache.
    chunk_cache_hits: int = 0
    #: Trimmed packages that had to be fetched from storage.
    chunk_cache_misses: int = 0
    #: Distributed trace id of the download's root span.
    trace_id: str = ""


@dataclass
class _DownloadStats:
    """Mutable bag the restore generator fills in as it runs."""

    chunk_count: int = 0
    key_version: int = 0
    size: int = 0
    fetch_batches: int = 0


class REEDClient:
    """A user's REED client.

    One client instance acts for one user (``user_id``): it holds the
    user's private access key (CP-ABE), the user's derivation keypair
    (key regression, needed only to *own* files), and a channel to the
    key manager.
    """

    def __init__(
        self,
        user_id: str,
        key_client: ServerAidedKeyClient,
        storage: StorageService,
        keystore: KeyStore,
        private_access_key: PrivateAccessKey,
        wrap_keys_provider,
        keyreg_owner: KeyRegressionOwner | None = None,
        scheme: str | EncryptionScheme = "enhanced",
        chunking: ChunkingSpec | None = None,
        upload_batch_bytes: int = DEFAULT_UPLOAD_BATCH_BYTES,
        rng: RandomSource | None = None,
        pathname_salt: bytes | None = None,
        encryption_workers: int | None = None,
        pipeline_depth: int = 2,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        chunk_cache_bytes: int | None = None,
        rekey_workers: int | None = None,
        rekey_batch_size: int = DEFAULT_REKEY_BATCH_SIZE,
    ) -> None:
        # Unset -> one worker per CPU (capped).
        if encryption_workers is None:
            encryption_workers = default_worker_count()
        if encryption_workers < 1:
            raise ConfigurationError("need at least one encryption worker")
        self.user_id = user_id
        self.key_client = key_client
        self.storage = storage
        self.keystore = keystore
        self.private_access_key = private_access_key
        #: Callable mapping a policy tree to its attribute wrap keys
        #: (the attribute authority, local or remote).
        self.wrap_keys_provider = wrap_keys_provider
        self.keyreg_owner = keyreg_owner
        if isinstance(scheme, str):
            scheme = get_scheme(scheme)
        self.scheme = scheme
        self.chunking = chunking or ChunkingSpec()
        self.upload_batch_bytes = upload_batch_bytes
        if pipeline_depth < 1:
            raise ConfigurationError("pipeline depth must be at least 1")
        #: Work allowed in flight per pipeline stage: upload key windows
        #: awaiting encryption and store batches on the wire (see
        #: repro.core.uploadpipe), restore fetch windows.  Depth 1
        #: disables the overlap: every stage runs on the caller thread.
        self.pipeline_depth = pipeline_depth
        self.encryption_workers = encryption_workers
        self._transform_pool = ChunkTransformPool(
            self.scheme, workers=encryption_workers
        )
        if rekey_batch_size < 1:
            raise ConfigurationError("rekey batch size must be at least 1")
        #: Files per rekey-pipeline window — one batch RPC per stage per
        #: window (see :mod:`repro.core.rekeypipe`).
        self.rekey_batch_size = rekey_batch_size
        #: Key-regression winds and stub re-encryption, on worker
        #: processes that hold this owner's derivation key.
        self._rekey_pool = RekeyPool(
            cipher=self.scheme.cipher,
            workers=rekey_workers,
            default_stub_size=self.scheme.stub_size,
            owner=keyreg_owner,
        )
        self.rekey_workers = self._rekey_pool.workers
        self.rng = rng or SYSTEM_RANDOM
        #: When set, pathnames are obfuscated with this salt before they
        #: reach the recipe (paper Section IV-D: "we can obfuscate
        #: sensitive metadata information, such as the file pathname, by
        #: encoding it via a salted hash function").
        self.pathname_salt = pathname_salt
        #: Telemetry: per-stage latency histograms come from the tracer,
        #: operation counters from the registry (the process default
        #: unless injected — see docs/OBSERVABILITY.md).
        self.metrics = metrics if metrics is not None else default_registry()
        self.tracer = tracer if tracer is not None else (
            default_tracer() if self.metrics is default_registry() else Tracer(self.metrics)
        )
        self._m_uploads = self.metrics.counter(
            "client_uploads_total", "Files uploaded."
        )
        self._m_upload_bytes = self.metrics.counter(
            "client_upload_bytes_total", "Plaintext bytes uploaded."
        )
        self._m_chunks = self.metrics.counter(
            "client_chunks_total", "Chunks processed by uploads."
        )
        self._m_new_chunks = self.metrics.counter(
            "client_new_chunks_total", "Chunks the storage side had not seen."
        )
        self._m_downloads = self.metrics.counter(
            "client_downloads_total", "Files downloaded."
        )
        self._m_download_bytes = self.metrics.counter(
            "client_download_bytes_total", "Plaintext bytes downloaded."
        )
        self._m_rekeys = self.metrics.counter(
            "client_rekeys_total", "Rekey operations, by revocation mode.",
            labelnames=("mode",),
        )
        self._m_rekey_files = self.metrics.counter(
            "client_rekey_files_total",
            "Files rekeyed (per file, including pipelined batches).",
            labelnames=("mode",),
        )
        self._m_rekey_batches = self.metrics.counter(
            "client_rekey_batches_total",
            "Rekey pipeline windows shipped.",
        )
        self._m_rekey_stub_bytes = self.metrics.counter(
            "client_rekey_stub_bytes_total",
            "Stub-file bytes moved by active rekeys (down + up).",
        )
        self._m_rekey_wind_batches = self.metrics.counter(
            "client_rekey_wind_batches_total",
            "Key-regression wind batches, by where they were wound "
            "(parallel: on rekey worker processes; serial: in this process).",
            labelnames=("mode",),
        )
        self._m_abe_headers = self.metrics.counter(
            "client_abe_headers_total",
            "CP-ABE headers sealed and opened (a rekey run seals one and "
            "opens each distinct header once).",
            labelnames=("op",),
        )
        #: Optional client-side read cache of trimmed packages (see
        #: :mod:`repro.core.chunkcache`), ``chunk_cache_bytes`` in size.
        self.chunk_cache = (
            ChunkCache(chunk_cache_bytes, metrics=self.metrics)
            if chunk_cache_bytes is not None
            else None
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _require_owner(self) -> KeyRegressionOwner:
        if self.keyreg_owner is None:
            raise ConfigurationError(
                f"client {self.user_id!r} has no derivation key pair; "
                "only file owners can upload or rekey"
            )
        return self.keyreg_owner

    def _encrypt_chunks(
        self, chunks: list[Chunk], mle_keys: list[bytes]
    ) -> list[SplitPackage]:
        """Encrypt a batch of chunks on the transform pool.

        The pool decides serial vs. process-parallel per batch (see
        :mod:`repro.core.parallel`); order is always preserved.
        """
        return self._transform_pool.encrypt(
            [chunk.data for chunk in chunks], mle_keys
        )

    def close(self) -> None:
        """Reap encryption and rekey worker processes (they restart lazily)."""
        self._transform_pool.close()
        self._rekey_pool.close()

    def _commit_file(
        self, file_id: str, stub_file: bytes, recipe: FileRecipe
    ) -> None:
        """Write a file's stub file and recipe: one ``file_commit``."""
        check_items(
            self.storage.file_commit([(file_id, stub_file, recipe.encode())])
        )

    def _fetch_file(self, file_id: str) -> tuple[bytes, FileRecipe]:
        """A file's stub file and recipe: one ``file_get_many``."""
        (stored,) = self.storage.file_get_many([file_id])
        if isinstance(stored, Exception):
            raise stored
        stub_file, recipe = stored
        return stub_file, FileRecipe.decode(recipe)

    def _abe_sealer(self, policy: FilePolicy) -> AbeSealer:
        """A new CP-ABE header under ``policy``: the per-leaf cost of a
        seal, paid once for every record sealed with it."""
        sealer = AbeSealer(
            self.wrap_keys_provider(policy.tree),
            policy.tree,
            cipher=self.scheme.cipher,
            rng=self.rng,
        )
        self._m_abe_headers.labels(op="seal").inc()
        return sealer

    def _abe_opener(self) -> AbeOpener:
        """An opener for this user; each header it opens counts once."""
        return AbeOpener(
            self.private_access_key,
            cipher=self.scheme.cipher,
            on_header=self._m_abe_headers.labels(op="open").inc,
        )

    def _seal_key_state(
        self,
        file_id: str,
        state: KeyState,
        policy: FilePolicy,
        sealer: AbeSealer | None = None,
    ) -> KeyStateRecord:
        """ABE-seal ``state`` under ``policy``: as the next item of
        ``sealer`` (a header under ``policy``) when given, else under a
        header of its own."""
        owner = self._require_owner()
        if sealer is None:
            sealer = self._abe_sealer(policy)
        return KeyStateRecord(
            file_id=file_id,
            policy_text=policy.text,
            key_version=state.version,
            encrypted_state=envelopes.seal_abe(sealer.seal(state.encode())),
            owner_public_key=owner.public_key.encode(),
        )

    def group_record_id(self, group_id: str) -> str:
        """Key-store identifier for a group's own key-state record."""
        return f"@group/{group_id}"

    def _group_key_at(self, group_id: str, version: int) -> bytes:
        """Resolve a group key: open the group's (ABE-sealed) key state
        and unwind it to the requested version."""
        record = self.keystore.get(self.group_record_id(group_id))
        state = self._open_key_state(record)
        if version > state.version:
            raise CorruptionError(
                f"envelope references future group version {version}"
            )
        return self._file_key_at(record, state, version)

    def _open_key_state(
        self, record: KeyStateRecord, abe: AbeOpener | None = None
    ) -> KeyState:
        """Open a key-state record with this user's credentials.

        ABE envelopes decrypt with the private access key, through
        ``abe`` when given (a run's opener: each header opens once) and
        else through an opener of their own; group envelopes resolve the
        group's key state first (itself ABE-protected), so access
        control composes transparently.
        """
        tag, payload = envelopes.decode_envelope(record.encrypted_state)
        if tag == envelopes.TAG_ABE:
            plaintext = (abe or self._abe_opener()).open(payload)
        else:
            group_key = self._group_key_at(payload.group_id, payload.group_version)
            plaintext = envelopes.open_group(
                payload, group_key, cipher=self.scheme.cipher
            )
        state = KeyState.decode(plaintext)
        if state.version != record.key_version:
            raise CorruptionError(
                "key-state version disagrees with its record metadata"
            )
        return state

    def _file_key_at(
        self, record: KeyStateRecord, state: KeyState, version: int
    ) -> bytes:
        """Derive the file key for ``version`` from the current state."""
        if version == state.version:
            return state.derive_key()
        member = KeyRegressionMember(RSAPublicKey.decode(record.owner_public_key))
        return member.unwind_to(state, version).derive_key()

    # ------------------------------------------------------------------
    # upload
    # ------------------------------------------------------------------

    def upload(
        self,
        file_id: str,
        data: bytes | Iterable[bytes],
        policy: FilePolicy | None = None,
        pathname: str = "",
    ) -> UploadResult:
        """Encrypt and store a file under ``file_id``.

        ``policy`` defaults to "only this user".  ``data`` may be a byte
        string or an iterable of byte blocks (streaming upload).
        """
        owner = self._require_owner()
        if policy is None:
            policy = FilePolicy.for_users([self.user_id])
        state = owner.initial_state()
        file_key = state.derive_key()

        # Counter attribution: the key client and the storage engine
        # report this upload's deltas into the repro.obs.scope opened
        # below, which stays correct under concurrent uploads on a
        # shared client.
        key_client = self.key_client

        def store(payload: list[tuple[bytes, bytes]], last: bool) -> int:
            """Ship one per-item-status batch message; returns #new.  The
            file's last batch carries the upload's flush."""
            new = 0
            for status in self.storage.chunk_put_many(payload, flush=last):
                if isinstance(status, Exception):
                    raise status
                new += 1 if status else 0
            return new

        tracer = self.tracer
        # Chunking, key derivation, the chunk transform and the store RPC
        # overlap stage by stage (see repro.core.uploadpipe); a file of
        # one key window and one store batch runs inline, as does
        # everything at pipeline depth 1.
        pipeline = UploadPipeline(
            derive=key_client.derive_keys,
            encrypt=self._encrypt_chunks,
            store=store,
            tracer=tracer,
            key_window=key_client.batch_size,
            key_cache=key_client.cache,
            batch_bytes=self.upload_batch_bytes,
            depth=self.pipeline_depth,
        )
        with obs_scope.attribution() as scope, tracer.span("upload") as root:
            pipeline.run(chunk_stream(data, self.chunking))
            refs, stubs = pipeline.refs, pipeline.stubs
            total_size, new_chunks = pipeline.total_size, pipeline.new_chunks

            with tracer.span("upload.stub"):
                stub_file = encrypt_stub_file(
                    file_key,
                    stubs,
                    stub_size=self.scheme.stub_size,
                    cipher=self.scheme.cipher,
                    rng=self.rng,
                )

            if pathname and self.pathname_salt is not None:
                pathname = obfuscate_pathname(pathname, self.pathname_salt)
            recipe = FileRecipe(
                file_id=file_id,
                pathname=pathname,
                size=total_size,
                scheme=self.scheme.name,
                key_version=state.version,
                chunks=tuple(refs),
            )
            # Chunks are durable (the last batch flushed), then the stub
            # file and recipe, and the key state last.
            with tracer.span("upload.commit"):
                self._commit_file(file_id, stub_file, recipe)
            with tracer.span("upload.keystate"):
                self.keystore.put(self._seal_key_state(file_id, state, policy))

        self._m_uploads.inc()
        self._m_upload_bytes.inc(total_size)
        self._m_chunks.inc(len(refs))
        self._m_new_chunks.inc(new_chunks)

        return UploadResult(
            file_id=file_id,
            size=total_size,
            chunk_count=len(refs),
            new_chunks=new_chunks,
            trimmed_bytes=pipeline.trimmed_bytes,
            stub_file_bytes=len(stub_file),
            key_version=state.version,
            key_cache_hits=scope.get_int("key_cache_hits"),
            key_oprf_evaluations=scope.get_int("key_oprf_evaluations"),
            key_round_trips=scope.get_int("key_round_trips"),
            store_round_trips=scope.get_int("store_round_trips"),
            upload_batches=pipeline.upload_batches,
            trace_id=root.trace_id,
        )

    def upload_path(
        self,
        file_id: str,
        path: str,
        policy: FilePolicy | None = None,
        read_block: int = 4 * MiB,
    ) -> UploadResult:
        """Upload a file from disk, streaming in ``read_block`` pieces.

        Memory use stays bounded by the read block plus one upload
        batch, so GB-scale files never materialize in memory.
        """

        def blocks():
            with open(path, "rb") as handle:
                while True:
                    block = handle.read(read_block)
                    if not block:
                        return
                    yield block

        return self.upload(file_id, blocks(), policy=policy, pathname=path)

    # ------------------------------------------------------------------
    # download
    # ------------------------------------------------------------------

    def _restore(
        self,
        file_id: str,
        fetch_batch_chunks: int,
        stats: _DownloadStats,
        scope: obs_scope.AttributionScope,
    ) -> Iterator[bytes]:
        """The restore pipeline: yield verified plaintext chunks in order.

        Stages, mirroring the upload pipeline in reverse:

        1. **prefetch** (:func:`~repro.core.stages.read_ahead`, on the
           ``reed-download`` worker) — cache lookup, then one
           ``chunk_get_batch`` for the window's misses (the sharded
           service scatter-gathers it across shards);
        2. **decrypt** (caller thread) — CAONT inversion fanned out over
           the process pool, then per-chunk length verification against
           the recipe.

        Up to ``pipeline_depth`` fetch windows are resident at once (one
        decrypting plus ``pipeline_depth − 1`` in flight), which is what
        bounds :meth:`download_path` memory.  Attribution runs through an
        explicit scope (``obs_scope.using``) rather than the usual
        context manager because a ContextVar set inside a generator
        leaks into the caller between yields; no ``using`` block and no
        tracer span straddles a ``yield``.
        """
        tracer = self.tracer
        with obs_scope.using(scope):
            with tracer.span("download.keystate"):
                record = self.keystore.get(file_id)
                state = self._open_key_state(record)
                stub_file, recipe = self._fetch_file(file_id)
            if recipe.file_id != file_id or record.file_id != file_id:
                raise IntegrityError(
                    "stored metadata does not name the requested file"
                )
            if recipe.key_version > state.version and self.keyreg_owner is None:
                # An interrupted active rekey commits its key state last,
                # so the recipe can briefly run ahead; only the owner can
                # wind forward to bridge the gap (``_stub_source_key``).
                raise CorruptionError(
                    "recipe references a key version newer than the key state"
                )
            file_key = self._stub_source_key(record, state, recipe.key_version)
            with tracer.span("download.stub"):
                stubs = decrypt_stub_file(
                    file_key, stub_file, cipher=self.scheme.cipher
                )
        if len(stubs) != recipe.chunk_count:
            raise IntegrityError(
                f"stub file holds {len(stubs)} stubs but the recipe lists "
                f"{recipe.chunk_count} chunks"
            )
        stats.chunk_count = recipe.chunk_count
        stats.key_version = state.version
        scheme = self.scheme
        if recipe.scheme != scheme.name:
            scheme = get_scheme(recipe.scheme, cipher=self.scheme.cipher)
        # The transform pool is bound to the client's configured scheme;
        # a recipe written under a different scheme decrypts in-process.
        pooled = scheme is self.scheme
        cache = self.chunk_cache
        storage = self.storage

        def fetch_window(window: tuple[ChunkRef, ...]) -> list[bytes]:
            """Stage 1: trimmed packages for one window, cache first.

            ``using(scope)`` keeps cache and round-trip counters
            attributed to this download.
            """
            with obs_scope.using(scope):
                packages: list[bytes | None] = [None] * len(window)
                misses: dict[bytes, list[int]] = {}
                if cache is not None:
                    with tracer.span("download.cache", chunks=len(window)):
                        for position, ref in enumerate(window):
                            data = cache.get(ref.fingerprint)
                            if data is None:
                                misses.setdefault(ref.fingerprint, []).append(
                                    position
                                )
                            else:
                                packages[position] = data
                else:
                    for position, ref in enumerate(window):
                        misses.setdefault(ref.fingerprint, []).append(position)
                if misses:
                    unique = list(misses)
                    with tracer.span("download.prefetch", chunks=len(unique)):
                        fetched = storage.chunk_get_batch(unique)
                    stats.fetch_batches += 1
                    for fingerprint, data in zip(unique, fetched):
                        for position in misses[fingerprint]:
                            packages[position] = data
                        if cache is not None:
                            cache.put(fingerprint, data)
                return packages

        def decrypt_window(
            start: int, window: tuple[ChunkRef, ...], packages: list[bytes]
        ) -> list[bytes]:
            """Stage 2: invert the scheme and verify lengths, in order."""
            window_stubs = stubs[start : start + len(window)]
            with obs_scope.using(scope), tracer.span(
                "download.decrypt", chunks=len(window)
            ):
                if pooled:
                    chunks = self._transform_pool.decrypt(
                        list(packages), window_stubs
                    )
                else:
                    chunks = [
                        scheme.decrypt_chunk(trimmed, stub)
                        for trimmed, stub in zip(packages, window_stubs)
                    ]
            for ref, chunk in zip(window, chunks):
                if len(chunk) != ref.length:
                    raise IntegrityError(
                        "decrypted chunk length disagrees with the recipe"
                    )
            return chunks

        windows = [
            recipe.chunks[offset : offset + fetch_batch_chunks]
            for offset in range(0, recipe.chunk_count, fetch_batch_chunks)
        ]
        start = total = 0
        # One window decrypting on this thread plus (pipeline_depth − 1)
        # fetching ahead keeps exactly pipeline_depth windows resident —
        # the documented memory bound.
        for window, packages in read_ahead(
            windows, fetch_window, self.pipeline_depth, "reed-download"
        ):
            for chunk in decrypt_window(start, window, packages):
                total += len(chunk)
                yield chunk
            start += len(window)
        if total != recipe.size:
            raise IntegrityError("reassembled file size disagrees with the recipe")
        stats.size = total

    def download_iter(
        self, file_id: str, fetch_batch_chunks: int = 512
    ) -> Iterator[bytes]:
        """Stream a file's verified plaintext chunks in recipe order.

        Memory stays bounded by ``pipeline_depth × fetch_batch_chunks``
        chunks regardless of file size.  Any integrity violation —
        tampered package, wrong length, missing chunk — raises before
        the offending chunk is yielded; a short final size raises after
        the last chunk.
        """
        stats = _DownloadStats()
        scope = obs_scope.AttributionScope(parent=obs_scope.current())
        yield from self._restore(file_id, fetch_batch_chunks, stats, scope)

    def download(self, file_id: str, fetch_batch_chunks: int = 512) -> DownloadResult:
        """Retrieve and decrypt a file; aborts on any tampered chunk."""
        sink = io.BytesIO()
        result = self.download_to(file_id, sink, fetch_batch_chunks)
        return replace(result, data=sink.getvalue())

    def download_to(
        self, file_id: str, sink, fetch_batch_chunks: int = 512
    ) -> DownloadResult:
        """Stream a file into a writable ``sink`` (``write(bytes)``).

        Chunks are written out as they verify instead of accumulating,
        so memory stays bounded by ``pipeline_depth`` fetch windows.
        ``data`` in the result is empty; ``size`` reports the bytes
        written.
        """
        tracer = self.tracer
        stats = _DownloadStats()
        scope = obs_scope.AttributionScope(parent=obs_scope.current())
        with tracer.span("download") as root:
            for chunk in self._restore(file_id, fetch_batch_chunks, stats, scope):
                sink.write(chunk)
        self._m_downloads.inc()
        self._m_download_bytes.inc(stats.size)
        return DownloadResult(
            file_id=file_id,
            data=b"",
            chunk_count=stats.chunk_count,
            key_version=stats.key_version,
            size=stats.size,
            store_round_trips=scope.get_int("store_round_trips"),
            fetch_batches=stats.fetch_batches,
            chunk_cache_hits=scope.get_int("chunk_cache_hits"),
            chunk_cache_misses=scope.get_int("chunk_cache_misses"),
            trace_id=root.trace_id,
        )

    def download_path(
        self, file_id: str, path: str, fetch_batch_chunks: int = 512
    ) -> DownloadResult:
        """Download a file to ``path`` without materializing it in RAM.

        Writes through :meth:`download_to` into ``path + ".part"`` and
        renames into place only after the final size check passes, so an
        aborted download never leaves a partial file at ``path``.
        """
        partial = path + ".part"
        try:
            with open(partial, "wb") as handle:
                result = self.download_to(
                    file_id, handle, fetch_batch_chunks=fetch_batch_chunks
                )
        except BaseException:
            try:
                os.remove(partial)
            except OSError:
                pass
            raise
        os.replace(partial, path)
        return result

    # ------------------------------------------------------------------
    # rekey
    # ------------------------------------------------------------------

    def _stub_source_key(
        self, record: KeyStateRecord, state: KeyState, version: int
    ) -> bytes:
        """File key for the stub file at ``version``, recovery-aware.

        Normally ``version <= state.version`` and the member-side unwind
        applies.  After an interrupted active rekey, though, the recipe
        can be *ahead* of the stored key state (stub + recipe shipped,
        key state not yet committed); the owner's deterministic wind
        re-derives the very same forward key, so the retry converges.
        """
        if version <= state.version:
            return self._file_key_at(record, state, version)
        return self._require_owner().wind_to(state, version).derive_key()

    def _wind(self, states: list[KeyState]) -> list[KeyState]:
        """The rekey wind stage: advance each key state one version.

        Windows of :data:`~repro.core.parallel.MIN_PARALLEL_WIND` states
        or more wind on the rekey workers, which hold the derivation key
        from start-up; smaller ones (every single-file rekey) wind on
        this thread.  A wind is deterministic, so the output does not
        depend on where it ran.
        """
        with self.tracer.span("rekey.wind", files=len(states)):
            wound, on_workers = self._rekey_pool.wind(
                states, parallel=len(states) >= MIN_PARALLEL_WIND
            )
        self._m_rekey_wind_batches.labels(
            mode="parallel" if on_workers else "serial"
        ).inc()
        return wound

    def rekey(
        self,
        file_id: str,
        new_policy: FilePolicy,
        mode: RevocationMode = RevocationMode.LAZY,
    ) -> RekeyResult:
        """Renew a file's key state under ``new_policy``.

        Follows Section IV-D: download + ABE-decrypt the key state, wind
        it forward, ABE-encrypt under the new policy, and upload.  In
        :attr:`RevocationMode.ACTIVE`, additionally download the stub
        file, re-encrypt it under the new file key, re-upload it, and
        bump the recipe's key version.  This is :meth:`rekey_many` over
        one file: one window of the rekey pipeline.

        The new key state commits *last* (after the stub file and the
        recipe): a crash mid-rekey leaves the old record in place, so
        the file stays readable and a retried rekey converges — the
        owner's wind is deterministic and the stub re-encryption falls
        back to the new key if the old one no longer opens the stub
        file.
        """
        return self.rekey_many([file_id], new_policy, mode).single()

    def rekey_many(
        self,
        file_ids: list[str],
        new_policy: FilePolicy,
        mode: RevocationMode = RevocationMode.LAZY,
    ) -> RekeyManyResult:
        """Rekey many files under one policy with batched, pipelined RPCs.

        Files move through the :class:`~repro.core.rekeypipe.RekeyPipeline`
        in windows of :attr:`rekey_batch_size`, with one batch RPC per
        stage per window instead of ~5 round trips per file,
        key-regression winds and stub re-encryption fanned out across
        :attr:`rekey_workers`, and up to :attr:`pipeline_depth` windows
        in flight.  Output does not depend on the window size (winds are
        deterministic and every random draw happens on this thread in
        file order), key states still commit last within each window,
        and the first failing file aborts the run deterministically — no
        window after the failing one ships anything.
        """
        return self._rekey_run(list(file_ids), mode, lambda: (new_policy, None))

    def revoke_users(
        self,
        file_id: str,
        revoked: set[str],
        mode: RevocationMode = RevocationMode.LAZY,
    ) -> RekeyResult:
        """Convenience: rekey with the current policy minus ``revoked``.

        The current key-state record names that policy.  It is read once,
        inside the rekey's root span and attribution scope, and handed to
        the pipeline in place of its own key-state fetch.
        """

        def resolve() -> tuple[FilePolicy, list[KeyStateRecord]]:
            record = self.keystore.get(file_id)
            current = FilePolicy.parse(record.policy_text)
            return current.without_users(revoked), [record]

        return self._rekey_run([file_id], mode, resolve).single()

    def _rekey_run(
        self,
        file_ids: list[str],
        mode: RevocationMode,
        resolve: Callable[[], tuple[FilePolicy, list[KeyStateRecord] | None]],
    ) -> RekeyManyResult:
        """Every client rekey: one ``rekey`` root span, one attribution
        scope and one pipeline run.  ``resolve()`` runs inside both and
        returns the new policy and, when already read, the files'
        current key-state records."""
        self._require_owner()
        active = mode is RevocationMode.ACTIVE
        with obs_scope.attribution() as scope, self.tracer.span(
            "rekey", mode=mode.value, files=len(file_ids)
        ) as root:
            new_policy, records = resolve()
            # One policy for the whole run, so one CP-ABE header: drawn
            # here, before the first file's stub nonce, and every new
            # record is an item of it.  The opener opens each old header
            # once (a previous run's records share theirs).
            sealer = self._abe_sealer(new_policy)
            abe = self._abe_opener()

            def plan_file(
                file_id: str,
                record: KeyStateRecord,
                old_state: KeyState,
                new_state: KeyState,
                recipe_bytes: bytes | None,
                stub_file: bytes | None,
            ) -> FileRekeyPlan:
                plan = FileRekeyPlan(
                    file_id=file_id,
                    new_record=self._seal_key_state(
                        file_id, new_state, new_policy, sealer
                    ),
                    old_key_version=old_state.version,
                    new_key_version=new_state.version,
                )
                if active:
                    recipe = FileRecipe.decode(recipe_bytes)
                    plan.stub_file = stub_file
                    plan.old_file_key = self._stub_source_key(
                        record, old_state, recipe.key_version
                    )
                    plan.new_file_key = new_state.derive_key()
                    plan.nonce = self.rng.random_bytes(STUB_NONCE_SIZE)
                    plan.updated_recipe = replace(
                        recipe, key_version=new_state.version
                    ).encode()
                return plan

            pipeline = RekeyPipeline(
                self.storage,
                self.keystore,
                opener=lambda record: self._open_key_state(record, abe),
                planner=plan_file,
                tracer=self.tracer,
                winder=self._wind,
                stub_pool=self._rekey_pool,
                active=active,
                batch_size=self.rekey_batch_size,
                pipeline_depth=self.pipeline_depth,
            )
            stats = pipeline.run(file_ids, records)

        self._m_rekeys.labels(mode=mode.value).inc(stats.files)
        self._m_rekey_files.labels(mode=mode.value).inc(stats.files)
        self._m_rekey_batches.inc(stats.batches)
        self._m_rekey_stub_bytes.inc(stats.stub_bytes)
        results = tuple(
            RekeyResult(
                file_id=file_id,
                mode=mode,
                old_key_version=old_version,
                new_key_version=new_version,
                new_policy_text=new_policy.text,
                stub_bytes_reencrypted=moved,
            )
            for file_id, old_version, new_version, moved in stats.shipped
        )
        return RekeyManyResult(
            mode=mode,
            new_policy_text=new_policy.text,
            results=results,
            stub_bytes_reencrypted=stats.stub_bytes,
            store_round_trips=scope.get_int("store_round_trips"),
            keystore_round_trips=scope.get_int("keystore_round_trips"),
            batches=stats.batches,
            workers=self.rekey_workers,
            trace_id=root.trace_id,
        )

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------

    def delete(self, file_id: str) -> None:
        """Remove a file: release its chunks and drop its metadata."""
        self.delete_many([file_id])

    def delete_many(self, file_ids: list[str]) -> None:
        """Remove files with batched round trips: one ``recipe_get_many``,
        one chunk release, one ``meta_delete_many`` (stub + recipe) and
        one ``keystore.delete_many``."""
        recipes = self.storage.recipe_get_many(list(file_ids))
        check_items(recipes)
        fingerprints = [
            ref.fingerprint
            for blob in recipes
            for ref in FileRecipe.decode(blob).chunks
        ]
        if fingerprints:
            self.storage.chunk_release_batch(fingerprints)
        check_items(self.storage.meta_delete_many(list(file_ids)))
        check_items(self.keystore.delete_many(list(file_ids)))
