"""Client worker pools: chunk transforms and rekeying.

The chunk transform (MLE encryption + CAONT packaging) is pure Python and
CPU-bound, so the GIL serializes it no matter how many threads run it —
the journal version of REED reaches its reported throughputs only with
truly concurrent chunk encryption.  :class:`ChunkTransformPool` runs the
transform across *processes*: chunk batches are pickled to workers, each
worker rebuilds the encryption scheme once from its registry names, and
results are reassembled in submission order.  :class:`RekeyPool` does
the same for the two CPU-bound steps of a rekey: key-regression winds
(one private RSA operation per file) and stub-file re-encryption.

The worker lifecycle, span slicing and every fallback (in-process for
small batches and single-worker configurations, threads when process
pools are unavailable, an in-process redo when a worker dies) live in
:class:`~repro.util.spanpool.SpanPool`; the pools here add what they
transform and when a batch is worth the hand-off.  Schemes or ciphers
that are not registry-reconstructible in a fresh process (custom
instances) never leave the parent process.

Worker processes are started lazily on first use and reused across
uploads; call :meth:`ChunkTransformPool.close` (or
:meth:`REEDClient.close <repro.core.client.REEDClient.close>`) to reap
them deterministically.
"""

from __future__ import annotations

from repro.core.schemes import STUB_SIZE, EncryptionScheme, SplitPackage, get_scheme
from repro.core.stubs import decrypt_stub_file, encrypt_stub_file
from repro.crypto.cipher import SymmetricCipher, get_cipher
from repro.crypto.rsa import RSAPrivateKey
from repro.keyreg.rsa_keyreg import KeyRegressionOwner, KeyState
from repro.util.errors import ConfigurationError, IntegrityError
from repro.util.spanpool import SpanPool

#: Below this many bytes per batch the fork/pickle overhead exceeds the
#: parallel win and the transform runs serially in-process.
DEFAULT_MIN_PARALLEL_BYTES = 1 << 20

#: Rekey windows of fewer key states wind on the caller thread: a wind
#: is ~1.4 ms of CPU, so a handful of them does not repay the hand-off,
#: and a single-file rekey never starts the workers at all.
MIN_PARALLEL_WIND = 8


# -- worker-process side -----------------------------------------------------

#: Per-process scheme cache: workers rebuild the scheme once per
#: (scheme, cipher, stub size) and reuse it for every batch.
_WORKER_SCHEMES: dict[tuple[str, str, int], EncryptionScheme] = {}


def _worker_scheme(spec: tuple[str, str, int]) -> EncryptionScheme:
    scheme = _WORKER_SCHEMES.get(spec)
    if scheme is None:
        scheme_name, cipher_name, stub_size = spec
        scheme = get_scheme(
            scheme_name, cipher=get_cipher(cipher_name), stub_size=stub_size
        )
        _WORKER_SCHEMES[spec] = scheme
    return scheme


def _encrypt_batch(
    spec: tuple[str, str, int], pairs: list[tuple[bytes, bytes]]
) -> list[SplitPackage]:
    """Worker entry point: transform ``(chunk, mle_key)`` pairs.

    Module-level (picklable) by design; the scheme travels as registry
    names, never as a pickled object graph.
    """
    encrypt = _worker_scheme(spec).encrypt_chunk
    return [encrypt(chunk, mle_key) for chunk, mle_key in pairs]


def _decrypt_batch(
    spec: tuple[str, str, int], pairs: list[tuple[bytes, bytes]]
) -> list[bytes]:
    """Worker entry point: invert ``(trimmed_package, stub)`` pairs.

    Integrity failures (tampered package) raise
    :class:`~repro.util.errors.IntegrityError`, which pickles back to the
    client intact.
    """
    decrypt = _worker_scheme(spec).decrypt_chunk
    return [decrypt(trimmed, stub) for trimmed, stub in pairs]


#: Per-process cipher cache for the stub-rekey worker entry point.
_WORKER_CIPHERS: dict[str, SymmetricCipher] = {}


def _reencrypt_one_stub_file(
    cipher: SymmetricCipher,
    stub_file: bytes,
    old_key: bytes,
    new_key: bytes,
    nonce: bytes,
    default_stub_size: int,
) -> bytes:
    """Decrypt one stub file and re-encrypt it with the given nonce.

    If the old key no longer opens the stub file, the new key is tried:
    an interrupted earlier rekey may have shipped this stub file already
    (key state commits last), and the owner's deterministic wind
    re-derives the very same new key on retry.
    """
    try:
        stubs = decrypt_stub_file(old_key, stub_file, cipher=cipher)
    except IntegrityError:
        if new_key == old_key:
            raise
        stubs = decrypt_stub_file(new_key, stub_file, cipher=cipher)
    stub_size = len(stubs[0]) if stubs else default_stub_size
    return encrypt_stub_file(
        new_key, stubs, stub_size=stub_size, cipher=cipher, nonce=nonce
    )


def _reencrypt_stub_batch(
    cipher_name: str,
    default_stub_size: int,
    items: list[tuple[bytes, bytes, bytes, bytes]],
) -> list[bytes]:
    """Worker entry point: ``(stub_file, old_key, new_key, nonce)`` items."""
    cipher = _WORKER_CIPHERS.get(cipher_name)
    if cipher is None:
        cipher = get_cipher(cipher_name)
        _WORKER_CIPHERS[cipher_name] = cipher
    return [
        _reencrypt_one_stub_file(cipher, *item, default_stub_size)
        for item in items
    ]


#: Worker processes only: the owner's side of key regression, holding
#: the derivation key installed when the worker started.
_WINDER: KeyRegressionOwner | None = None


def _hold_derivation_key(private_key: RSAPrivateKey) -> None:
    global _WINDER
    _WINDER = KeyRegressionOwner(private_key)


def _wind_span(states: list[KeyState]) -> list[KeyState]:
    """Worker entry point: wind one span with the key held since start-up."""
    return [_WINDER.wind(state) for state in states]


# -- client side -------------------------------------------------------------


def _registry_spec(scheme: EncryptionScheme) -> tuple[str, str, int] | None:
    """Registry names that rebuild ``scheme`` in a fresh process, or None.

    A subclassed scheme or a cipher instance that is not the registry
    singleton cannot be faithfully reconstructed from names, so such
    schemes stay on the in-process paths.
    """
    cipher_name = _cipher_spec(scheme.cipher)
    scheme_name = getattr(scheme, "name", None)
    if not cipher_name or not scheme_name:
        return None
    try:
        rebuilt = get_scheme(
            scheme_name, cipher=get_cipher(cipher_name), stub_size=scheme.stub_size
        )
    except ConfigurationError:
        return None
    if type(rebuilt) is not type(scheme):
        return None
    return (scheme_name, cipher_name, scheme.stub_size)


def _cipher_spec(cipher: SymmetricCipher) -> str | None:
    """Registry name that rebuilds ``cipher`` in a fresh process, or None."""
    name = getattr(cipher, "name", None)
    if not name:
        return None
    try:
        rebuilt = get_cipher(name)
    except ConfigurationError:
        return None
    if type(rebuilt) is not type(cipher):
        return None
    return name


def _repays_hand_off(pool: "ChunkTransformPool", total: int) -> bool:
    # Threads pay no pickling, so only the process path has a floor.
    return not pool.use_processes or total >= pool.min_parallel_bytes


class ChunkTransformPool(SpanPool):
    """Runs ``scheme.encrypt_chunk`` over batches, in parallel when it pays.

    ``workers`` defaults to
    :func:`~repro.util.spanpool.default_worker_count`.  ``use_processes``
    may be forced off to get the legacy thread-pool behaviour.
    """

    def __init__(
        self,
        scheme: EncryptionScheme,
        workers: int | None = None,
        use_processes: bool = True,
        min_parallel_bytes: int = DEFAULT_MIN_PARALLEL_BYTES,
    ) -> None:
        self._spec = _registry_spec(scheme) if use_processes else None
        super().__init__(workers, use_processes=self._spec is not None)
        self.scheme = scheme
        self.min_parallel_bytes = min_parallel_bytes

    def _encrypt_serial(self, pairs: list[tuple[bytes, bytes]]) -> list[SplitPackage]:
        encrypt = self.scheme.encrypt_chunk
        return [encrypt(chunk, key) for chunk, key in pairs]

    def encrypt(
        self, chunks: list[bytes], mle_keys: list[bytes]
    ) -> list[SplitPackage]:
        """Transform chunks into split packages, preserving order."""
        if len(chunks) != len(mle_keys):
            raise ConfigurationError(
                f"{len(chunks)} chunks but {len(mle_keys)} MLE keys"
            )
        return self.map_spans(
            list(zip(chunks, mle_keys)),
            self._encrypt_serial,
            _encrypt_batch,
            self._spec,
            parallel=_repays_hand_off(self, sum(len(chunk) for chunk in chunks)),
        )

    def _decrypt_serial(self, pairs: list[tuple[bytes, bytes]]) -> list[bytes]:
        decrypt = self.scheme.decrypt_chunk
        return [decrypt(package, stub) for package, stub in pairs]

    def decrypt(self, trimmed: list[bytes], stubs: list[bytes]) -> list[bytes]:
        """Invert split packages back to plaintext chunks, preserving order.

        Mirrors :meth:`encrypt`; the earliest tampered chunk raises first,
        so the abort is deterministic regardless of worker scheduling.
        """
        if len(trimmed) != len(stubs):
            raise ConfigurationError(
                f"{len(trimmed)} trimmed packages but {len(stubs)} stubs"
            )
        return self.map_spans(
            list(zip(trimmed, stubs)),
            self._decrypt_serial,
            _decrypt_batch,
            self._spec,
            parallel=_repays_hand_off(self, sum(len(package) for package in trimmed)),
        )


class RekeyPool(SpanPool):
    """The client's rekey workers: key-regression winds and stub files.

    **Winds.**  With an ``owner``, every worker holds the owner's
    derivation key from start-up, exactly like the key manager's signers
    hold theirs; per window only key states go out and wound states come
    back, in order.  A wind is deterministic, so where it ran never
    shows in the output.

    **Stub files** (the active-revocation hot path): each item is one
    whole stub file to decrypt under the old file key and re-encrypt
    under the new one.  Nonces come from the caller (drawn on the client
    thread in file order), so the output is bit-identical to the serial
    path no matter how items are scheduled across workers.  Batches below
    ``min_parallel_bytes`` and ciphers that cannot be rebuilt from their
    registry name stay in-process; that does not keep winds off the
    workers.

    Degrades like :class:`ChunkTransformPool`: threads when process
    pools are unavailable, a serial redo if the pool breaks mid-batch.
    """

    def __init__(
        self,
        cipher: SymmetricCipher | None = None,
        workers: int | None = None,
        use_processes: bool = True,
        min_parallel_bytes: int = DEFAULT_MIN_PARALLEL_BYTES,
        default_stub_size: int = STUB_SIZE,
        owner: KeyRegressionOwner | None = None,
    ) -> None:
        self.cipher = cipher or get_cipher()
        self._spec = _cipher_spec(self.cipher)
        self.owner = owner
        super().__init__(
            workers,
            use_processes=use_processes
            and (self._spec is not None or owner is not None),
            initializer=_hold_derivation_key if owner is not None else None,
            initargs=(owner.derivation_key,) if owner is not None else (),
        )
        self.min_parallel_bytes = min_parallel_bytes
        self.default_stub_size = default_stub_size

    def _wind_serial(self, states: list[KeyState]) -> list[KeyState]:
        wind = self.owner.wind
        return [wind(state) for state in states]

    def wind(
        self, states: list[KeyState], parallel: bool = True
    ) -> tuple[list[KeyState], bool]:
        """Wind each key state one version, preserving order; also say
        whether the winds ran on worker processes.

        ``parallel=False`` is the caller's verdict that the window is too
        small to repay the hand-off (see :data:`MIN_PARALLEL_WIND`).
        """
        return self.map_spans_where(
            states, self._wind_serial, _wind_span, parallel=parallel
        )

    def _reencrypt_serial(
        self, items: list[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        return [
            _reencrypt_one_stub_file(self.cipher, *item, self.default_stub_size)
            for item in items
        ]

    def reencrypt(
        self, items: list[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Re-encrypt ``(stub_file, old_key, new_key, nonce)`` items in order.

        The earliest failing item raises first — the abort is
        deterministic regardless of worker scheduling.
        """
        total = sum(len(stub_file) for stub_file, *_rest in items)
        return self.map_spans(
            items,
            self._reencrypt_serial,
            _reencrypt_stub_batch,
            self._spec,
            self.default_stub_size,
            # Threads pay no pickling; a worker process needs a cipher it
            # can rebuild and a batch that repays the hand-off.
            parallel=not self.use_processes
            or (self._spec is not None and total >= self.min_parallel_bytes),
        )
