"""Client worker pools: chunk transforms and rekeying.

The chunk transform (MLE encryption + CAONT packaging) is pure Python and
CPU-bound, so the GIL serializes it no matter how many threads run it —
the journal version of REED reaches its reported throughputs only with
truly concurrent chunk encryption.  :class:`ChunkTransformPool` runs the
transform across *processes*: chunk batches are pickled to workers, each
worker rebuilds the encryption scheme once from its name and stub size,
and results are reassembled in submission order.  :class:`RekeyPool` does
the same for the two CPU-bound steps of a rekey: key-regression winds
(one private RSA operation per file) and stub-file re-encryption.

The worker lifecycle, span slicing and the in-process path (small
batches, single-worker configurations, no process pools, the redo after
a worker died) live in :class:`~repro.util.spanpool.SpanPool`; the pools
here add what they transform and when a batch is worth the hand-off.
A scheme whose name would rebuild a different class (a subclass) is
refused, so workers never run another scheme than the caller's.

Worker processes are started lazily on first use and reused across
uploads; call :meth:`ChunkTransformPool.close` (or
:meth:`REEDClient.close <repro.core.client.REEDClient.close>`) to reap
them deterministically.
"""

from __future__ import annotations

from repro.core.schemes import STUB_SIZE, EncryptionScheme, SplitPackage, get_scheme
from repro.core.stubs import decrypt_stub_file, encrypt_stub_file
from repro.crypto.rsa import RSAPrivateKey
from repro.keyreg.rsa_keyreg import KeyRegressionOwner, KeyState
from repro.util.errors import ConfigurationError, IntegrityError
from repro.util.spanpool import SpanPool

#: Below this many bytes per batch the fork/pickle overhead exceeds the
#: parallel win and the transform runs serially in-process.
DEFAULT_MIN_PARALLEL_BYTES = 1 << 20

#: Rekey windows of fewer key states wind on the caller thread: a wind
#: is ~0.7 ms of CPU (one 1024-bit three-prime private-key operation at
#: reference host speed), and handing a window to two workers costs
#: about two winds, so a handful of them does not repay the hand-off.
#: A single-file rekey never starts the workers at all.
MIN_PARALLEL_WIND = 8


# -- worker-process side -----------------------------------------------------

#: Per-process scheme cache: workers rebuild the scheme once per
#: (scheme name, stub size) and reuse it for every batch.
_WORKER_SCHEMES: dict[tuple[str, int], EncryptionScheme] = {}


def _worker_scheme(spec: tuple[str, int]) -> EncryptionScheme:
    scheme = _WORKER_SCHEMES.get(spec)
    if scheme is None:
        scheme = _WORKER_SCHEMES[spec] = get_scheme(*spec)
    return scheme


def _encrypt_batch(
    spec: tuple[str, int], pairs: list[tuple[bytes, bytes]]
) -> list[SplitPackage]:
    """Worker entry point: transform ``(chunk, mle_key)`` pairs.

    Module-level (picklable) by design; the scheme travels as its name
    and stub size, never as a pickled object graph.
    """
    encrypt = _worker_scheme(spec).encrypt_chunk
    return [encrypt(chunk, mle_key) for chunk, mle_key in pairs]


def _decrypt_batch(
    spec: tuple[str, int], pairs: list[tuple[bytes, bytes]]
) -> list[bytes]:
    """Worker entry point: invert ``(trimmed_package, stub)`` pairs.

    Integrity failures (tampered package) raise
    :class:`~repro.util.errors.IntegrityError`, which pickles back to the
    client intact.
    """
    decrypt = _worker_scheme(spec).decrypt_chunk
    return [decrypt(trimmed, stub) for trimmed, stub in pairs]


def _reencrypt_one_stub_file(
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
        stubs = decrypt_stub_file(old_key, stub_file)
    except IntegrityError:
        if new_key == old_key:
            raise
        stubs = decrypt_stub_file(new_key, stub_file)
    stub_size = len(stubs[0]) if stubs else default_stub_size
    return encrypt_stub_file(new_key, stubs, stub_size=stub_size, nonce=nonce)


def _reencrypt_stub_batch(
    default_stub_size: int, items: list[tuple[bytes, bytes, bytes, bytes]]
) -> list[bytes]:
    """Worker entry point: ``(stub_file, old_key, new_key, nonce)`` items."""
    return [_reencrypt_one_stub_file(*item, default_stub_size) for item in items]


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


class ChunkTransformPool(SpanPool):
    """Runs ``scheme.encrypt_chunk`` over batches, in parallel when it pays.

    ``workers`` defaults to
    :func:`~repro.util.spanpool.default_worker_count`.  Workers rebuild
    the scheme from ``(scheme.name, scheme.stub_size)``; a scheme those
    would not rebuild (a subclass) raises :class:`ConfigurationError`.
    """

    def __init__(
        self,
        scheme: EncryptionScheme,
        workers: int | None = None,
        min_parallel_bytes: int = DEFAULT_MIN_PARALLEL_BYTES,
    ) -> None:
        self._spec = (scheme.name, scheme.stub_size)
        if type(get_scheme(*self._spec)) is not type(scheme):
            raise ConfigurationError(
                f"{type(scheme).__name__} is not the {scheme.name!r} scheme "
                "its workers would rebuild"
            )
        super().__init__(workers)
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
        return self.map_spans_where(
            list(zip(chunks, mle_keys)),
            self._encrypt_serial,
            _encrypt_batch,
            self._spec,
            parallel=sum(map(len, chunks)) >= self.min_parallel_bytes,
        )[0]

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
        return self.map_spans_where(
            list(zip(trimmed, stubs)),
            self._decrypt_serial,
            _decrypt_batch,
            self._spec,
            parallel=sum(map(len, trimmed)) >= self.min_parallel_bytes,
        )[0]


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
    ``min_parallel_bytes`` stay in-process.

    Degrades like :class:`ChunkTransformPool`: in-process when process
    pools are unavailable, a serial redo if the pool breaks mid-batch.
    """

    def __init__(
        self,
        workers: int | None = None,
        min_parallel_bytes: int = DEFAULT_MIN_PARALLEL_BYTES,
        default_stub_size: int = STUB_SIZE,
        owner: KeyRegressionOwner | None = None,
    ) -> None:
        self.owner = owner
        super().__init__(
            workers,
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
            _reencrypt_one_stub_file(*item, self.default_stub_size) for item in items
        ]

    def reencrypt(
        self, items: list[tuple[bytes, bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Re-encrypt ``(stub_file, old_key, new_key, nonce)`` items in order.

        The earliest failing item raises first — the abort is
        deterministic regardless of worker scheduling.
        """
        total = sum(len(stub_file) for stub_file, *_rest in items)
        return self.map_spans_where(
            items,
            self._reencrypt_serial,
            _reencrypt_stub_batch,
            self.default_stub_size,
            parallel=total >= self.min_parallel_bytes,
        )[0]
