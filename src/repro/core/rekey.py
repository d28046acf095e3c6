"""Rekeying types: revocation modes and operation results.

REED supports two revocation modes (Section II-B):

* **lazy** — only the key state is renewed; re-encryption of the stored
  file is deferred until its next update.  Authorized users keep reading
  the old file by unwinding the key-regression chain.
* **active** — the file's stub file is immediately re-encrypted under the
  new file key, so even the old file version is now gated by the new key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RevocationMode(enum.Enum):
    """How existing stored data is treated when a file is rekeyed."""

    LAZY = "lazy"
    ACTIVE = "active"


@dataclass(frozen=True)
class RekeyResult:
    """What a rekey operation did (returned by ``REEDClient.rekey``)."""

    file_id: str
    mode: RevocationMode
    old_key_version: int
    new_key_version: int
    new_policy_text: str
    #: Bytes of stub file downloaded, re-encrypted, and re-uploaded
    #: (0 for lazy revocation).
    stub_bytes_reencrypted: int
    #: Storage-layer round trips (batch RPCs to data servers) issued.
    store_round_trips: int = 0
    #: Key-store round trips issued.
    keystore_round_trips: int = 0
    #: Pipeline windows shipped (0 when the operation ran unbatched).
    batches: int = 0
    #: Stub re-encryption workers configured (0 when unbatched).
    workers: int = 0
    #: Distributed trace id of the rekey's root span ("" when unbatched
    #: files ride a shared ``rekey_many`` trace — see
    #: :class:`RekeyManyResult`).
    trace_id: str = ""


@dataclass(frozen=True)
class RekeyManyResult:
    """What a batched rekey did (returned by ``REEDClient.rekey_many``).

    ``results`` holds one :class:`RekeyResult` per file, in request
    order; the top-level counters are operation-wide totals (the
    per-file results carry only their own stub bytes).
    """

    mode: RevocationMode
    new_policy_text: str
    results: tuple[RekeyResult, ...] = ()
    #: Stub bytes moved across all files (down + up).
    stub_bytes_reencrypted: int = 0
    #: Storage-layer round trips across all pipeline stages.
    store_round_trips: int = 0
    #: Key-store round trips across all pipeline stages.
    keystore_round_trips: int = 0
    #: Pipeline windows shipped (≈ ``ceil(files / batch_size)``).
    batches: int = 0
    #: Rekey workers configured: they wind key states in both modes and
    #: re-encrypt stub files in active mode.
    workers: int = 0
    #: Distributed trace id of the shared ``rekey.pipeline`` root span.
    trace_id: str = ""

    @property
    def files(self) -> int:
        return len(self.results)

    @property
    def file_ids(self) -> tuple[str, ...]:
        return tuple(result.file_id for result in self.results)
