"""Group rekeying: one policy change covering many files.

The paper performs rekeying per file and poses group rekeying as future
work (Section IV-D: "we can generalize rekeying for a group of files").
This module implements that generalization with one level of key
indirection:

* a **group** owns its own key-regression chain, ABE-protected under the
  group policy (exactly like a file's key state);
* each member file's key state is sealed in a **group envelope** —
  symmetric encryption under the group key — instead of its own ABE
  ciphertext.

Rekeying the group then costs **one** CP-ABE encryption (the expensive,
per-policy-leaf operation measured in Experiment A.4) plus one tiny
symmetric re-wrap per member file; per-file rekeying would cost one
CP-ABE encryption *per file*.  For a project with hundreds of files and
hundreds of users, that is the difference between milliseconds and
minutes of policy-crypto work.

Clients open group-enveloped files transparently
(:meth:`REEDClient._open_key_state` resolves the group), so downloads,
lazy access to old versions, and revocation semantics all match the
per-file design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import envelopes
from repro.core.client import REEDClient, UploadResult
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.rekeypipe import FileRekeyPlan, RekeyPipeline
from repro.core.stubs import STUB_NONCE_SIZE
from repro.crypto.hashing import hmac_sha256, kdf
from repro.crypto.rsa import RSAPublicKey
from repro.keyreg.rsa_keyreg import KeyRegressionMember, KeyState
from repro.obs import scope as obs_scope
from repro.storage.keystore import KeyStateRecord
from repro.storage.recipes import FileRecipe
from repro.util.bytesutil import ct_equal
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError, CorruptionError, IntegrityError


@dataclass(frozen=True)
class GroupRekeyResult:
    """Accounting for one group rekey."""

    group_id: str
    mode: RevocationMode
    old_group_version: int
    new_group_version: int
    #: CP-ABE encryptions performed (always 1 — the point of the design).
    abe_operations: int
    #: Member files whose envelopes were re-wrapped.
    files_rewrapped: int
    #: Stub bytes moved (active mode only).
    stub_bytes_reencrypted: int
    #: Storage-layer round trips (batch RPCs to data servers) issued.
    store_round_trips: int = 0
    #: Key-store round trips issued.
    keystore_round_trips: int = 0
    #: Rekey pipeline windows shipped (0 on the serial path).
    batches: int = 0
    #: Rekey workers configured for member winds and stub re-encryption
    #: (0 when serial or lazy: lazy group rekeying winds no member file).
    workers: int = 0


class GroupManager:
    """Group operations for one owning client.

    The owner's derivation keypair drives the group's key-regression
    chain; any client whose attributes satisfy the group policy can read
    member files.
    """

    def __init__(self, client: REEDClient) -> None:
        if client.keyreg_owner is None:
            raise ConfigurationError("group management requires an owner client")
        self.client = client

    # -- manifest ------------------------------------------------------------

    def _manifest_id(self, group_id: str) -> str:
        return f"@group-manifest/{group_id}"

    def _write_manifest(self, group_id: str, group_key: bytes, files: list[str]) -> None:
        enc = Encoder().uint(len(files))
        for file_id in sorted(files):
            enc.text(file_id)
        body = enc.done()
        mac = hmac_sha256(kdf(group_key, "group-manifest-mac"), body)
        self.client.storage.recipe_put(self._manifest_id(group_id), body + mac)

    @staticmethod
    def _decode_manifest(blob: bytes, group_key: bytes) -> list[str]:
        if len(blob) < 32:
            raise IntegrityError("group manifest too short")
        body, mac = blob[:-32], blob[-32:]
        if not ct_equal(hmac_sha256(kdf(group_key, "group-manifest-mac"), body), mac):
            raise IntegrityError("group manifest failed authentication")
        dec = Decoder(body)
        files = [dec.text() for _ in range(dec.uint())]
        dec.expect_end()
        return files

    def _read_manifest(self, group_id: str, group_key: bytes) -> list[str]:
        blob = self.client.storage.recipe_get(self._manifest_id(group_id))
        return self._decode_manifest(blob, group_key)

    def _read_manifest_at(
        self, group_id: str, record: KeyStateRecord, state: KeyState
    ) -> list[str]:
        """Read the manifest, probing older group keys if needed.

        The group record commits before member records and the manifest
        (it is the single ABE operation), so an aborted rekey can leave
        the manifest MAC'd under an *older* group key.  Key regression
        makes recovery free: unwind the current state version by version
        until the MAC verifies.
        """
        blob = self.client.storage.recipe_get(self._manifest_id(group_id))
        try:
            return self._decode_manifest(blob, state.derive_key())
        except IntegrityError:
            pass
        member = KeyRegressionMember(RSAPublicKey.decode(record.owner_public_key))
        for version in range(state.version - 1, -1, -1):
            key = member.unwind_to(state, version).derive_key()
            try:
                return self._decode_manifest(blob, key)
            except IntegrityError:
                continue
        raise IntegrityError(
            "group manifest failed authentication at every group version"
        )

    # -- group state ------------------------------------------------------------

    def _group_record(self, group_id: str) -> KeyStateRecord:
        return self.client.keystore.get(self.client.group_record_id(group_id))

    def create_group(self, group_id: str, policy: FilePolicy) -> None:
        """Create a group: a fresh key-regression chain under ``policy``."""
        record_id = self.client.group_record_id(group_id)
        if self.client.keystore.exists(record_id):
            raise ConfigurationError(f"group {group_id!r} already exists")
        state = self.client.keyreg_owner.initial_state()
        record = self.client._seal_key_state(record_id, state, policy)
        self.client.keystore.put(record)
        self._write_manifest(group_id, state.derive_key(), [])

    def group_key(self, group_id: str) -> tuple[KeyState, bytes]:
        """The group's current key state and derived group key."""
        record = self._group_record(group_id)
        state = self.client._open_key_state(record)
        return state, state.derive_key()

    def members(self, group_id: str) -> list[str]:
        record = self._group_record(group_id)
        state = self.client._open_key_state(record)
        return self._read_manifest_at(group_id, record, state)

    # -- file membership ------------------------------------------------------

    def upload(
        self, group_id: str, file_id: str, data, pathname: str = ""
    ) -> UploadResult:
        """Upload a file into the group.

        The file's chunks and stub file are produced exactly as in a
        normal upload; only the key-state envelope differs (sealed under
        the group key instead of per-file ABE).
        """
        record = self._group_record(group_id)
        state = self.client._open_key_state(record)
        group_key = state.derive_key()
        result = self.client.upload(
            file_id, data, policy=FilePolicy.for_users([self.client.user_id]),
            pathname=pathname,
        )
        self._reseal_file(file_id, group_id, state.version, group_key)
        files = self._read_manifest_at(group_id, record, state)
        if file_id not in files:
            files.append(file_id)
        self._write_manifest(group_id, group_key, files)
        return result

    def adopt(self, group_id: str, file_id: str) -> None:
        """Move an existing (ABE-sealed) file of this owner into the group."""
        record = self._group_record(group_id)
        state = self.client._open_key_state(record)
        group_key = state.derive_key()
        self._reseal_file(file_id, group_id, state.version, group_key)
        files = self._read_manifest_at(group_id, record, state)
        if file_id in files:
            raise ConfigurationError(f"{file_id!r} already in group {group_id!r}")
        files.append(file_id)
        self._write_manifest(group_id, group_key, files)

    def _reseal_file(
        self, file_id: str, group_id: str, group_version: int, group_key: bytes
    ) -> None:
        """Replace a file's envelope with a group envelope (same state)."""
        record = self.client.keystore.get(file_id)
        file_state = self.client._open_key_state(record)
        self.client.keystore.put(
            KeyStateRecord(
                file_id=file_id,
                policy_text=f"@group:{group_id}",
                key_version=file_state.version,
                encrypted_state=envelopes.seal_group(
                    group_id,
                    group_version,
                    group_key,
                    file_state.encode(),
                    cipher=self.client.scheme.cipher,
                    rng=self.client.rng,
                ),
                owner_public_key=record.owner_public_key,
            )
        )

    # -- rekeying ------------------------------------------------------------

    def rekey(
        self,
        group_id: str,
        new_policy: FilePolicy,
        mode: RevocationMode = RevocationMode.LAZY,
        pipelined: bool = True,
        _record: KeyStateRecord | None = None,
    ) -> GroupRekeyResult:
        """Rekey the whole group under ``new_policy``.

        One ABE encryption seals the new group state; every member file's
        envelope is re-wrapped under the new group key (symmetric, tiny).
        Active mode additionally winds each member file's own state and
        re-encrypts its stub file, exactly like per-file active
        revocation.

        By default member files ride the batched
        :class:`~repro.core.rekeypipe.RekeyPipeline` — one batch RPC per
        stage per window instead of ~5 round trips per file, with stub
        re-encryption fanned out across the client's rekey workers.
        ``pipelined=False`` keeps the serial per-file reference path;
        both produce bit-identical keystore records, stub files, and
        recipes (every random draw happens on this thread in file
        order).

        The group record commits first (it *is* the single ABE
        operation); member records and the manifest follow, and an
        aborted run converges on retry — the manifest read probes older
        group keys (:meth:`_read_manifest_at`) and the stub
        re-encryption recovers files whose recipes ran ahead of their
        key states.
        """
        client = self.client
        owner = client.keyreg_owner
        tracer = client.tracer
        with obs_scope.attribution() as scope, tracer.span(
            "rekey.group", mode=mode.value
        ):
            record = _record if _record is not None else self._group_record(group_id)
            old_state = client._open_key_state(record)
            files = self._read_manifest_at(group_id, record, old_state)

            new_state = owner.wind(old_state)
            new_key = new_state.derive_key()
            record_id = client.group_record_id(group_id)
            client.keystore.put(
                client._seal_key_state(record_id, new_state, new_policy)
            )

            stub_bytes = 0
            batches = 0
            if pipelined:
                stats = self._rekey_members_pipelined(
                    group_id, files, record, old_state, new_state.version,
                    new_key, mode,
                )
                stub_bytes = stats.stub_bytes
                batches = stats.batches
            else:
                for file_id in files:
                    file_record = client.keystore.get(file_id)
                    file_state = client._open_key_state(file_record)
                    if mode is RevocationMode.ACTIVE:
                        file_state, moved = self._actively_rekey_file(
                            file_record, file_state
                        )
                        stub_bytes += moved
                    client.keystore.put(
                        KeyStateRecord(
                            file_id=file_id,
                            policy_text=f"@group:{group_id}",
                            key_version=file_state.version,
                            encrypted_state=envelopes.seal_group(
                                group_id,
                                new_state.version,
                                new_key,
                                file_state.encode(),
                                cipher=client.scheme.cipher,
                                rng=client.rng,
                            ),
                            owner_public_key=file_record.owner_public_key,
                        )
                    )
            self._write_manifest(group_id, new_key, files)

        active = mode is RevocationMode.ACTIVE
        client._m_rekey_files.labels(mode=mode.value).inc(len(files))
        client._m_rekey_batches.inc(batches)
        client._m_rekey_stub_bytes.inc(stub_bytes)
        return GroupRekeyResult(
            group_id=group_id,
            mode=mode,
            old_group_version=old_state.version,
            new_group_version=new_state.version,
            abe_operations=1,
            files_rewrapped=len(files),
            stub_bytes_reencrypted=stub_bytes,
            store_round_trips=scope.get_int("store_round_trips"),
            keystore_round_trips=scope.get_int("keystore_round_trips"),
            batches=batches,
            workers=client.rekey_workers if (pipelined and active) else 0,
        )

    def _rekey_members_pipelined(
        self,
        group_id: str,
        files: list[str],
        record: KeyStateRecord,
        old_state: KeyState,
        new_group_version: int,
        new_key: bytes,
        mode: RevocationMode,
    ):
        """Re-wrap (and actively rekey) member files via the pipeline."""
        client = self.client
        active = mode is RevocationMode.ACTIVE

        # Member envelopes reference group versions <= old_state.version.
        # Opening them through client._open_key_state would re-fetch and
        # ABE-open the group record once per file; deriving old group
        # keys from the state we already hold keeps the keystore cost at
        # one batch RPC per window.
        member_view = KeyRegressionMember(
            RSAPublicKey.decode(record.owner_public_key)
        )
        group_keys: dict[int, bytes] = {old_state.version: old_state.derive_key()}

        def group_key_at(version: int) -> bytes:
            key = group_keys.get(version)
            if key is None:
                if version > old_state.version:
                    raise CorruptionError(
                        f"envelope references future group version {version}"
                    )
                key = member_view.unwind_to(old_state, version).derive_key()
                group_keys[version] = key
            return key

        def open_member_state(file_record: KeyStateRecord) -> KeyState:
            tag, payload = envelopes.decode_envelope(file_record.encrypted_state)
            if tag != envelopes.TAG_GROUP or payload.group_id != group_id:
                return client._open_key_state(file_record)
            plaintext = envelopes.open_group(
                payload, group_key_at(payload.group_version),
                cipher=client.scheme.cipher,
            )
            state = KeyState.decode(plaintext)
            if state.version != file_record.key_version:
                raise CorruptionError(
                    "key-state version disagrees with its record metadata"
                )
            return state

        def plan_file(
            file_id: str,
            file_record: KeyStateRecord,
            old_state: KeyState,
            new_state: KeyState,
            recipe_bytes: bytes | None,
            stub_file: bytes | None,
        ) -> FileRekeyPlan:
            stub_fields = {}
            if active:
                recipe = FileRecipe.decode(recipe_bytes)
                # Draw order matches the serial path per file: stub nonce
                # first, then the group envelope's nonce (in seal_group).
                stub_fields = dict(
                    stub_file=stub_file,
                    old_file_key=client._stub_source_key(
                        file_record, old_state, recipe.key_version
                    ),
                    new_file_key=new_state.derive_key(),
                    nonce=client.rng.random_bytes(STUB_NONCE_SIZE),
                    updated_recipe=FileRecipe(
                        file_id=recipe.file_id,
                        pathname=recipe.pathname,
                        size=recipe.size,
                        scheme=recipe.scheme,
                        key_version=new_state.version,
                        chunks=recipe.chunks,
                    ).encode(),
                )
            new_record = KeyStateRecord(
                file_id=file_id,
                policy_text=f"@group:{group_id}",
                key_version=new_state.version,
                encrypted_state=envelopes.seal_group(
                    group_id,
                    new_group_version,
                    new_key,
                    new_state.encode(),
                    cipher=client.scheme.cipher,
                    rng=client.rng,
                ),
                owner_public_key=file_record.owner_public_key,
            )
            return FileRekeyPlan(
                file_id=file_id,
                new_record=new_record,
                old_key_version=old_state.version,
                new_key_version=new_state.version,
                **stub_fields,
            )

        # Lazy group rekeying re-wraps member states as they are; only
        # active mode winds them.
        pipeline = RekeyPipeline(
            client.storage,
            client.keystore,
            opener=open_member_state,
            planner=plan_file,
            tracer=client.tracer,
            winder=client._wind if active else None,
            stub_pool=client._rekey_pool,
            active=active,
            batch_size=client.rekey_batch_size,
            pipeline_depth=client.pipeline_depth,
        )
        return pipeline.run(list(files))

    def _actively_rekey_file(
        self, record: KeyStateRecord, state: KeyState
    ) -> tuple[KeyState, int]:
        """Wind a member file's state and re-encrypt its stub file."""
        client = self.client
        recipe = FileRecipe.decode(client.storage.recipe_get(record.file_id))
        old_file_key = client._stub_source_key(record, state, recipe.key_version)
        (new_state,) = client._wind([state])
        stub_file = client.storage.stub_get(record.file_id)
        nonce = client.rng.random_bytes(STUB_NONCE_SIZE)
        (new_stub_file,) = client._rekey_pool.reencrypt(
            [(stub_file, old_file_key, new_state.derive_key(), nonce)]
        )
        client.storage.stub_put(record.file_id, new_stub_file)
        updated = FileRecipe(
            file_id=recipe.file_id,
            pathname=recipe.pathname,
            size=recipe.size,
            scheme=recipe.scheme,
            key_version=new_state.version,
            chunks=recipe.chunks,
        )
        client.storage.recipe_put(record.file_id, updated.encode())
        return new_state, len(stub_file) + len(new_stub_file)

    def revoke_users(
        self,
        group_id: str,
        revoked: set[str],
        mode: RevocationMode = RevocationMode.LAZY,
        pipelined: bool = True,
    ) -> GroupRekeyResult:
        """Convenience: rekey with the current policy minus ``revoked``."""
        record = self._group_record(group_id)
        current = FilePolicy.parse(record.policy_text)
        return self.rekey(
            group_id,
            current.without_users(revoked),
            mode,
            pipelined=pipelined,
            _record=record,
        )
