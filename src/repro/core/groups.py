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

from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.core import envelopes
from repro.core.client import REEDClient, UploadResult
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.core.rekeypipe import FileRekeyPlan, RekeyPipeline, check_items
from repro.core.stubs import STUB_NONCE_SIZE
from repro.crypto.hashing import hmac_sha256, kdf
from repro.crypto.rsa import RSAPublicKey
from repro.keyreg.rsa_keyreg import KeyRegressionMember, KeyState
from repro.obs import scope as obs_scope
from repro.storage.keystore import KeyStateRecord
from repro.storage.recipes import FileRecipe
from repro.util.bytesutil import ct_equal
from repro.util.codec import Decoder, Encoder
from repro.util.errors import ConfigurationError, CorruptionError, IntegrityError, NotFoundError


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
    #: Rekey pipeline windows shipped.
    batches: int = 0


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
        # An empty stub file keeps the manifest a whole (stub file,
        # recipe) pair, the unit repair and rebalancing copy.
        manifest_id = self._manifest_id(group_id)
        check_items(
            self.client.storage.file_commit([(manifest_id, b"", body + mac)])
        )

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

    def _manifest_blob(self, group_id: str) -> bytes:
        [blob] = check_items(
            self.client.storage.recipe_get_many([self._manifest_id(group_id)])
        )
        return blob

    def _read_manifest(self, group_id: str, group_key: bytes) -> list[str]:
        return self._decode_manifest(self._manifest_blob(group_id), group_key)

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
        blob = self._manifest_blob(group_id)
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
        [record] = check_items(
            self.client.keystore.get_many([self.client.group_record_id(group_id)])
        )
        return record

    def create_group(self, group_id: str, policy: FilePolicy) -> None:
        """Create a group: a fresh key-regression chain under ``policy``."""
        record_id = self.client.group_record_id(group_id)
        [existing] = self.client.keystore.get_many([record_id])
        if not isinstance(existing, NotFoundError):
            raise ConfigurationError(f"group {group_id!r} already exists")
        state = self.client.keyreg_owner.initial_state()
        record = self.client._seal_key_state(record_id, state, policy)
        check_items(self.client.keystore.put_many([record]))
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
        [record] = check_items(self.client.keystore.get_many([file_id]))
        file_state = self.client._open_key_state(record)
        resealed = KeyStateRecord(
            file_id=file_id,
            policy_text=f"@group:{group_id}",
            key_version=file_state.version,
            encrypted_state=envelopes.seal_group(
                group_id,
                group_version,
                group_key,
                file_state.encode(),
                rng=self.client.rng,
            ),
            owner_public_key=record.owner_public_key,
        )
        check_items(self.client.keystore.put_many([resealed]))

    # -- rekeying ------------------------------------------------------------

    def rekey(
        self,
        group_id: str,
        new_policy: FilePolicy,
        mode: RevocationMode = RevocationMode.LAZY,
    ) -> GroupRekeyResult:
        """Rekey the whole group under ``new_policy``.

        One ABE encryption seals the new group state; every member file's
        envelope is re-wrapped under the new group key (symmetric, tiny).
        Active mode additionally winds each member file's own state and
        re-encrypts its stub file, exactly like per-file active
        revocation.

        Member files ride the batched
        :class:`~repro.core.rekeypipe.RekeyPipeline` — one batch RPC per
        stage per window instead of ~5 round trips per file, with member
        winds and stub re-encryption in the client's process.  Every
        random draw happens on this thread in file order, so the
        stored bytes do not depend on the window size.

        The group record commits first (it *is* the single ABE
        operation); member records and the manifest follow, and an
        aborted run converges on retry — the manifest read probes older
        group keys (:meth:`_read_manifest_at`) and the stub
        re-encryption recovers files whose recipes ran ahead of their
        key states.
        """
        return self._rekey(group_id, mode, lambda record: new_policy)

    def revoke_users(
        self,
        group_id: str,
        revoked: set[str],
        mode: RevocationMode = RevocationMode.LAZY,
    ) -> GroupRekeyResult:
        """Convenience: rekey with the current policy minus ``revoked``.

        The group record that names the policy is read once, inside the
        rekey's attribution scope.
        """
        return self._rekey(
            group_id,
            mode,
            lambda record: FilePolicy.parse(record.policy_text).without_users(
                revoked
            ),
        )

    def _rekey(
        self,
        group_id: str,
        mode: RevocationMode,
        policy_of: Callable[[KeyStateRecord], FilePolicy],
    ) -> GroupRekeyResult:
        """One group rekey; ``policy_of(record)`` names the new policy
        from the group's current record."""
        client = self.client
        owner = client.keyreg_owner
        tracer = client.tracer
        with obs_scope.attribution() as scope, tracer.span(
            "rekey.group", mode=mode.value
        ):
            record = self._group_record(group_id)
            new_policy = policy_of(record)
            old_state = client._open_key_state(record)
            files = self._read_manifest_at(group_id, record, old_state)

            new_state = owner.wind(old_state)
            new_key = new_state.derive_key()
            record_id = client.group_record_id(group_id)
            new_record = client._seal_key_state(record_id, new_state, new_policy)
            check_items(client.keystore.put_many([new_record]))
            stats = self._rekey_members(
                group_id, files, record, old_state, new_state.version,
                new_key, mode,
            )
            self._write_manifest(group_id, new_key, files)

        client._m_rekey_files.labels(mode=mode.value).inc(len(files))
        client._m_rekey_batches.inc(stats.batches)
        client._m_rekey_stub_bytes.inc(stats.stub_bytes)
        return GroupRekeyResult(
            group_id=group_id,
            mode=mode,
            old_group_version=old_state.version,
            new_group_version=new_state.version,
            abe_operations=1,
            files_rewrapped=len(files),
            stub_bytes_reencrypted=stats.stub_bytes,
            store_round_trips=scope.get_int("store_round_trips"),
            keystore_round_trips=scope.get_int("keystore_round_trips"),
            batches=stats.batches,
        )

    def _rekey_members(
        self,
        group_id: str,
        files: list[str],
        record: KeyStateRecord,
        old_state: KeyState,
        new_group_version: int,
        new_key: bytes,
        mode: RevocationMode,
    ):
        """Re-wrap (and actively rekey) member files through the pipeline."""
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
                payload, group_key_at(payload.group_version)
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
                # Draw order per file: stub nonce first, then the group
                # envelope's nonce (in seal_group).
                stub_fields = dict(
                    stub_file=stub_file,
                    old_file_key=client._stub_source_key(
                        file_record, old_state, recipe.key_version
                    ),
                    new_file_key=new_state.derive_key(),
                    nonce=client.rng.random_bytes(STUB_NONCE_SIZE),
                    updated_recipe=replace(
                        recipe, key_version=new_state.version
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
            active=active,
            batch_size=client.rekey_batch_size,
            pipeline_depth=client.pipeline_depth,
        )
        return pipeline.run(list(files))
