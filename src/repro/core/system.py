"""System assembly: wire clients, servers, key manager, and authority.

The paper's testbed (Section VI) runs one key manager, four data-store
servers, one key-store server, and one or more clients.  This module
holds the one client builder (:func:`build_client`) and the one owner
enrollment (:class:`Enrollment`) under every placement of that topology:
**in-process** here (:func:`build_system`, direct calls — the default
for tests, examples, and experiments), **over TCP** in one process
(:class:`~repro.core.cluster.TcpCluster`), or one process per node
(``reed serve`` and the ``reed`` client commands).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.abe.cpabe import AttributeAuthority
from repro.chunking.chunker import ChunkingSpec
from repro.core.client import REEDClient
from repro.core.server import REEDServer, StorageService
from repro.crypto.drbg import SYSTEM_RANDOM, RandomSource
from repro.keyreg.rsa_keyreg import KeyRegressionOwner
from repro.mle.cache import MLEKeyCache
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import (
    DEFAULT_BATCH_SIZE,
    KeyManagerChannel,
    LocalKeyManagerChannel,
    ServerAidedKeyClient,
)
from repro.obs.metrics import default_registry
from repro.obs.tracing import default_tracer
from repro.storage.backend import MemoryBackend
from repro.storage.datastore import DataStore, DataStoreStats
from repro.storage.keystore import KeyStore
from repro.storage.sharding import ShardedStorageService
from repro.util.errors import ConfigurationError

#: RSA modulus size used by default in tests and experiments.  The paper
#: uses 1024-bit RSA; 512 bits keeps in-process experiment setup fast
#: while exercising identical code paths.  Pass ``key_bits=1024`` for the
#: paper configuration.
FAST_KEY_BITS = 512

#: Paper topology: four data-store servers (the fifth runs the key store).
DEFAULT_DATA_SERVERS = 4


class Enrollment:
    """The derivation keypairs of enrolled owners, one per user.

    Enrolling an owner again returns the keypair it already holds, as
    for a second device of the same user: no keypair is generated and
    thrown away, and a user never ends up with two different ones.
    """

    def __init__(self, key_bits: int, rng: RandomSource) -> None:
        self._key_bits = key_bits
        self._rng = rng
        self._owners: dict[str, KeyRegressionOwner] = {}

    def owner(self, user_id: str) -> KeyRegressionOwner:
        """The user's derivation keypair, generated on first enrollment."""
        owner = self._owners.get(user_id)
        if owner is None:
            owner = KeyRegressionOwner(key_bits=self._key_bits, rng=self._rng)
            self._owners[user_id] = owner
        return owner


def build_client(
    user_id: str,
    authority: AttributeAuthority,
    keyreg_owner: KeyRegressionOwner | None,
    key_manager: KeyManagerChannel,
    storage: StorageService,
    keystore: KeyStore,
    cache_bytes: int | None = None,
    key_batch_size: int = DEFAULT_BATCH_SIZE,
    rng: RandomSource | None = None,
    **options,
) -> REEDClient:
    """Build one user's client over wherever the services were placed.

    ``key_manager``, ``storage`` and ``keystore`` are in-process objects
    (:func:`build_system`) or ``Remote*`` stubs over TCP
    (:class:`~repro.core.cluster.TcpCluster`, the ``reed`` CLI); the
    client cannot tell them apart.  ``keyreg_owner`` is the user's
    derivation keypair (None for a read-only participant);
    ``cache_bytes`` sizes the MLE key cache (None disables caching,
    mirroring the paper's cache on/off experiments).  ``options`` go to
    :class:`REEDClient`; one set to None keeps the client's default.
    """
    key_client = ServerAidedKeyClient(
        key_manager,
        client_id=user_id,
        cache=MLEKeyCache(cache_bytes) if cache_bytes else None,
        batch_size=key_batch_size,
        rng=rng,
    )
    return REEDClient(
        user_id=user_id,
        key_client=key_client,
        storage=storage,
        keystore=keystore,
        private_access_key=authority.issue_private_key(user_id),
        wrap_keys_provider=authority.wrap_keys_for,
        keyreg_owner=keyreg_owner,
        rng=rng,
        **{name: value for name, value in options.items() if value is not None},
    )


@dataclass
class ReedSystem:
    """A fully wired REED deployment plus user enrollment.

    Create one with :func:`build_system`, enroll users with
    :meth:`new_client`, and drive uploads/downloads/rekeys through the
    returned :class:`~repro.core.client.REEDClient` objects.
    """

    key_manager: KeyManager
    authority: AttributeAuthority
    servers: list[REEDServer]
    keystore: KeyStore
    storage: ShardedStorageService
    enrollment: Enrollment
    scheme: str = "enhanced"
    chunking: ChunkingSpec | None = None
    key_batch_size: int = DEFAULT_BATCH_SIZE
    rng: RandomSource = SYSTEM_RANDOM

    def new_client(
        self,
        user_id: str,
        owner: bool = True,
        cache_bytes: int | None = None,
        scheme: str | None = None,
        chunk_cache_bytes: int | None = None,
    ) -> REEDClient:
        """Enroll a user and build their client.

        ``owner=False`` creates a read-only participant (no derivation
        keypair); an owner enrolled before gets a second client on the
        same keypair.  ``cache_bytes`` sizes the MLE key cache (None
        disables it).  ``chunk_cache_bytes`` enables the client-side
        trimmed-package read cache (None disables it).
        """
        return build_client(
            user_id,
            self.authority,
            self.enrollment.owner(user_id) if owner else None,
            LocalKeyManagerChannel(self.key_manager),
            self.storage,
            self.keystore,
            cache_bytes=cache_bytes,
            key_batch_size=self.key_batch_size,
            rng=self.rng,
            scheme=scheme or self.scheme,
            chunking=self.chunking,
            chunk_cache_bytes=chunk_cache_bytes,
        )

    @property
    def storage_stats(self) -> DataStoreStats:
        """Aggregate storage accounting across all data servers."""
        total = DataStoreStats()
        for server in self.servers:
            stats = server.stats
            total.logical_bytes += stats.logical_bytes
            total.physical_bytes += stats.physical_bytes
            total.stub_bytes += stats.stub_bytes
            total.chunks_received += stats.chunks_received
            total.chunks_stored += stats.chunks_stored
        return total


def build_system(
    num_data_servers: int = DEFAULT_DATA_SERVERS,
    scheme: str = "enhanced",
    chunking: ChunkingSpec | None = None,
    key_bits: int = FAST_KEY_BITS,
    key_batch_size: int = DEFAULT_BATCH_SIZE,
    rate_limit: float | None = None,
    rng: RandomSource | None = None,
    backends: list | None = None,
    container_bytes: int | None = None,
    replicas: int = 1,
    write_quorum: int | None = None,
) -> ReedSystem:
    """Build an in-process REED deployment with the paper's topology.

    ``backends`` optionally supplies one :class:`BlobBackend` per data
    server (e.g. :class:`DirectoryBackend` for durable storage); memory
    backends are used by default.  The client always talks to the
    servers through one :class:`ShardedStorageService`, even a single
    one; ``replicas``/``write_quorum`` configure ring replication across
    them (R=1 keeps the paper's plain striping).
    """
    if num_data_servers < 1:
        raise ConfigurationError("need at least one data server")
    rng = rng or SYSTEM_RANDOM
    km_kwargs = {}
    if rate_limit is not None:
        # Scale the burst with the configured rate so a small rate limit
        # actually limits (the default burst is sized for the default rate).
        km_kwargs["rate_limit"] = rate_limit
        km_kwargs["burst"] = max(rate_limit, 1.0)
    key_manager = KeyManager(key_bits=key_bits, rng=rng, **km_kwargs)
    # In process, the manager is served where its clients run.
    key_manager.observe_on(default_registry(), default_tracer())
    authority = AttributeAuthority(rng=rng)
    if backends is None:
        backends = [MemoryBackend() for _ in range(num_data_servers)]
    if len(backends) != num_data_servers:
        raise ConfigurationError("one backend per data server required")
    store_kwargs = {}
    if container_bytes is not None:
        store_kwargs["container_bytes"] = container_bytes
    servers = [REEDServer(DataStore(backend, **store_kwargs)) for backend in backends]
    return ReedSystem(
        key_manager=key_manager,
        authority=authority,
        servers=servers,
        keystore=KeyStore(),
        storage=ShardedStorageService(
            list(servers), replicas=replicas, write_quorum=write_quorum
        ),
        enrollment=Enrollment(key_bits, rng),
        scheme=scheme,
        chunking=chunking,
        key_batch_size=key_batch_size,
        rng=rng,
    )
