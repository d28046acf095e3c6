"""Storage analysis: fragmentation and dedup statistics.

Experiment B.2 observes download speed degrading over backup generations
because "deduplication introduces chunk fragmentation for subsequent
backups" (Lillibridge et al.): a new snapshot's chunks mostly live in
containers written by *older* snapshots, so restoring it touches many
scattered containers.  The paper measures the symptom; this module
measures the cause, so the effect can be quantified per file:

* how many distinct containers a file's chunks live in,
* the read amplification of a restore (container bytes fetched per file
  byte), and
* a locality score (longest run of chunks in one container).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.datastore import DataStore
from repro.storage.recipes import FileRecipe
from repro.storage.sharding import HashRing, ShardedStorageService
from repro.util.errors import NotFoundError


@dataclass(frozen=True)
class FragmentationReport:
    """Restore-locality metrics for one stored file."""

    file_id: str
    chunk_count: int
    file_bytes: int
    #: Distinct containers holding at least one of the file's chunks.
    containers_touched: int
    #: Total bytes of those containers (what a naive restore fetches).
    container_bytes: int
    #: container_bytes / file_bytes — 1.0 is perfectly packed.
    read_amplification: float
    #: Number of contiguous container runs in recipe order; equals the
    #: number of container switches a sequential restore performs + 1.
    container_runs: int
    #: Mean chunks fetched per touched container.
    chunks_per_container: float


def analyze_file(store: DataStore, recipe: FileRecipe) -> FragmentationReport:
    """Compute fragmentation metrics for a file against one data store.

    Every chunk of the recipe must be indexed in ``store`` (for sharded
    deployments, run per shard and merge, or use
    :func:`analyze_sharded`).
    """
    containers: dict[int, int] = {}
    runs = 0
    previous_container: int | None = None
    for ref in recipe.chunks:
        location = store.index.lookup(ref.fingerprint)
        containers[location.container_id] = (
            containers.get(location.container_id, 0) + 1
        )
        if location.container_id != previous_container:
            runs += 1
            previous_container = location.container_id
    container_bytes = 0
    for container_id in containers:
        # Payload length (no frame header): what a restore actually
        # handles per container.
        container_bytes += store.containers.payload_length(container_id)
    file_bytes = max(1, recipe.size)
    return FragmentationReport(
        file_id=recipe.file_id,
        chunk_count=recipe.chunk_count,
        file_bytes=recipe.size,
        containers_touched=len(containers),
        container_bytes=container_bytes,
        read_amplification=container_bytes / file_bytes,
        container_runs=runs,
        chunks_per_container=(
            recipe.chunk_count / len(containers) if containers else 0.0
        ),
    )


def analyze_sharded(shards, recipe: FileRecipe) -> FragmentationReport:
    """Fragmentation metrics across a sharded deployment.

    ``shards`` is either a
    :class:`~repro.storage.sharding.ShardedStorageService` over
    in-process :class:`~repro.core.server.REEDServer` nodes (preferred —
    analysis then follows the engine's real ring, node ids, and replica
    placement) or a plain list of :class:`DataStore` shards, assumed to
    be ring nodes ``node-0 .. node-(n-1)`` in order.  Each chunk is
    attributed to the first node on its ring preference list whose
    index holds it, so a replica that landed off-primary (a degraded
    write, or placement not yet rebalanced) is still found instead of
    raising.
    """
    if isinstance(shards, ShardedStorageService):
        ring = shards.ring
        node_ids = shards.node_ids()
        stores = {node: shards.node_service(node).store for node in node_ids}
    else:
        node_ids = [f"node-{index}" for index in range(len(shards))]
        ring = HashRing(node_ids)
        stores = dict(zip(node_ids, shards))
    node_index = {node: index for index, node in enumerate(node_ids)}
    containers: dict[tuple[int, int], int] = {}
    runs = 0
    previous: tuple[int, int] | None = None
    container_bytes = 0
    seen_containers: set[tuple[int, int]] = set()
    for ref in recipe.chunks:
        shard = None
        location = None
        for node in ring.preference(ref.fingerprint, len(node_ids)):
            try:
                location = stores[node].index.lookup(ref.fingerprint)
            except NotFoundError:
                continue
            shard = stores[node]
            shard_index = node_index[node]
            break
        if location is None or shard is None:
            raise NotFoundError(
                f"chunk {ref.fingerprint.hex()} not indexed on any shard"
            )
        key = (shard_index, location.container_id)
        containers[key] = containers.get(key, 0) + 1
        if key != previous:
            runs += 1
            previous = key
        if key not in seen_containers:
            seen_containers.add(key)
            container_bytes += shard.containers.payload_length(
                location.container_id
            )
    file_bytes = max(1, recipe.size)
    return FragmentationReport(
        file_id=recipe.file_id,
        chunk_count=recipe.chunk_count,
        file_bytes=recipe.size,
        containers_touched=len(containers),
        container_bytes=container_bytes,
        read_amplification=container_bytes / file_bytes,
        container_runs=runs,
        chunks_per_container=(
            recipe.chunk_count / len(containers) if containers else 0.0
        ),
    )


def fragmentation_over_generations(
    store: DataStore, recipes: list[FileRecipe]
) -> list[FragmentationReport]:
    """Reports for a series of backup generations, oldest first.

    The Experiment B.2 effect shows up as ``containers_touched`` and
    ``read_amplification`` trending upward across generations.
    """
    reports = []
    for recipe in recipes:
        try:
            reports.append(analyze_file(store, recipe))
        except NotFoundError:
            # A generation whose chunks were partially GCed cannot be
            # analyzed meaningfully; skip it rather than guess.
            continue
    return reports
