"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the *why* behind REED's
parameter choices using this implementation:

* **stub size** (paper fixes 64 B): storage overhead vs rekey cost trade;
* **MLE key cache** (paper fixes 512 MB): hit-rate impact on uploads;
* **container size** (paper fixes 4 MB): backend object count trade.
"""

import pytest

from benchmarks.common import save_result
from repro.chunking.chunker import ChunkingSpec
from repro.core.schemes import get_scheme
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.util.units import GiB, KiB, MiB
from repro.workloads.synthetic import unique_data

CHUNK = unique_data(8 * KiB, seed=95)
KEY = bytes(range(32))


class TestStubSizeAblation:
    @pytest.mark.parametrize("stub_size", [48, 64, 128, 256])
    def test_encrypt_cost_vs_stub_size(self, benchmark, stub_size):
        """Encryption cost is stub-size independent (trim is a slice);
        what changes is the storage overhead and the rekey payload."""
        scheme = get_scheme("enhanced", stub_size=stub_size)
        split = benchmark(scheme.encrypt_chunk, CHUNK, KEY)
        overhead = stub_size / len(CHUNK)
        rekey_bytes_8g = (8 * GiB // (8 * KiB)) * stub_size
        benchmark.extra_info["storage_overhead_pct"] = round(overhead * 100, 2)
        save_result(
            "ablations",
            f"stub={stub_size}B: overhead={overhead * 100:.2f}% of 8KB chunk, "
            f"active-rekey payload for 8GB file = {rekey_bytes_8g / MiB:.0f} MiB, "
            f"trimmed={len(split.trimmed_package)}B",
        )

class TestCacheAblation:
    @pytest.mark.parametrize("cached", [False, True])
    def test_second_upload_with_and_without_cache(self, benchmark, cached):
        """The cache is the entire difference between first- and
        second-upload behaviour: without it, a re-upload still pays for
        every OPRF round trip."""
        data = unique_data(2 * MiB, seed=96)
        counter = [0]

        def setup():
            system = build_system(
                num_data_servers=1,
                chunking=ChunkingSpec(method="fixed", avg_size=8 * KiB),
                rng=HmacDrbg(b"cache-ablation"),
            )
            client = system.new_client(
                f"u{counter[0]}", cache_bytes=(32 * MiB if cached else None)
            )
            counter[0] += 1
            client.upload("first", data)
            return (client,), {}

        def second_upload(client):
            client.upload("second", data)
            return client.key_client.oprf_evaluations

        benchmark.pedantic(second_upload, setup=setup, rounds=2)
        save_result(
            "ablations",
            f"2nd upload cache={'on' if cached else 'off'}: "
            f"{benchmark.stats['mean'] * 1e3:.0f} ms",
        )


class TestContainerSizeAblation:
    @pytest.mark.parametrize("container_kib", [64, 512, 4096])
    def test_upload_vs_container_size(self, benchmark, container_kib):
        data = unique_data(2 * MiB, seed=97)
        counter = [0]

        def setup():
            system = build_system(
                num_data_servers=1,
                chunking=ChunkingSpec(method="fixed", avg_size=8 * KiB),
                rng=HmacDrbg(b"container-ablation"),
                container_bytes=container_kib * KiB,
            )
            client = system.new_client(f"u{counter[0]}", cache_bytes=32 * MiB)
            counter[0] += 1
            return (system, client), {}

        def upload(system, client):
            client.upload("file", data)
            return sum(s.store.containers.sealed_containers for s in system.servers)

        benchmark.pedantic(upload, setup=setup, rounds=2)
        save_result(
            "ablations",
            f"container={container_kib}KiB: upload 2MiB in "
            f"{benchmark.stats['mean'] * 1e3:.0f} ms",
        )


class TestGroupRekeyAblation:
    """Group rekeying vs per-file rekeying (the repro's extension of the
    paper's future-work item): one ABE op per group vs one per file."""

    @pytest.mark.parametrize("files", [2, 8])
    def test_group_vs_per_file_rekey(self, benchmark, files):
        from repro.core.groups import GroupManager
        from repro.core.policy import FilePolicy
        from repro.core.rekey import RevocationMode

        counter = [0]

        def setup():
            system = build_system(
                num_data_servers=1,
                chunking=ChunkingSpec(method="fixed", avg_size=8 * KiB),
                rng=HmacDrbg(b"group-ablation"),
            )
            owner = system.new_client(f"owner{counter[0]}", cache_bytes=32 * MiB)
            counter[0] += 1
            groups = GroupManager(owner)
            policy = FilePolicy.for_users(
                [owner.user_id] + [f"user{i}" for i in range(99)]
            )
            groups.create_group("g", policy)
            data = unique_data(256 * KiB, seed=99)
            for i in range(files):
                groups.upload("g", f"f{i}", data)
            new_policy = policy.without_users({f"user{i}" for i in range(20)})
            return (groups, new_policy), {}

        def group_rekey(groups, new_policy):
            return groups.rekey("g", new_policy, RevocationMode.LAZY)

        result = benchmark.pedantic(group_rekey, setup=setup, rounds=2)
        assert result.abe_operations == 1
        assert result.files_rewrapped == files
        save_result(
            "ablations",
            f"group rekey over {files} files (100-user policy): "
            f"{benchmark.stats['mean'] * 1e3:.1f} ms, 1 ABE op "
            f"(per-file design would need {files})",
        )
