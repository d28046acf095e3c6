"""Tests for threshold (k-of-n) key managers."""

import pytest

from repro.crypto import blindrsa
from repro.crypto.drbg import HmacDrbg
from repro.mle.keymanager import KeyManager
from repro.mle.server_aided import ServerAidedKeyClient
from repro.mle.threshold import (
    ThresholdKeyManagerChannel,
    build_group,
    combine_partials,
    split_key,
)
from repro.util.errors import ConfigurationError, KeyManagerError


@pytest.fixture()
def group(rsa_512):
    return build_group(rsa_512, threshold=3, players=5, rng=HmacDrbg(b"t"))


class TestSplitting:
    def test_share_count_and_metadata(self, rsa_512):
        shares = split_key(rsa_512, 2, 4, rng=HmacDrbg(b"s"))
        assert len(shares) == 4
        assert [s.index for s in shares] == [1, 2, 3, 4]
        assert all(s.threshold == 2 and s.players == 4 for s in shares)

    def test_invalid_threshold(self, rsa_512):
        with pytest.raises(ConfigurationError):
            split_key(rsa_512, 5, 4)
        with pytest.raises(ConfigurationError):
            split_key(rsa_512, 0, 4)


class TestCombination:
    def test_any_k_subset_signs(self, rsa_512):
        managers, _channel = build_group(rsa_512, 3, 5, rng=HmacDrbg(b"t"))
        blinded = 123456789
        partials = {
            m.index: m.sign_batch_partial("c", [blinded])[0] for m in managers
        }
        import itertools

        expected = rsa_512.apply(blinded)
        for subset in itertools.combinations(sorted(partials), 3):
            sig = combine_partials(
                rsa_512.public,
                blinded,
                {i: partials[i] for i in subset},
                threshold=3,
                players=5,
            )
            assert sig == expected

    @pytest.mark.parametrize("threshold, players", [(2, 3), (3, 5)])
    def test_three_prime_key_splits_over_every_prime(self, rsa_1024, threshold, players):
        """Shares live modulo phi over all three primes; a dealer that
        used only two would deal shares no quorum can sign with."""
        assert len(rsa_1024.primes) == 3
        managers, _channel = build_group(
            rsa_1024, threshold, players, rng=HmacDrbg(b"three-prime")
        )
        for blinded in (2, 123456789, rsa_1024.n - 1):
            partials = {
                m.index: m.sign_batch_partial("c", [blinded])[0]
                for m in managers[-threshold:]
            }
            assert combine_partials(
                rsa_1024.public, blinded, partials, threshold, players
            ) == rsa_1024.apply(blinded)

    def test_below_threshold_fails(self, rsa_512):
        managers, _channel = build_group(rsa_512, 3, 5, rng=HmacDrbg(b"t"))
        blinded = 42
        partials = {
            m.index: m.sign_batch_partial("c", [blinded])[0] for m in managers[:2]
        }
        with pytest.raises(KeyManagerError):
            combine_partials(rsa_512.public, blinded, partials, 3, 5)

    def test_corrupt_partial_detected(self, rsa_512):
        managers, _channel = build_group(rsa_512, 2, 3, rng=HmacDrbg(b"t"))
        blinded = 777
        partials = {
            m.index: m.sign_batch_partial("c", [blinded])[0] for m in managers[:2]
        }
        partials[1] = (partials[1] + 1) % rsa_512.n
        with pytest.raises(KeyManagerError):
            combine_partials(rsa_512.public, blinded, partials, 2, 3)


class TestChannel:
    def test_oprf_matches_single_manager(self, rsa_512, group, rng):
        """The headline interoperability property: threshold-derived MLE
        keys equal single-manager keys, so dedup spans deployments."""
        _managers, channel = group
        client = ServerAidedKeyClient(channel, "alice", rng=rng)
        fp = b"\x15" * 32
        assert client.derive_keys([fp])[0] == blindrsa.derive_mle_key_directly(rsa_512, fp)

    def test_survives_manager_failures(self, rsa_512, group, rng):
        managers, channel = group
        managers[0].available = False
        managers[3].available = False  # 3 of 5 remain: exactly threshold
        client = ServerAidedKeyClient(channel, "alice", rng=rng)
        fp = b"\x16" * 32
        assert client.derive_keys([fp])[0] == blindrsa.derive_mle_key_directly(rsa_512, fp)

    def test_too_many_failures_fails_loudly(self, rsa_512, group, rng):
        managers, channel = group
        for manager in managers[:3]:
            manager.available = False  # only 2 remain < threshold 3
        client = ServerAidedKeyClient(channel, "alice", rng=rng, max_retries=0)
        with pytest.raises(KeyManagerError):
            client.derive_keys([b"\x17" * 32])

    def test_batching_through_group(self, rsa_512, group, rng):
        managers, channel = group
        client = ServerAidedKeyClient(channel, "alice", rng=rng, batch_size=4)
        fps = [bytes([i]) * 32 for i in range(10)]
        keys = client.derive_keys(fps)
        assert keys == [blindrsa.derive_mle_key_directly(rsa_512, fp) for fp in fps]
        # Only threshold-many managers did work per batch.
        working = [m for m in managers if m.signatures > 0]
        assert len(working) == 3

    def test_blindness_preserved(self, rsa_512, group, rng):
        """Managers see only blinded values — two requests for the same
        fingerprint look unrelated to every manager."""
        _managers, channel = group
        seen = []
        original = channel.derive_batch

        def spy(client_id, blinded_values):
            seen.extend(blinded_values)
            return original(client_id, blinded_values)

        channel.derive_batch = spy
        client = ServerAidedKeyClient(channel, "alice", rng=rng)
        fp = b"\x18" * 32
        k1 = client.derive_keys([fp])[0]
        k2 = client.derive_keys([fp])[0]
        assert k1 == k2
        assert len(seen) == 2 and seen[0] != seen[1]

    def test_duplicate_indexes_rejected(self, rsa_512):
        managers, _channel = build_group(rsa_512, 2, 3, rng=HmacDrbg(b"t"))
        with pytest.raises(ConfigurationError):
            ThresholdKeyManagerChannel([managers[0], managers[0]])

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdKeyManagerChannel([])


class TestEndToEndWithReed:
    def test_reed_client_over_threshold_group(self, rsa_512, system, rng):
        """A REED client whose keys come from a 2-of-3 group dedups
        against one whose keys come from the plain key manager — when
        both groups share the same OPRF key."""
        from repro.mle.threshold import build_group
        from repro.workloads.synthetic import unique_data

        # Swap in a key manager built around a known private key (its
        # signer workers hold the key it was built with).
        system.key_manager = KeyManager(private_key=rsa_512)
        alice = system.new_client("alice")

        _managers, channel = build_group(rsa_512, 2, 3, rng=HmacDrbg(b"g"))
        bob = system.new_client("bob")
        bob.key_client = ServerAidedKeyClient(channel, "bob", rng=rng)

        data = unique_data(60_000, seed=55)
        alice.upload("a-file", data)
        result = bob.upload("b-file", data)
        assert result.new_chunks == 0  # full dedup across key-manager types
        assert bob.download("b-file").data == data


class TestThresholdOverRpc:
    def test_threshold_group_over_loopback_rpc(self, rsa_512, rng):
        """Each threshold manager behind its own RPC registry; the client
        combines remote partials into correct MLE keys."""
        from repro.core.service import (
            RemoteThresholdManager,
            register_threshold_key_manager,
        )
        from repro.net.rpc import LoopbackTransport, ServiceRegistry

        managers, _local_channel = build_group(
            rsa_512, threshold=2, players=3, rng=HmacDrbg(b"rpc")
        )
        stubs = []
        for manager in managers:
            registry = ServiceRegistry()
            register_threshold_key_manager(registry, manager)
            stubs.append(
                RemoteThresholdManager(LoopbackTransport(registry).client())
            )
        channel = ThresholdKeyManagerChannel(stubs)
        client = ServerAidedKeyClient(channel, "alice", rng=rng)
        fp = b"\x19" * 32
        assert client.derive_keys([fp])[0] == blindrsa.derive_mle_key_directly(rsa_512, fp)

    def test_remote_group_survives_one_failure(self, rsa_512, rng):
        from repro.core.service import (
            RemoteThresholdManager,
            register_threshold_key_manager,
        )
        from repro.net.rpc import LoopbackTransport, ServiceRegistry

        managers, _ = build_group(rsa_512, 2, 3, rng=HmacDrbg(b"rpc2"))
        stubs = []
        for manager in managers:
            registry = ServiceRegistry()
            register_threshold_key_manager(registry, manager)
            stubs.append(
                RemoteThresholdManager(LoopbackTransport(registry).client())
            )
        managers[0].available = False  # remote side refuses
        channel = ThresholdKeyManagerChannel(stubs)
        client = ServerAidedKeyClient(channel, "alice", rng=rng, max_retries=0)
        fp = b"\x20" * 32
        assert client.derive_keys([fp])[0] == blindrsa.derive_mle_key_directly(rsa_512, fp)
