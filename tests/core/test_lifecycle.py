"""Tests for key-lifetime rotation."""

import pytest

from repro.core.lifecycle import KeyRotationScheduler, RotationPolicy
from repro.core.policy import FilePolicy
from repro.core.rekey import RevocationMode
from repro.util.clock import SimClock
from repro.util.errors import ConfigurationError
from repro.workloads.synthetic import unique_data

DAY = 24 * 3600.0


@pytest.fixture()
def setup(system):
    clock = SimClock()
    alice = system.new_client("alice", cache_bytes=1 << 20)
    scheduler = KeyRotationScheduler(
        alice, RotationPolicy(max_key_age_seconds=30 * DAY), clock=clock
    )
    data = unique_data(60_000, seed=91)
    for i in range(3):
        alice.upload(f"f{i}", data, policy=FilePolicy.for_users(["alice", "bob"]))
        scheduler.track(f"f{i}")
        clock.advance(10 * DAY)
    return system, alice, scheduler, clock, data


class TestScheduling:
    def test_due_respects_ages(self, setup):
        _system, _alice, scheduler, clock, _data = setup
        # Ages now: f0=30d, f1=20d, f2=10d.
        assert scheduler.due() == ["f0"]
        clock.advance(10 * DAY)
        assert scheduler.due() == ["f0", "f1"]

    def test_key_age(self, setup):
        _system, _alice, scheduler, _clock, _data = setup
        assert scheduler.key_age("f0") == pytest.approx(30 * DAY)
        with pytest.raises(ConfigurationError):
            scheduler.key_age("ghost")

    def test_rotate_due_rekeys_only_expired(self, setup):
        system, alice, scheduler, _clock, data = setup
        report = scheduler.rotate_due()
        assert report.checked == 3
        assert [r.file_id for r in report.rotated] == ["f0"]
        assert report.skipped_fresh == 2
        f0, f1 = system.keystore.get_many(["f0", "f1"])
        assert (f0.key_version, f1.key_version) == (1, 0)
        assert alice.download("f0").data == data

    def test_rotation_preserves_policy(self, setup):
        system, _alice, scheduler, _clock, _data = setup
        [before] = system.keystore.get_many(["f0"])
        scheduler.rotate_due()
        [after] = system.keystore.get_many(["f0"])
        assert after.policy_text == before.policy_text

    def test_rotation_resets_age(self, setup):
        _system, _alice, scheduler, clock, _data = setup
        scheduler.rotate_due()
        assert "f0" not in scheduler.due()
        clock.advance(30 * DAY)
        assert "f0" in scheduler.due()

    def test_lazy_mode_default(self, setup):
        _system, _alice, scheduler, _clock, _data = setup
        report = scheduler.rotate_due()
        assert all(r.mode is RevocationMode.LAZY for r in report.rotated)
        assert all(r.stub_bytes_reencrypted == 0 for r in report.rotated)


class TestEmergency:
    def test_emergency_rekey_is_active_and_immediate(self, setup):
        system, alice, scheduler, _clock, data = setup
        results = scheduler.emergency_rekey(["f1", "f2"])  # not yet expired
        assert all(r.mode is RevocationMode.ACTIVE for r in results)
        assert all(r.stub_bytes_reencrypted > 0 for r in results)
        [f2] = system.keystore.get_many(["f2"])
        assert f2.key_version == 1
        assert alice.download("f2").data == data

    def test_emergency_resets_schedule(self, setup):
        _system, _alice, scheduler, _clock, _data = setup
        scheduler.emergency_rekey(["f0"])
        assert "f0" not in scheduler.due()


class TestBookkeeping:
    def test_track_untrack(self, setup):
        _system, _alice, scheduler, _clock, _data = setup
        assert scheduler.tracked() == ["f0", "f1", "f2"]
        scheduler.untrack("f1")
        assert scheduler.tracked() == ["f0", "f2"]

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            RotationPolicy(max_key_age_seconds=0)

    def test_requires_owner(self, system):
        reader = system.new_client("reader", owner=False)
        with pytest.raises(ConfigurationError):
            KeyRotationScheduler(reader)
