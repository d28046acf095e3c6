"""Tests for the token-bucket rate limiter (simulated clock)."""

import pytest

from repro.util.clock import SimClock
from repro.util.errors import ConfigurationError
from repro.util.tokenbucket import TokenBucket


@pytest.fixture()
def clock():
    return SimClock()


class TestTake:
    def test_burst_available_immediately(self, clock):
        bucket = TokenBucket(rate=10, burst=5, clock=clock)
        assert bucket.try_take(5)
        assert not bucket.try_take(1)

    def test_refill_over_time(self, clock):
        bucket = TokenBucket(rate=10, burst=5, clock=clock)
        assert bucket.try_take(5)
        clock.advance(0.25)  # 2.5 tokens back
        assert bucket.try_take(2)
        assert not bucket.try_take(1)

    def test_refill_caps_at_burst(self, clock):
        bucket = TokenBucket(rate=100, burst=5, clock=clock)
        clock.advance(60)
        assert bucket.available() == pytest.approx(5)

    def test_partial_take_leaves_remainder(self, clock):
        bucket = TokenBucket(rate=1, burst=10, clock=clock)
        assert bucket.try_take(4)
        assert bucket.available() == pytest.approx(6)

    def test_invalid_amount(self, clock):
        bucket = TokenBucket(rate=1, burst=1, clock=clock)
        with pytest.raises(ConfigurationError):
            bucket.try_take(0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1, burst=0)


class TestBackoffHint:
    def test_zero_when_available(self, clock):
        bucket = TokenBucket(rate=10, burst=5, clock=clock)
        assert bucket.seconds_until(3) == 0.0

    def test_exact_deficit(self, clock):
        bucket = TokenBucket(rate=10, burst=5, clock=clock)
        bucket.try_take(5)
        assert bucket.seconds_until(5) == pytest.approx(0.5)

    def test_hint_is_sufficient(self, clock):
        bucket = TokenBucket(rate=7, burst=20, clock=clock)
        bucket.try_take(20)
        wait = bucket.seconds_until(13)
        clock.advance(wait)
        assert bucket.try_take(13)

    def test_above_burst_impossible(self, clock):
        bucket = TokenBucket(rate=10, burst=5, clock=clock)
        with pytest.raises(ConfigurationError):
            bucket.seconds_until(6)
