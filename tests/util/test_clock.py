"""Tests for the simulated clock."""

import pytest

from repro.util.clock import SimClock
from repro.util.errors import ConfigurationError


def test_starts_at_origin():
    assert SimClock().now == 0.0
    assert SimClock(100.0)() == 100.0


def test_advance():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock() == 2.0


def test_sleep_advances():
    clock = SimClock()
    clock.sleep(3.0)
    assert clock.now == 3.0
    clock.sleep(-1.0)  # negative sleeps clamp to zero
    assert clock.now == 3.0


def test_backward_rejected():
    with pytest.raises(ConfigurationError):
        SimClock().advance(-1.0)
