"""Shared fixtures."""

import pytest

from rbu3 import groebner


class FakeClock:
    """Stands in for ``groebner``'s ``time`` module: each read of the
    monotonic clock is one unit later than the one before."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        self.now += 1
        return self.now


@pytest.fixture
def fake_clock(monkeypatch):
    """A fake clock in place of ``groebner``'s ``time`` name only: the shared
    ``time`` module, and so pytest's own timing, is left alone."""
    clock = FakeClock()
    monkeypatch.setattr(groebner, "time", clock)
    return clock
