"""Shared fixtures."""

from fractions import Fraction

import pytest


@pytest.fixture
def fractions_built(monkeypatch):
    """A list that records every Fraction built while the test runs, so a
    test can bound the cost of exact evaluation without timing it."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built
