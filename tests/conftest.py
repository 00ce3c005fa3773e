"""Shared fixtures: small named posets used across the suite."""

from fractions import Fraction

import pytest

from markedposets import MarkedPoset, Poset
from markedposets.gallery import crossing_chains, diamond, fenced_chain


@pytest.fixture(autouse=True)
def _no_work_cap_override(monkeypatch):
    """Keep an ``MPP_WORK_CAP`` exported in the calling shell out of every test."""
    monkeypatch.delenv("MPP_WORK_CAP", raising=False)


@pytest.fixture
def segment():
    """a(0) < x < b(1): the unit segment as a marked order polytope."""
    return MarkedPoset(Poset(["a", "b", "x"], [("a", "x"), ("x", "b")]), {"a": 0, "b": 1})


@pytest.fixture
def diamond_02():
    return diamond(0, 2)


@pytest.fixture
def figure_one():
    return crossing_chains()


@pytest.fixture
def trapezoid_poset():
    return fenced_chain()


def frac(x) -> Fraction:
    return Fraction(x)
