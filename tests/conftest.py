"""Shared fixtures: small named posets used across the suite."""

from fractions import Fraction

import pytest

from markedposets import MarkedPoset, Poset
from markedposets.gallery import crossing_chains, diamond


@pytest.fixture(autouse=True)
def _no_work_cap_override(monkeypatch):
    """Keep an ``MPP_WORK_CAP`` exported in the calling shell out of every test."""
    monkeypatch.delenv("MPP_WORK_CAP", raising=False)


def _ladder(k: int) -> MarkedPoset:
    """Chains x_0 < ... < x_{k-1} and y_0 < ... < y_{k-1} with rungs x_i < y_i.

    bot (mark 0) lies below x_0 and top (mark 2) above y_{k-1}; the
    polytopes have dimension 2k.
    """
    x = [f"x{i}" for i in range(k)]
    y = [f"y{i}" for i in range(k)]
    covers = [("bot", x[0]), (y[-1], "top")]
    covers += [(x[i], x[i + 1]) for i in range(k - 1)]
    covers += [(y[i], y[i + 1]) for i in range(k - 1)]
    covers += [(x[i], y[i]) for i in range(k)]
    return MarkedPoset(Poset(["bot", "top", *x, *y], covers), {"bot": 0, "top": 2})


@pytest.fixture
def ladder():
    """The ladder family, as a function of k."""
    return _ladder


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
    """A chain 0 < x < y < 2 with an extra mark 1 entering below y.

    The smallest strict regular example whose marked order polytope is not
    2-level (two minimal elements in one component).
    """
    poset = Poset(
        ["a", "m", "b", "x", "y"],
        [("a", "x"), ("x", "y"), ("m", "y"), ("y", "b")],
    )
    return MarkedPoset(poset, {"a": 0, "m": 1, "b": 2})


def frac(x) -> Fraction:
    return Fraction(x)
