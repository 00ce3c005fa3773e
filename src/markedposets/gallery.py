"""Small named marked posets used by the CLI builtins and the test suite."""

from __future__ import annotations

from .posets import MarkedPoset, Poset


def crossing_chains() -> MarkedPoset:
    """Two crossed chains through unmarked x1, x2 with marks 1, 2, 2, 3.

    The marked chain polytope of this poset is the unit square: the crossing
    makes the two-element chain sum redundant.  Shipped as CLI builtin
    ``figure1``.
    """
    poset = Poset(
        ["bot", "left", "right", "top", "x1", "x2"],
        [("bot", "x1"), ("x1", "right"), ("x1", "x2"), ("left", "x2"), ("x2", "top")],
    )
    return MarkedPoset(poset, {"bot": 1, "left": 2, "right": 2, "top": 3})


def diamond(lo: int = 0, hi: int = 2) -> MarkedPoset:
    """Two incomparable unmarked elements between marks lo and hi."""
    poset = Poset(
        ["bot", "top", "x", "y"],
        [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")],
    )
    return MarkedPoset(poset, {"bot": lo, "top": hi})

