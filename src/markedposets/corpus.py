"""Seeded random instances for cross-validation harnesses.

Rejection sampling: random DAGs become posets, minimal and maximal elements
(plus occasional interior picks) become marked, and marks are drawn so that
comparable marked elements strictly increase.  Candidates that fail the
regularity filter, or land outside the requested size box, are redrawn.
Everything is driven by a caller-supplied random.Random, so corpora are
reproducible from a seed.
"""

from __future__ import annotations

import random

from .posets import MarkedPoset, Poset, validate_marked


def random_marked_poset(
    rng: random.Random,
    max_unmarked: int = 5,
    mark_lo: int = 0,
    mark_hi: int = 4,
    min_unmarked: int = 1,
) -> MarkedPoset:
    """A random strict regular marked poset within the requested bounds.

    Raises ValueError, before any draw, on a mark range that no draw can fit:
    an empty one, or one value when an element must stay unmarked, since an
    unmarked element lies between two comparable marks, which need two
    distinct values.  Any other range is met by some draw.
    """
    if mark_hi < mark_lo or mark_hi == mark_lo and min_unmarked >= 1:
        raise ValueError(f"no draw fits marks in {mark_lo}..{mark_hi} with {min_unmarked}+ unmarked elements")
    while True:
        mp = _draw(rng, max_unmarked, mark_lo, mark_hi, min_unmarked)
        if mp is None:
            continue
        report = validate_marked(mp)
        if report.strict and report.regular:
            return mp


def _draw(rng: random.Random, max_unmarked: int, mark_lo: int, mark_hi: int,
          min_unmarked: int) -> MarkedPoset | None:
    n_unmarked = rng.randint(min_unmarked, max_unmarked)
    n_marked = rng.randint(2, 4)
    n = n_unmarked + n_marked
    names = [f"e{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    p_edge = rng.uniform(0.2, 0.6)
    relations = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_edge
    ]
    poset = Poset.from_relations(names, relations)

    marked = set(poset.minimals()) | set(poset.maximals())
    interior = [e for e in names if e not in marked]
    rng.shuffle(interior)
    while len(marked) < n_marked and interior:
        marked.add(interior.pop())
    if not min_unmarked <= n - len(marked) <= max_unmarked:
        return None

    marking: dict[str, int] = {}
    for a in poset.topological_order():
        if a not in marked:
            continue
        floor = mark_lo
        for b in marking:
            if poset.less(b, a):
                floor = max(floor, marking[b] + 1)
        if floor > mark_hi:
            return None
        marking[a] = rng.randint(floor, mark_hi)
    return MarkedPoset(poset, marking)


def corpus(seed: int, trials: int, max_unmarked: int = 5,
           mark_lo: int = 0, mark_hi: int = 4) -> list[MarkedPoset]:
    rng = random.Random(seed)
    return [random_marked_poset(rng, max_unmarked, mark_lo, mark_hi) for _ in range(trials)]

