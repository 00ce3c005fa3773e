"""Test-only constructions: exact affine images, random points and maps, partition sweeps,
the mark-augmented poset, the ungrouped piece product, the reference extension walk."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Mapping, Sequence

from markedposets import (
    ChainOrderPartition,
    ExtensionWord,
    HRepresentation,
    LinearInequality,
    MarkedPoset,
    Poset,
    UnivariatePolynomial,
    VRepresentation,
    canonical_labeling,
)
from markedposets.ehrhart import _signature_sum, _tie_break_extensions
from markedposets.posets import _pieces, check_natural_labeling


def invert_matrix(matrix: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    d = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(d)]
           + [Fraction(1 if j == i else 0) for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def affine_image(
    h: HRepresentation,
    matrix: Sequence[Sequence[int | Fraction]],
    shift: Sequence[int | Fraction],
) -> HRepresentation:
    """The H-representation of {M x + t : x in P} for invertible M."""
    d = len(h.coordinates)
    inv = invert_matrix(matrix)
    t = [Fraction(s) for s in shift]

    def transform(row: LinearInequality) -> LinearInequality:
        a = h._dense(row)
        new_a = [sum(a[i] * inv[i][j] for i in range(d)) for j in range(d)]
        offset = sum(new_a[j] * t[j] for j in range(d))
        return LinearInequality(dict(zip(h.coordinates, new_a)), row.rhs + offset)

    return HRepresentation(
        h.coordinates,
        [transform(i) for i in h.inequalities],
        [transform(e) for e in h.equalities],
    )


def random_convex_points(
    rng: random.Random, v: VRepresentation, count: int
) -> list[dict[str, Fraction]]:
    """Random exact convex combinations of the vertex set."""
    points = []
    for _ in range(count):
        weights = [Fraction(rng.randint(0, 4)) for _ in v.vertices]
        if sum(weights) == 0:
            weights[rng.randrange(len(weights))] = Fraction(1)
        total = sum(weights)
        combo = [
            sum(w * vert[j] for w, vert in zip(weights, v.vertices)) / total
            for j in range(len(v.coordinates))
        ]
        points.append(dict(zip(v.coordinates, combo)))
    return points


def random_unimodular_map(
    rng: random.Random, dimension: int
) -> tuple[list[list[int]], list[int]]:
    """A random integer matrix of determinant +-1 and an integer shift."""
    matrix = [[1 if i == j else 0 for j in range(dimension)] for i in range(dimension)]
    for _ in range(2 * dimension + 2):
        op = rng.randrange(3)
        i = rng.randrange(dimension)
        j = rng.randrange(dimension)
        if op == 0 and i != j:
            f = rng.choice([-2, -1, 1, 2])
            for col in range(dimension):
                matrix[i][col] += f * matrix[j][col]
        elif op == 1:
            matrix[i], matrix[j] = matrix[j], matrix[i]
        else:
            matrix[i] = [-v for v in matrix[i]]
    shift = [rng.randint(-3, 3) for _ in range(dimension)]
    return matrix, shift


def all_chain_order_partitions(mp: MarkedPoset):
    """Every split of the unmarked elements into chain and order parts."""
    unmarked = list(mp.unmarked)
    for r in range(len(unmarked) + 1):
        for chain in combinations(unmarked, r):
            yield ChainOrderPartition.of(mp, chain)


def augment_marked_order(mp: MarkedPoset) -> Poset:
    """Add a < b for marked pairs with strictly increasing marks, then re-reduce.

    Only pairs between adjacent distinct mark levels are added: they generate
    the same order as all increasing pairs.
    """
    poset = mp.poset
    levels: dict[Fraction, list[str]] = {}
    for a in sorted(mp.marked):
        levels.setdefault(mp.value(a), []).append(a)
    ranked = [levels[v] for v in sorted(levels)]
    relations = list(poset.covers)
    for lower, upper in zip(ranked, ranked[1:]):
        relations += [(a, b) for a in lower for b in upper]
    return Poset.from_relations(poset.elements, relations)


def ungrouped_formula(mp: MarkedPoset, labeling=None) -> UnivariatePolynomial:
    """The extension formula as a product over every piece on its own, with no cap and no labeling check.

    Each piece streams its own tie-break poset, however many pieces are
    isomorphic to it, and its factor enters the product once per piece
    (multiplicity 1), as the formula did before it grouped isomorphic pieces.
    """
    marks = {a: int(v) for a, v in mp.marking.items()}
    factors = []
    for piece, covers, lower, upper in _pieces(mp):
        bounds = {**lower, **upper}
        signatures: Counter = Counter()
        for ext in _tie_break_extensions((*piece, *bounds), covers, bounds, labeling):
            marked_at = [i for i, e in enumerate(ext.word) if e in marks]
            signatures[tuple(sorted(
                (marks[ext.word[t]] - marks[ext.word[s]], ext.segment_descents(s, t), t - s - 1)
                for s, t in zip(marked_at, marked_at[1:])))] += 1
        factors.append((signatures, len(piece), 1))
    return _signature_sum(factors)


def reference_linear_extensions(poset: Poset, labeling: Mapping[str, int] | None = None) -> Iterator[ExtensionWord]:
    """``posets.linear_extensions`` as it was before the bitmask walk: an in-degree count per
    element and, at every depth, the available elements sorted by label.

    Yields the same words, in the same order, with the same descent prefixes.
    """
    if labeling is None:
        labeling = canonical_labeling(poset)
    else:
        check_natural_labeling(poset, labeling)
    key = labeling.__getitem__
    indeg = {e: len(poset.lower_covers(e)) for e in poset.elements}
    word: list[str] = []
    prefix: list[int] = []
    # levels[i] lists, sorted by label, the elements available after i letters;
    # chosen[i] counts how many of them have been tried as letter i + 1.
    levels = [sorted((e for e in poset.elements if indeg[e] == 0), key=key)]
    chosen = [0]
    while levels:
        if len(word) == len(levels):  # the level above is exhausted: take back this level's letter
            prefix.pop()
            for q in poset.upper_covers(word.pop()):
                indeg[q] += 1
        available, i = levels[-1], chosen[-1]
        if not available:
            yield ExtensionWord(tuple(word), tuple(prefix))
        if i == len(available):
            levels.pop()
            chosen.pop()
            continue
        chosen[-1] = i + 1
        e = available[i]
        released = []
        for q in poset.upper_covers(e):
            indeg[q] -= 1
            if indeg[q] == 0:
                released.append(q)
        prefix.append(prefix[-1] + (key(word[-1]) > key(e)) if word else 0)
        word.append(e)
        levels.append(sorted(available[:i] + available[i + 1:] + released, key=key))
        chosen.append(0)
