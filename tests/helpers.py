"""Test-only constructions: exact affine images, random points and maps, partition sweeps,
the mark-augmented poset, the ungrouped piece product, the reference extension walk and the
reference lattice-point recursion.

Also the oracles the package no longer carries: exact membership (``contains``),
comparability (``comparable``), ``Fraction`` polynomial arithmetic (``Polynomial``,
``polynomial``) and the face partitions of the marked order polytope
(``FacePartition``, ``face_partition_of_point``, which raises ``PointOutsidePolytope``,
and ``is_face_partition``; Pegel, "The face structure and geometry of marked order
polyhedra", Order 2018)."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

from markedposets import (
    ChainOrderPartition,
    ExtensionWord,
    HRepresentation,
    LinearInequality,
    MarkedPoset,
    MarkedPosetError,
    Poset,
    UnivariatePolynomial,
    VRepresentation,
    build_order_hrep,
    canonical_labeling,
    validate_marked,
)
from markedposets.ehrhart import _signature_sum, _tie_break_extensions
from markedposets.geometry import _ceil_div, _convolve, _int_terms, classify_inequalities, enumerate_vertices
from markedposets.posets import _components, _pieces, check_natural_labeling


class PointOutsidePolytope(MarkedPosetError):
    """A point handed to a face operation does not satisfy the polytope's constraints."""


def comparable(poset: Poset, p: str, q: str) -> bool:
    return poset.leq(p, q) or poset.leq(q, p)


def contains(h: HRepresentation, point: Mapping[str, Fraction]) -> bool:
    """Exact membership test of a named point in the polytope."""
    return (all(i.evaluate(point) <= i.rhs for i in h.inequalities)
            and all(e.evaluate(point) == e.rhs for e in h.equalities))


class Polynomial(UnivariatePolynomial):
    """A ``UnivariatePolynomial`` with ``Fraction`` arithmetic, to build expected polynomials.

    Its ``__eq__`` compares coefficients with any ``UnivariatePolynomial``;
    Python tries a subclass's reflected ``__eq__`` first, so the package's
    polynomials compare equal to these from either side.
    """

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    __hash__ = UnivariatePolynomial.__hash__

    def __add__(self, other: UnivariatePolynomial) -> "Polynomial":
        width = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [Fraction(0)] * (width - len(self.coefficients))
        b = list(other.coefficients) + [Fraction(0)] * (width - len(other.coefficients))
        return Polynomial(tuple(x + y for x, y in zip(a, b)))

    def __mul__(self, other: "UnivariatePolynomial | int | Fraction") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coefficients))
        return Polynomial(tuple(_convolve(self.coefficients, other.coefficients)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError(f"polynomial power needs an exponent of at least 0, got {k}")
        result = Polynomial((Fraction(1),))
        for _ in range(k):
            result = result * self
        return result


def polynomial(coeffs: Iterable[int | Fraction]) -> Polynomial:
    return Polynomial(tuple(Fraction(c) for c in coeffs))


@dataclass(frozen=True)
class FacePartition:
    """A partition of the poset elements, with its marked-free blocks singled out."""

    blocks: tuple[frozenset[str], ...]
    free_blocks: tuple[frozenset[str], ...]

    @classmethod
    def of(cls, mp: MarkedPoset, blocks: Iterable[Iterable[str]]) -> "FacePartition":
        normalized = tuple(sorted((frozenset(b) for b in blocks), key=min))
        free = tuple(b for b in normalized if not (b & mp.marked))
        return cls(normalized, free)


def face_partition_of_point(mp: MarkedPoset, x: Mapping[str, Fraction]) -> FacePartition:
    """The partition gluing comparable elements with equal coordinate values.

    For points of the order polytope the transitive closure over comparable
    pairs coincides with the closure over covers, since values increase along
    saturated chains.
    """
    order_hrep = build_order_hrep(mp)
    point = {p: Fraction(x[p]) for p in mp.unmarked}
    if not contains(order_hrep, point):
        raise PointOutsidePolytope("point violates the order constraints")
    return _face_partition(mp, {**mp.marking, **point})


def _face_partition(mp: MarkedPoset, values: Mapping[str, Fraction]) -> FacePartition:
    """The partition gluing the two ends of every cover whose values are equal."""
    glued = [(p, q) for p, q in mp.poset.covers if values[p] == values[q]]
    return FacePartition.of(mp, _components(mp.poset.elements, glued))


def is_face_partition(mp: MarkedPoset, fp: FacePartition) -> bool:
    """Decide whether a partition arises from a face of the order polytope.

    Checks the three characterizing conditions: blocks connected as induced
    subposets, the induced block relation antisymmetric, and the quotient
    marking well-defined, order-compatible and strict.  The last two are read
    off the quotient marked poset: ``Poset.from_relations`` rejects a cycle
    between blocks, ``MarkedPoset`` rejects marks that decrease, and
    ``validate_marked`` decides strictness.  Its check that extremes are
    marked never fires: a minimal (maximal) block of an acyclic quotient
    holds a minimal (maximal) element of P, and that element is marked.  (Take
    e minimal (maximal) within the block: a cover below (above) e would lie
    in the block, against the choice of e, or in another block, which would
    then lie below (above) this one.)
    """
    poset = mp.poset
    block_of: dict[str, int] = {}
    for i, block in enumerate(fp.blocks):
        if not block:
            raise ValueError("empty block")
        for e in sorted(block):
            if e in block_of:
                raise ValueError(f"element {e!r} appears in two blocks")
            if e not in poset._index:
                raise ValueError(f"unknown element {e!r}")
            block_of[e] = i
    if len(block_of) != len(poset.elements):
        raise ValueError("blocks do not cover the poset")

    comparable_within_blocks = [(e, f) for block in fp.blocks for e in block for f in block
                                if e < f and comparable(poset, e, f)]
    if len(_components(poset.elements, comparable_within_blocks)) != len(fp.blocks):
        return False

    links = [(block_of[p], block_of[q]) for p, q in poset.covers if block_of[p] != block_of[q]]
    marks: dict[int, Fraction] = {}
    for a in mp.marked:
        if marks.setdefault(block_of[a], mp.marking[a]) != mp.marking[a]:
            return False
    try:
        quotient = MarkedPoset(Poset.from_relations(range(len(fp.blocks)), links), marks)
    except ValueError:  # a cycle between blocks, or marks that decrease along the quotient
        return False
    return validate_marked(quotient).strict


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
        levels.setdefault(mp.marking[a], []).append(a)
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


def reference_count_points(h: HRepresentation, dilation: int, shrink: int) -> int:
    """``geometry._count_points`` as it was before the counting kernel: the setup rebuilt on
    every call and a recursion over the coordinates, with no node budget.

    Integer points of the dilate with every non-implicit row's integer rhs lowered by ``shrink``.

    Shrink 0 counts the closed dilate.  Shrink 1 counts its relative interior
    (for dilation >= 1): each row is all-integer, so a.x < b is a.x <= b - 1;
    rows tight on the whole polytope (implicit) stay equalities, like the
    equality rows.  Implicit rows are looked up only when the polytope is not
    full-dimensional: a row can be tight everywhere even when the equalities
    alone already cut the polytope's affine hull out, as y <= 0 is beside
    y = 0.  Everything runs in integers: the rows come from ``_int_terms``,
    and each coordinate's box is its least and greatest L x over the
    vertices, times n / L, rounded inward.
    """
    v = enumerate_vertices(h)
    if dilation == 0:
        return 1
    d = len(h.coordinates)
    if d == 0:
        return 1

    n = dilation
    implicit = classify_inequalities(h)[3] if shrink and v.dimension < d else []
    # (terms, rhs) per row terms . x <= rhs; an equality is two opposite rows
    rows: list[tuple[list[tuple[int, int]], int]] = []
    for ineq, tight in [(e, True) for e in h.equalities] + [(i, i in implicit) for i in h.inequalities]:
        terms, p = _int_terms(h, ineq)
        if tight:
            rows += [(terms, p * n), ([(j, -a) for j, a in terms], -p * n)]
        else:
            rows.append((terms, p * n - shrink))

    box_lo = []
    box_hi = []
    for values in v._columns.values():
        box_lo.append(_ceil_div(min(values) * n, v.scale))
        box_hi.append(max(values) * n // v.scale)
        if box_lo[-1] > box_hi[-1]:
            return 0

    # Row r bounds coordinate i by its slack less the least that coordinates
    # after i can add to it inside the box (``rest``): from above when its
    # coefficient a is positive, from below when it is negative.
    upper: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    lower: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    touch: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for r, (terms, _) in enumerate(rows):
        rest = 0
        for j, a in sorted(terms, reverse=True):  # by decreasing column
            (upper if a > 0 else lower)[j].append((r, abs(a), rest))
            touch[j].append((r, a))
            rest += min(a * box_lo[j], a * box_hi[j])

    slack = [b for _, b in rows]
    last = d - 1

    def rec(i: int) -> int:
        lo, hi = box_lo[i], box_hi[i]
        for r, a, rest in upper[i]:
            bound = (slack[r] - rest) // a
            if bound < hi:
                hi = bound
        for r, a, rest in lower[i]:
            bound = -((slack[r] - rest) // a)
            if bound > lo:
                lo = bound
        if lo > hi:
            return 0
        if i == last:
            return hi - lo + 1
        rows_i = touch[i]
        for r, a in rows_i:
            slack[r] -= a * lo
        total = 0
        for _ in range(lo, hi + 1):
            total += rec(i + 1)
            for r, a in rows_i:
                slack[r] -= a
        for r, a in rows_i:
            slack[r] += a * (hi + 1)
        return total

    return rec(0)
