"""Exact rational polytope machinery: H/V representations and lattice counts.

Everything here is arbitrary-precision exact arithmetic; there is no
tolerance anywhere because downstream tests (facet detection, 2-levelness)
are equality tests.  Vertex enumeration is the double description method on
the homogenized cone, under a hard work cap on the rays it holds; its cost
follows the vertex count rather than the number of constraint subsets, and
the same cone settles boundedness and emptiness.  The test suite keeps the
plain subset walk (solve every independent subset of d rows, keep the
feasible solutions) as its oracle.  The double description reads each ray's
zero set off its pivot bookkeeping, not off dot products.  A vertex set is
stored as one common denominator L and the integer vectors L x, which the
double description yields directly; facet values, counting boxes and rows
all stay in integers.  Facet classification takes the dimension from the
affine hull's rows (the equalities and the rows tight on every vertex), so a
full-dimensional polytope needs no rank; lattice counting takes it from the
vertex vectors.  Lattice counting builds its integer setup (rows, vertex box,
which rows touch which column) once per H-representation and walks every
dilation on it without recursion, under a node budget.  Rationals appear only
in an inequality's right-hand side and in reported values (vertex
coordinates, affine values, polynomials).  An H-representation orders its
rows by sorting, not hashing.  The rows of the polytopes' H-representations
skip normalisation: they are built normal (``LinearInequality._normal``), and
their coordinates in id order let the H-representation read each row's
column order off its id order, so building one does no ``Fraction``
arithmetic per row.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionTooLarge,
    EmptyPolytope,
    UnboundedPolytope,
)

DEFAULT_RAY_CAP = 10**7
DEFAULT_LATTICE_NODE_CAP = 10**8

Point = tuple[Fraction, ...]


def _work_cap(default: int) -> int:
    """``MPP_WORK_CAP`` when set and non-empty, else ``default``; every cap check reads it anew."""
    raw = os.environ.get("MPP_WORK_CAP") or str(default)
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"MPP_WORK_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"MPP_WORK_CAP must be a positive integer, got {raw!r}")
    return cap


class LinearInequality:
    """An exact inequality ``coeffs . x <= rhs``.

    Coefficients are rescaled on construction by a positive rational so they
    become integers with gcd 1 (the direction of the inequality is never
    flipped); the right-hand side scales along and may stay fractional.
    Coefficients are kept sorted by id.  Two kinds of row skip this
    normalisation through ``_normal``, which stores what it is given: the
    rows of ``polytopes._hrep``, whose coefficients are all +-1 (so their gcd
    is 1) and which it builds sorted by id, and ``negated``, whose input is
    already normal.  Every other row goes through ``__init__``.
    """

    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs: Mapping[str, int | Fraction], rhs: int | Fraction):
        exact = {c: Fraction(v) for c, v in coeffs.items() if v != 0}
        if not exact:
            raise ValueError("inequality needs at least one nonzero coefficient")
        scale = math.lcm(*(v.denominator for v in exact.values()))
        ints = {c: int(v * scale) for c, v in exact.items()}
        g = math.gcd(*ints.values())
        self.coeffs: dict[str, int] = {c: ints[c] // g for c in sorted(ints)}
        self.rhs: Fraction = Fraction(rhs) * scale / g

    @classmethod
    def _normal(cls, coeffs: dict[str, int], rhs: Fraction) -> "LinearInequality":
        """The row ``coeffs . x <= rhs`` as given: nonzero ints with gcd 1, sorted by id."""
        row = cls.__new__(cls)
        row.coeffs, row.rhs = coeffs, rhs
        return row

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        return sum((point[c] * a for c, a in self.coeffs.items()), Fraction(0))

    def negated(self) -> "LinearInequality":
        """The same hyperplane with flipped orientation (for equality rows only)."""
        return LinearInequality._normal({c: -a for c, a in self.coeffs.items()}, -self.rhs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearInequality):
            return NotImplemented
        return self.coeffs == other.coeffs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.coeffs.items())), self.rhs))

    def __repr__(self) -> str:
        terms = " + ".join(f"{a}*{c}" for c, a in self.coeffs.items())
        return f"({terms} <= {self.rhs})"


class HRepresentation:
    """A polytope as inequalities (and optional equalities) over named coordinates.

    Inequalities are deduplicated and kept sorted by their dense coefficient
    rows in declared coordinate order, then by rhs, so two H-representations
    of the same system compare equal.  That order is computed sparsely, from
    each row's nonzeros alone (``_sparse_key``): the (key, row) pairs are
    sorted by key and a row whose key equals the one before is dropped, so no
    key is hashed.  Equalities are additionally sign-normalized (first nonzero
    coefficient positive).
    """

    def __init__(
        self,
        coordinates: Sequence[str],
        inequalities: Iterable[LinearInequality],
        equalities: Iterable[LinearInequality] = (),
    ):
        self.coordinates: tuple[str, ...] = tuple(coordinates)
        self._column = {c: j for j, c in enumerate(self.coordinates)}
        if len(self._column) != len(self.coordinates):
            raise ValueError("duplicate coordinate ids")
        # every row's coefficients are sorted by id, so then also by column
        self._id_ordered = list(self.coordinates) == sorted(self.coordinates)
        ineqs = list(inequalities)
        eqs = list(equalities)
        for row in (*ineqs, *eqs):
            if not row.coeffs.keys() <= self._column.keys():
                unknown = sorted(row.coeffs.keys() - self._column.keys())
                raise ValueError(f"constraint references undeclared coordinates {unknown}")
        self.inequalities: tuple[LinearInequality, ...] = self._canonical(ineqs)
        self.equalities: tuple[LinearInequality, ...] = self._canonical(
            [self._sign_normalized(e) for e in eqs])
        self._vertex_cache: VRepresentation | None = None
        self._classify_cache: tuple | None = None
        self._count_cache: tuple | None = None

    def _dense(self, row: LinearInequality, zero=0, cell=lambda a: a) -> list:
        """The row's coefficients in declared coordinate order, each nonzero one
        passed through ``cell``; ``zero`` fills the other columns."""
        dense = [zero] * len(self.coordinates)
        for c, a in row.coeffs.items():
            dense[self._column[c]] = cell(a)
        return dense

    def _sparse_key(self, row: LinearInequality) -> list:
        """A key that sorts and compares like ``(*self._dense(row), row.rhs)``.

        Each nonzero a in column j becomes the pair n - j, a if a > 0, else
        j - n, a (n columns), in column order; then a 0 stands for the zeros
        after the last one, and the rhs ends the key.  At the first column
        where two dense rows differ, the entry of the row with the larger
        value there sorts higher: a positive entry beats any later entry or
        the 0, a negative one loses to them.  Coordinates in id order give
        column order without a sort.
        """
        n, column = len(self.coordinates), self._column
        items = row.coeffs.items()
        key = []
        for c, a in items if self._id_ordered else sorted(items, key=lambda ca: column[ca[0]]):
            j = column[c]
            key += (n - j, a) if a > 0 else (j - n, a)
        key += (0, row.rhs)
        return key

    def _canonical(self, rows: list[LinearInequality]) -> tuple[LinearInequality, ...]:
        """The rows sorted by key, one per key: equal keys end up side by side."""
        pairs = sorted(zip(map(self._sparse_key, rows), rows), key=lambda pair: pair[0])
        return tuple(row for i, (key, row) in enumerate(pairs) if not i or key != pairs[i - 1][0])

    def _sign_normalized(self, row: LinearInequality) -> LinearInequality:
        lead = row.coeffs[min(row.coeffs, key=self._column.__getitem__)]
        return row.negated() if lead < 0 else row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HRepresentation):
            return NotImplemented
        return (self.coordinates == other.coordinates
                and self.inequalities == other.inequalities
                and self.equalities == other.equalities)

    def __repr__(self) -> str:
        return (f"HRepresentation(coords={list(self.coordinates)!r}, "
                f"ineqs={list(self.inequalities)!r}, eqs={list(self.equalities)!r})")


@dataclass(frozen=True)
class VRepresentation:
    """A vertex set as the common denominator L and the integer vectors L x.

    L is the least common denominator of every vertex coordinate, and the
    vectors are deduplicated and sorted, which sorts the vertices
    lexicographically.  ``vertices`` is the rational view, built on first
    read.  Build one from rational points with :meth:`from_points`.
    """

    coordinates: tuple[str, ...]
    scale: int
    vectors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_points(cls, coordinates: Iterable[str], points: Iterable[Point]) -> "VRepresentation":
        """The vertex set of rational points (ints or Fractions), deduplicated and sorted."""
        points = list(points)
        scale = math.lcm(*(x.denominator for p in points for x in p))
        vectors = {tuple(x.numerator * (scale // x.denominator) for x in p) for p in points}
        return cls(tuple(coordinates), scale, tuple(sorted(vectors)))

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(tuple(Fraction(x, self.scale) for x in p) for p in self.vectors)

    @cached_property
    def _columns(self) -> dict[str, list[int]]:
        """Each coordinate's values L x over the vertices, in vertex order."""
        return {c: [p[j] for p in self.vectors] for j, c in enumerate(self.coordinates)}

    @cached_property
    def dimension(self) -> int:
        """The affine dimension: the rank of the vectors (L x, L), minus 1 (-1 when empty)."""
        return _rank([*p, self.scale] for p in self.vectors) - 1

    def __len__(self) -> int:
        return len(self.vectors)


# ---------------------------------------------------------------------------
# fraction-free linear algebra on integer rows [a_1 .. a_d | rhs]

def _row_gcd(row: Sequence[int]) -> int:
    return math.gcd(*row) or 1


def _int_terms(h: HRepresentation, ineq: LinearInequality) -> tuple[list[tuple[int, int]], int]:
    """The constraint a.x <= p/q as the integer terms ``[(column, q a_j), ...]`` and p.

    The terms come in id order, not column order.  On the n-th dilate the
    row is (q a).x <= p n; it need not be primitive when n shares a factor
    with q, which leaves its integer solutions alone.
    """
    q = ineq.rhs.denominator
    return [(h._column[c], a * q) for c, a in ineq.coeffs.items()], ineq.rhs.numerator


def _dot(row: Sequence[tuple[int, int]], vec: Sequence[int]) -> int:
    """A sparse row ``[(column, coefficient), ...]`` times a dense vector."""
    total = 0
    for j, a in row:
        total += a * vec[j]
    return total


def _cone_row(h: HRepresentation, ineq: LinearInequality) -> list[tuple[int, int]]:
    """The constraint a.x <= b (or = b) as the sparse integer row (-a, b).

    The row is >= 0 (= 0) at (x, 1) for every point x of the polytope.
    """
    terms, b = _int_terms(h, ineq)
    row = [(j, -a) for j, a in terms]
    return row + [(len(h.coordinates), b)] if b else row


def _eliminate(a: int, v: Sequence[int], s: int, l: Sequence[int]) -> list[int]:
    """a v - s l, divided by its gcd: orthogonal to a row g with g.v = s and g.l = a."""
    w = [a * x - s * y for x, y in zip(v, l)]
    g = _row_gcd(w)
    return w if g == 1 else [x // g for x in w]


def _rank(vectors: Iterable[Sequence[int]]) -> int:
    """The rank of integer vectors, by fraction-free elimination (``_eliminate``).

    Each vector is reduced against the kept rows, and a nonzero remainder is
    kept with its first nonzero column as pivot.
    """
    kept: list[tuple[int, Sequence[int]]] = []
    for r in vectors:
        for pivot, row in kept:
            if f := r[pivot]:
                r = _eliminate(row[pivot], r, f, row)
        if any(r):
            kept.append((next(j for j, x in enumerate(r) if x), r))
    return len(kept)


def _double_description(h: HRepresentation) -> list[list[int]]:
    """The extreme rays of the cone {(x, t) : a.x <= b t, e.x = c t, t >= 0}, fraction-free.

    A row a.x <= b becomes (-a, b).y >= 0 on y = (x, t).  The walk starts from
    the lineality basis e_1 .. e_{d+1} and no rays.  While lineality remains,
    a row g with g.l != 0 for some lineality vector l pivots on l: every other
    lineality vector and every ray r becomes (g.l) r - (g.r) l, and l itself
    becomes a ray oriented so g.l > 0 (an equality row drops it).  An
    inequality orthogonal to all lineality waits until the cone is pointed.
    From then on each inequality keeps its positive and zero rays and adds
    the positive combination of every adjacent (positive, negative) pair; two
    rays are adjacent when their common tight rows number at least d - 1 and
    no third ray is tight on all of them (the combinatorial test, which stops
    at the third such ray).

    The zero sets (the rows each ray is tight on, as bitmasks) come from the
    pivot bookkeeping, with no dot product.  A lineality vector is orthogonal
    to every row pivoted so far, and a pivot scales every earlier pivot row's
    value on a ray by g.l > 0.  So each ray is tight on every pivot row but
    its own, whose index the walk records when it appends the ray; the d + 1
    pivot rows take bits 0 .. d.  A later row's bit joins the zero set of each
    ray tight on it and of each ray it combines.

    The equalities come first, after t >= 0 alone, so while they run the cone
    is the lineality plus one ray with t > 0.  An equality orthogonal to all
    lineality is implied when it vanishes on that ray too, and is skipped.
    Otherwise it forces t = 0: the equalities are inconsistent, the ray goes,
    and the walk goes on over the recession cone alone.

    The cone then settles boundedness and emptiness, in this order:

    - lineality left after every row: the rows do not span the space, and
      the polytope is unbounded if feasible (UnboundedPolytope);
    - an extreme ray with t = 0: a recession direction (UnboundedPolytope);
    - an inconsistent equality (EmptyPolytope).

    Every ray returned has t > 0; none means the system has no solution.
    Raises DimensionTooLarge once the rays held exceed the work cap.
    """
    d = len(h.coordinates)
    cap = _work_cap(DEFAULT_RAY_CAP)

    rows = ([([(d, 1)], False)] + [(_cone_row(h, e), True) for e in h.equalities]
            + [(_cone_row(h, i), False) for i in h.inequalities])

    def check_cap(n: int) -> None:
        if n > cap:
            raise DimensionTooLarge(f"{n} double-description rays exceed the work cap {cap}"
                                    "; set MPP_WORK_CAP to raise it")

    lineality = [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
    rays: list[list[int]] = []
    pivots: list[int] = []  # per ray, the index of its own pivot row among the pivot rows
    later: list[list[tuple[int, int]]] = []
    inconsistent = False
    for g, equality in rows:
        dots = [_dot(g, l) for l in lineality]
        k = next((k for k, s in enumerate(dots) if s), None)
        if k is None:
            if not equality:
                later.append(g)
            elif any(_dot(g, r) for r in rays):
                inconsistent, rays, pivots = True, [], []
            continue
        l, a = lineality.pop(k), dots.pop(k)
        if a < 0:
            l, a = [-x for x in l], -a
        lineality = [_eliminate(a, v, s, l) if s else v for v, s in zip(lineality, dots)]
        rays = [_eliminate(a, r, s, l) if (s := _dot(g, r)) else r for r in rays]
        if not equality:
            rays.append(l)
            pivots.append(d - len(lineality))  # pivot k (from 0) leaves d - k lineality vectors
            check_cap(len(rays))
    if lineality:
        raise UnboundedPolytope("constraints do not span the space; unbounded if feasible")

    every = (1 << (d + 1)) - 1  # the d + 1 pivot rows
    zero_sets = [every ^ (1 << k) for k in pivots]
    for i, g in enumerate(later, start=d + 1):
        bit = 1 << i
        kept: list[list[int]] = []
        kept_zero: list[int] = []
        positive, negative = [], []
        for r, z in zip(rays, zero_sets):
            s = _dot(g, r)
            if s < 0:
                negative.append((r, z, s))
                continue
            if s > 0:
                positive.append((r, z, s))
            else:
                z |= bit
            kept.append(r)
            kept_zero.append(z)
        for p, zp, sp in positive:
            for n, zn, sn in negative:
                common = zp & zn
                if common.bit_count() < d - 1:
                    continue
                if any(islice((1 for z in zero_sets if z & common == common), 2, None)):
                    continue  # a third ray is tight on the common rows
                kept.append(_eliminate(sp, n, sn, p))
                kept_zero.append(common | bit)
                check_cap(len(kept))
        rays, zero_sets = kept, kept_zero
    if any(r[d] == 0 for r in rays):
        raise UnboundedPolytope("recession direction found")
    if inconsistent:
        raise EmptyPolytope("inconsistent equality constraints")
    return rays


def enumerate_vertices(h: HRepresentation) -> VRepresentation:
    """All vertices, exactly: x / t over the extreme rays (x, t) of the homogenized cone.

    The rays come from the double description method (``_double_description``),
    which also settles boundedness and emptiness: UnboundedPolytope when the
    rows leave lineality or a ray has t = 0, then EmptyPolytope for
    inconsistent equalities, and EmptyPolytope here when no ray is left.  Each
    ray is primitive, so its t is the least common denominator of its vertex,
    and the vertex set is stored as L = lcm(t) and the vectors (L / t) x, with
    no rational built.  The test suite holds the result to the subset walk,
    which solves every independent subset of d rows and keeps the feasible
    solutions, and the errors to an interval certificate plus a ray walk over
    the recession cone.  Raises DimensionTooLarge past the work cap; results
    are cached on the representation.
    """
    if h._vertex_cache is not None:
        return h._vertex_cache
    d = len(h.coordinates)
    rays = _double_description(h)
    if not rays:
        raise EmptyPolytope("no vertex satisfies all constraints")
    scale = math.lcm(*(r[d] for r in rays))
    vectors = sorted(tuple(x * (scale // r[d]) for x in r[:d]) for r in rays)
    result = VRepresentation(h.coordinates, scale, tuple(vectors))
    h._vertex_cache = result
    return result


def _scaled_values(v: VRepresentation, ineq: LinearInequality) -> list[int]:
    """a . (L x) at every vertex x, in vertex order, for the row a . x <= b (L = ``v.scale``)."""
    terms = iter(ineq.coeffs.items())
    c, a = next(terms)
    values = [a * x for x in v._columns[c]]
    for c, a in terms:
        values = [s + a * x for s, x in zip(values, v._columns[c])]
    return values


def classify_inequalities(
    h: HRepresentation
) -> tuple[VRepresentation, int, list[LinearInequality], list[LinearInequality]]:
    """Split inequalities into facets and implicit equalities by their tight-vertex masks.

    Returns (vertices, polytope dimension, facet inequalities, inequalities
    tight on every vertex).  Inequalities in neither list are redundant.
    Each row's mask holds a bit per vertex where a . (L x) = b L.  A row is
    implicit when its mask is every vertex.  The equalities and the implicit
    rows cut out the polytope's affine hull, so the dimension is d minus the
    rank of their coefficient rows: a full-dimensional polytope has no such
    row and takes no rank.  (``VRepresentation.dimension``, the rank of the
    vertex vectors, gives the same number.)  In any H-representation a row
    defines a facet exactly when its tight vertex set is proper and maximal
    among the rows' tight sets (each facet is some row's tight set, and every
    other proper face lies in a facet), so a row is a facet when the
    dimension is at least 1 and no proper mask strictly contains its mask.
    Masks are visited by decreasing size, so each is checked only against
    the maximal ones kept before it.  The result is cached on the
    representation, like its vertices, and every caller gets the same
    lists: read them, do not change them.
    """
    if h._classify_cache is not None:
        return h._classify_cache
    v = enumerate_vertices(h)
    full = (1 << len(v)) - 1
    masks = []
    for ineq in h.inequalities:
        tight, remainder = divmod(ineq.rhs.numerator * v.scale, ineq.rhs.denominator)
        values = _scaled_values(v, ineq) if remainder == 0 else ()
        masks.append(sum(1 << i for i, s in enumerate(values) if s == tight))
    implicit = [ineq for ineq, m in zip(h.inequalities, masks) if m == full]
    dim = len(h.coordinates) - _rank(map(h._dense, (*h.equalities, *implicit)))
    maximal: list[int] = []
    if dim >= 1:
        for m in sorted({m for m in masks if m != full}, key=int.bit_count, reverse=True):
            if all(m & n != m for n in maximal):
                maximal.append(m)
    facets = [ineq for ineq, m in zip(h.inequalities, masks) if m in maximal]
    h._classify_cache = v, dim, facets, implicit
    return h._classify_cache


def irredundant(h: HRepresentation) -> HRepresentation:
    """Keep exactly the facet-defining inequalities.

    Inequalities tight on every vertex describe the polytope's affine hull;
    they are moved to the equality list (only possible for degenerate input)
    so the returned representation describes the same point set.
    """
    _, _, facets, implicit = classify_inequalities(h)
    return HRepresentation(h.coordinates, facets, list(h.equalities) + implicit)


# ---------------------------------------------------------------------------
# lattice-point counting

def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def count_lattice_points(h: HRepresentation, dilation: int) -> int:
    """Exact number of integer points in the dilated polytope.

    Walks the declared coordinate order; at each prefix the next coordinate's
    integer range is derived from every constraint touching it, relaxing
    still-free coordinates to their vertex box.  Every constraint is enforced
    exactly once its last coordinate is reached, so the relaxation only
    prunes.  The Ehrhart counting route also counts relative-interior points
    with the same walk (``_count_points`` with ``shrink`` 1).  Raises
    DimensionTooLarge once the walk passes its node budget.
    """
    if dilation < 0:
        raise ValueError("dilation must be nonnegative")
    return _count_points(h, dilation, 0)


def _count_kernel(h: HRepresentation) -> tuple:
    """The integer setup that lattice counting shares across dilations, cached on ``h``.

    Returns (L, least, greatest, rows, touch, last):

    - L is the vertices' common denominator, and least[j] and greatest[j]
      are the least and greatest L x_j over the vertices;
    - rows holds (terms, p, tight) per integer row terms . x <= p n of the
      n-th dilate, its terms from ``_int_terms`` by decreasing column.  An
      equality is tight, and so is a row tight on every vertex (implicit,
      from ``classify_inequalities``, which takes no rank on a
      full-dimensional polytope): a tight row comes with its negation, and no
      shrink lowers it;
    - touch[j] lists (row, coefficient) for every term in column j;
    - last holds the rows with a term in the last column, in four lists:
      (row, |coefficient|) for the rows with no term b in the column before
      it, bounding it from above and from below, then (row, |coefficient|,
      b) for the others, from above and from below.
    """
    if h._count_cache is not None:
        return h._count_cache
    v, _, _, implicit = classify_inequalities(h)
    d = len(h.coordinates)
    rows: list[tuple[list[tuple[int, int]], int, bool]] = []
    for ineq, tight in [(e, True) for e in h.equalities] + [(i, i in implicit) for i in h.inequalities]:
        terms, p = _int_terms(h, ineq)
        terms.sort(reverse=True)
        rows.append((terms, p, tight))
        if tight:
            rows.append(([(j, -a) for j, a in terms], -p, True))
    touch: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for r, (terms, _, _) in enumerate(rows):
        for j, a in terms:
            touch[j].append((r, a))
    fixed_up, fixed_low, vary_up, vary_low = last = ([], [], [], [])
    if d:
        before = dict(touch[d - 2]) if d > 1 else {}
        for r, a in touch[d - 1]:
            if b := before.get(r, 0):
                (vary_up if a > 0 else vary_low).append((r, abs(a), b))
            else:
                (fixed_up if a > 0 else fixed_low).append((r, abs(a)))
    columns = v._columns.values()
    h._count_cache = (v.scale, [min(c) for c in columns], [max(c) for c in columns], rows, touch, last)
    return h._count_cache


def _count_points(h: HRepresentation, dilation: int, shrink: int) -> int:
    """Integer points of the dilate with every non-tight row's integer rhs lowered by ``shrink``.

    Shrink 0 counts the closed dilate.  Shrink 1 counts its relative interior
    (for dilation >= 1): each row is all-integer, so a.x < b is a.x <= b - 1;
    rows tight on the whole polytope stay equalities, like the equality rows
    (``_count_kernel``).  A row can be tight everywhere even when the
    equalities alone already cut the polytope's affine hull out, as y <= 0 is
    beside y = 0.  Everything runs in integers on the kernel, built once per
    representation; a call builds only what depends on the dilation n and
    the shrink: each coordinate's box (its least and greatest L x over the
    vertices, times n / L, rounded inward), the rows' slacks, and for each
    term the least that the row's later coordinates add inside the box.
    """
    scale, least, greatest, rows, touch, last = _count_kernel(h)
    d = len(h.coordinates)
    if dilation == 0 or d == 0:
        return 1
    n = dilation
    box_lo = [_ceil_div(x * n, scale) for x in least]
    box_hi = [x * n // scale for x in greatest]
    if any(lo > hi for lo, hi in zip(box_lo, box_hi)):
        return 0
    slack = [p * n if tight else p * n - shrink for _, p, tight in rows]
    # Row r bounds coordinate i by its slack less the least that coordinates
    # after i can add to it inside the box (``rest``): from above when its
    # coefficient a is positive, from below when it is negative.
    upper: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    lower: list[list[tuple[int, int, int]]] = [[] for _ in range(d)]
    for r, (terms, _, _) in enumerate(rows):
        rest = 0
        for j, a in terms:
            if a > 0:
                upper[j].append((r, a, rest))
                rest += a * box_lo[j]
            else:
                lower[j].append((r, -a, rest))
                rest += a * box_hi[j]
    return _lattice_walk(box_lo, box_hi, slack, upper, lower, touch, last)


def _lattice_walk(box_lo: list[int], box_hi: list[int], slack: list[int],
                  upper: list[list[tuple[int, int, int]]], lower: list[list[tuple[int, int, int]]],
                  touch: list[list[tuple[int, int]]], last: tuple[list, list, list, list]) -> int:
    """The integer points of the box that leave every slack nonnegative, walked without recursion.

    Level i holds coordinate i's value and top in the flat lists ``value``
    and ``top``; assigning it takes its terms off the slacks (``touch``), and
    the walk backs up to the deepest level with a value left once a range is
    spent or empty.  The last coordinate is never assigned: inside the loop
    over the last-but-one coordinate x, each row on the last column bounds it
    by (slack - b x) / |a|, and its range adds its length.  A row with b = 0
    gives the same bound for every x, so it is read once per loop, and with
    no b != 0 row the loop is one product.  Every assignment before the last
    coordinate counts against the node budget, a whole range at a time;
    DimensionTooLarge once they pass it.
    """
    cap = _work_cap(DEFAULT_LATTICE_NODE_CAP)
    end = len(box_lo) - 1
    fixed_up, fixed_low, vary_up, vary_low = last
    varies = bool(vary_up or vary_low)
    end_lo, end_hi = box_lo[end], box_hi[end]
    value = [0] * end
    top = [0] * end
    total = nodes = 0
    i = 0
    while True:
        lo, hi = box_lo[i], box_hi[i]
        for r, a, rest in upper[i]:
            bound = (slack[r] - rest) // a
            if bound < hi:
                hi = bound
        for r, a, rest in lower[i]:
            bound = -((slack[r] - rest) // a)
            if bound > lo:
                lo = bound
        if i == end:  # one coordinate only
            return max(hi - lo + 1, 0)
        if lo <= hi:
            nodes += hi - lo + 1
            if nodes > cap:
                raise DimensionTooLarge(f"more than {cap} lattice-walk nodes"
                                        "; set MPP_WORK_CAP to raise it")
            if i < end - 1:
                for r, a in touch[i]:
                    slack[r] -= a * lo
                value[i], top[i] = lo, hi
                i += 1
                continue
            # i is the last-but-one coordinate: count the last one for each of its values
            fixed_lo, fixed_hi = end_lo, end_hi
            for r, a in fixed_up:
                bound = slack[r] // a
                if bound < fixed_hi:
                    fixed_hi = bound
            for r, a in fixed_low:
                bound = -(slack[r] // a)
                if bound > fixed_lo:
                    fixed_lo = bound
            if fixed_lo <= fixed_hi and not varies:
                total += (hi - lo + 1) * (fixed_hi - fixed_lo + 1)
            elif fixed_lo <= fixed_hi:
                for x in range(lo, hi + 1):
                    y_lo, y_hi = fixed_lo, fixed_hi
                    for r, a, b in vary_up:
                        bound = (slack[r] - b * x) // a
                        if bound < y_hi:
                            y_hi = bound
                    for r, a, b in vary_low:
                        bound = -((slack[r] - b * x) // a)
                        if bound > y_lo:
                            y_lo = bound
                    if y_lo <= y_hi:
                        total += y_hi - y_lo + 1
        while True:  # back up to the deepest level with a value left
            i -= 1
            if i < 0:
                return total
            rows_i = touch[i]
            if value[i] < top[i]:
                value[i] += 1
                for r, a in rows_i:
                    slack[r] -= a
                i += 1
                break
            for r, a in rows_i:
                slack[r] += a * top[i]


# ---------------------------------------------------------------------------
# univariate polynomials over Q

def _convolve(a: Sequence, b: Sequence) -> list:
    """The coefficients of the product of two polynomials (integer or rational)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass(frozen=True)
class UnivariatePolynomial:
    """A rational polynomial in the dilation variable, constant term first."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        # a Fraction is kept as it is: Fraction(c) would copy it, through a slow abstract type check
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x: int | Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        return ", ".join(str(c) for c in self.coefficients)


def interpolate_polynomial(points: Sequence[tuple[int | Fraction, int | Fraction]]) -> UnivariatePolynomial:
    """The unique rational polynomial through the points (exact Lagrange, in integers).

    With the abscissae scaled to integers X_i = D x_i and the values to
    integers Y_i = E y_i (D, E least common denominators), every basis
    polynomial F(t) / (t - X_i) / w_i, where F = prod_j (t - X_j) and
    w_i = prod_{j != i} (X_i - X_j), is put over W = lcm |w_i|; each quotient
    comes from F by synthetic division.  The integer numerator
    N = sum_i Y_i (W / w_i) F / (t - X_i) gives the coefficient of x^k as
    N_k D^k / (W E), one division per coefficient.
    """
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    ys = [y for _, y in points]
    dx = math.lcm(*(x.denominator for x in xs))
    dy = math.lcm(*(y.denominator for y in ys))
    xs_int = [x.numerator * (dx // x.denominator) for x in xs]
    full = [1]
    for xj in xs_int:
        full = [a - xj * b for a, b in zip([0, *full], full + [0])]
    weights = [math.prod(xi - xj for xj in xs_int if xj != xi) for xi in xs_int]
    common = math.lcm(*weights)
    size = len(xs_int)
    numerator = [0] * size
    for xi, y, w in zip(xs_int, ys, weights):
        scale = y.numerator * (dy // y.denominator) * (common // w)
        if not scale:
            continue
        q = 1  # quotient coefficients of F / (t - xi), from the top down
        for k in range(size - 1, -1, -1):
            numerator[k] += scale * q
            q = full[k] + xi * q
    denominator = common * dy
    return UnivariatePolynomial(tuple(Fraction(c * dx ** k, denominator)
                                      for k, c in enumerate(numerator)))

