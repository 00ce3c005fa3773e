"""Exact rational polytope machinery: H/V representations and lattice counts.

Everything here is arbitrary-precision exact arithmetic; there is no
tolerance anywhere because downstream tests (facet detection, 2-levelness)
are equality tests.  Vertex enumeration is the double description method on
the homogenized cone, under a hard work cap on the rays it holds; its cost
follows the vertex count rather than the number of constraint subsets, and
the same cone settles boundedness and emptiness.  The test suite keeps the
plain subset walk (solve every independent subset of d rows, keep the
feasible solutions) as its oracle.  A vertex set is stored as one common
denominator L and the integer vectors L x, which the double description
yields directly; facet values, dimensions, counting boxes and rows all stay
in integers.  Rationals appear only in an inequality's right-hand side and
in reported values (vertex coordinates, affine values, polynomials).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionTooLarge,
    EmptyPolytope,
    UnboundedPolytope,
)

DEFAULT_SUBSET_CAP = 10**7

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
    """

    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs: Mapping[str, int | Fraction], rhs: int | Fraction):
        if all(isinstance(v, int) for v in coeffs.values()):  # no Fraction per coefficient
            scale = 1
            ints = {c: v for c, v in coeffs.items() if v != 0}
        else:
            exact = {c: Fraction(v) for c, v in coeffs.items() if v != 0}
            scale = math.lcm(*(v.denominator for v in exact.values()))
            ints = {c: int(v * scale) for c, v in exact.items()}
        if not ints:
            raise ValueError("inequality needs at least one nonzero coefficient")
        g = math.gcd(*ints.values())
        self.coeffs: dict[str, int] = {c: v // g for c, v in sorted(ints.items())}
        rhs = Fraction(rhs)
        self.rhs: Fraction = rhs if scale == g == 1 else rhs * scale / g

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        return sum((point[c] * a for c, a in self.coeffs.items()), Fraction(0))

    def negated(self) -> "LinearInequality":
        """The same hyperplane with flipped orientation (for equality rows only)."""
        return LinearInequality({c: -a for c, a in self.coeffs.items()}, -self.rhs)

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
    each row's nonzeros alone (``_sparse_key``).  Equalities are additionally
    sign-normalized (first nonzero coefficient positive).
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
        ineqs = list(inequalities)
        eqs = list(equalities)
        for row in ineqs + eqs:
            unknown = [c for c in row.coeffs if c not in self._column]
            if unknown:
                raise ValueError(f"constraint references undeclared coordinates {sorted(unknown)}")
        self.inequalities: tuple[LinearInequality, ...] = self._canonical(ineqs)
        self.equalities: tuple[LinearInequality, ...] = self._canonical(
            [self._sign_normalized(e) for e in eqs])
        self._vertex_cache: VRepresentation | None = None
        self._classify_cache: tuple | None = None

    def _dense(self, row: LinearInequality) -> list[int]:
        """The row's coefficients in declared coordinate order."""
        dense = [0] * len(self.coordinates)
        for c, a in row.coeffs.items():
            dense[self._column[c]] = a
        return dense

    def _sparse_key(self, row: LinearInequality) -> tuple:
        """A key that sorts and compares like ``(*self._dense(row), row.rhs)``.

        Each nonzero a in column j becomes (1, -j, a) if a > 0, else (-1, j, a),
        in column order, then a (0,) terminator stands for the zeros after the
        last one.  At the first column where two dense rows differ, the entry
        of the row with the larger value there sorts higher: a positive entry
        beats any later entry or the terminator, a negative one loses to them.
        """
        entries = sorted((self._column[c], a) for c, a in row.coeffs.items())
        return (*((1, -j, a) if a > 0 else (-1, j, a) for j, a in entries), (0,), row.rhs)

    def _canonical(self, rows: list[LinearInequality]) -> tuple[LinearInequality, ...]:
        unique = {self._sparse_key(row): row for row in rows}
        return tuple(unique[k] for k in sorted(unique))

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
    def _dimension(self) -> int:
        """The affine dimension: the rank of the vectors (L x, L), minus 1 (-1 when empty)."""
        ech = _IntEchelon(len(self.coordinates) + 1)
        for p in self.vectors:
            ech.push_residual(ech.residual([*p, self.scale]))
        return ech.rank - 1

    def point_maps(self) -> list[dict[str, Fraction]]:
        return [dict(zip(self.coordinates, v)) for v in self.vertices]

    def __len__(self) -> int:
        return len(self.vectors)


def contains(h: HRepresentation, point: Mapping[str, Fraction]) -> bool:
    """Exact membership test of a named point in the polytope."""
    return (all(i.evaluate(point) <= i.rhs for i in h.inequalities)
            and all(e.evaluate(point) == e.rhs for e in h.equalities))


# ---------------------------------------------------------------------------
# fraction-free linear algebra on integer rows [a_1 .. a_d | rhs]

def _row_gcd(row: Sequence[int]) -> int:
    # not math.gcd(*row): that scans every entry, the loop stops at the first gcd of 1
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            break
    return g or 1


class _IntEchelon:
    """Incremental integer row echelon; the stacked ``rows`` may be popped from the end.

    Rows represent linear *equations* (scaling by -1 is immaterial), stored
    primitive.  Each incoming row is reduced against the stack fraction-free;
    a push succeeds only when the coefficient part stays nonzero, so stacked
    rows are independent in their coefficient columns.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple[int, list[int]]] = []

    def residual(self, row: Sequence[int]) -> list[int]:
        r = list(row)
        for pivot, brow in self.rows:
            f = r[pivot]
            if f:
                bp = brow[pivot]
                r = [x * bp - f * y for x, y in zip(r, brow)]
        return r

    def push_residual(self, r: list[int]) -> bool:
        pivot = -1
        for j in range(self.width):
            if r[j]:
                pivot = j
                break
        if pivot < 0:
            return False
        g = _row_gcd(r)
        self.rows.append((pivot, [x // g for x in r]))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def _int_row(h: HRepresentation, ineq: LinearInequality, dilation: int = 1) -> list[int]:
    """The constraint with its rhs times ``dilation``, as an all-integer augmented row.

    The row a.x <= (p/q) n becomes (q a).x <= p n; it need not be primitive
    when n shares a factor with q, which leaves its integer solutions alone.
    """
    q = ineq.rhs.denominator
    row = [a * q for a in h._dense(ineq)]
    row.append(ineq.rhs.numerator * dilation)
    return row


def _dot(row: Sequence[tuple[int, int]], vec: Sequence[int]) -> int:
    """A sparse row ``[(column, coefficient), ...]`` times a dense vector."""
    return sum(a * vec[j] for j, a in row)


def _cone_row(h: HRepresentation, ineq: LinearInequality) -> list[tuple[int, int]]:
    """The constraint a.x <= b (or = b) as the sparse integer row (-a, b).

    The row is >= 0 (= 0) at (x, 1) for every point x of the polytope.
    """
    row = _int_row(h, ineq)
    d = len(row) - 1
    return [(j, -a) for j, a in enumerate(row[:d]) if a] + ([(d, row[d])] if row[d] else [])


def _eliminate(a: int, v: Sequence[int], s: int, l: Sequence[int]) -> list[int]:
    """a v - s l, divided by its gcd: orthogonal to a row g with g.v = s and g.l = a."""
    w = [a * x - s * y for x, y in zip(v, l)]
    g = _row_gcd(w)
    return w if g == 1 else [x // g for x in w]


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
    no third ray is tight on all of them (the combinatorial test).

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
    cap = _work_cap(DEFAULT_SUBSET_CAP)

    rows = ([([(d, 1)], False)] + [(_cone_row(h, e), True) for e in h.equalities]
            + [(_cone_row(h, i), False) for i in h.inequalities])

    def check_cap(n: int) -> None:
        if n > cap:
            raise DimensionTooLarge(f"{n} double-description rays exceed the work cap {cap}"
                                    "; set MPP_WORK_CAP to raise it")

    lineality = [[int(i == j) for j in range(d + 1)] for i in range(d + 1)]
    rays: list[list[int]] = []
    imposed: list[list[tuple[int, int]]] = []
    later: list[list[tuple[int, int]]] = []
    inconsistent = False
    for g, equality in rows:
        dots = [_dot(g, l) for l in lineality]
        k = next((k for k, s in enumerate(dots) if s), None)
        if k is None:
            if not equality:
                later.append(g)
            elif any(_dot(g, r) for r in rays):
                inconsistent, rays = True, []
            continue
        l, a = lineality.pop(k), dots.pop(k)
        if a < 0:
            l, a = [-x for x in l], -a
        lineality = [_eliminate(a, v, s, l) if s else v for v, s in zip(lineality, dots)]
        rays = [_eliminate(a, r, s, l) if (s := _dot(g, r)) else r for r in rays]
        if not equality:
            rays.append(l)
            check_cap(len(rays))
        imposed.append(g)
    if lineality:
        raise UnboundedPolytope("constraints do not span the space; unbounded if feasible")

    zero_sets = [sum(1 << i for i, g in enumerate(imposed) if _dot(g, r) == 0) for r in rays]
    for i, g in enumerate(later, start=len(imposed)):
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
                if sum(1 for z in zero_sets if z & common == common) > 2:
                    continue
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


def affine_dimension(v: VRepresentation | Iterable[Point]) -> int:
    """Dimension of the affine hull of a vertex set or of points (-1 for none, 0 for one)."""
    if not isinstance(v, VRepresentation):
        points = list(v)
        v = VRepresentation.from_points(map(str, range(len(points[0]) if points else 0)), points)
    return v._dimension


def _scaled_values(v: VRepresentation, ineq: LinearInequality) -> list[int]:
    """a . (L x) at every vertex x, in vertex order, for the row a . x <= b (L = ``v.scale``)."""
    terms = iter(ineq.coeffs.items())
    c, a = next(terms)
    values = [a * x for x in v._columns[c]]
    for c, a in terms:
        values = [s + a * x for s, x in zip(values, v._columns[c])]
    return values


def evaluate_affine_values(v: VRepresentation, ineq: LinearInequality) -> tuple[Fraction, ...]:
    """The multiset (as a sorted tuple) of the functional's values on the vertices."""
    return tuple(Fraction(s, v.scale) for s in sorted(_scaled_values(v, ineq)))


def classify_inequalities(
    h: HRepresentation
) -> tuple[VRepresentation, int, list[LinearInequality], list[LinearInequality]]:
    """Split inequalities into facets and implicit equalities by their tight-vertex masks.

    Returns (vertices, polytope dimension, facet inequalities, inequalities
    tight on every vertex).  Inequalities in neither list are redundant.  The
    dimension is the vertex set's (one rank of the vectors (L x, L), minus 1).
    Each row's mask holds a bit per vertex where a . (L x) = b L.  A row is
    implicit when its mask is every vertex.  In any H-representation a row
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
    dim = v._dimension
    full = (1 << len(v)) - 1
    masks = []
    for ineq in h.inequalities:
        tight, remainder = divmod(ineq.rhs.numerator * v.scale, ineq.rhs.denominator)
        values = _scaled_values(v, ineq) if remainder == 0 else ()
        masks.append(sum(1 << i for i, s in enumerate(values) if s == tight))
    maximal: list[int] = []
    if dim >= 1:
        for m in sorted({m for m in masks if m != full}, key=int.bit_count, reverse=True):
            if all(m & n != m for n in maximal):
                maximal.append(m)
    facets = [ineq for ineq, m in zip(h.inequalities, masks) if m in maximal]
    implicit = [ineq for ineq, m in zip(h.inequalities, masks) if m == full]
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

    Counts by recursing over the declared coordinate order; at each prefix the
    next coordinate's integer range is derived from every constraint touching
    it, relaxing still-free coordinates to their vertex box.  Every constraint
    is enforced exactly once its last coordinate is reached, so the relaxation
    only prunes.  The Ehrhart counting route also counts relative-interior
    points with the same recursion (``_count_points`` with ``shrink`` 1).
    """
    if dilation < 0:
        raise ValueError("dilation must be nonnegative")
    return _count_points(h, dilation, 0)


def _count_points(h: HRepresentation, dilation: int, shrink: int) -> int:
    """Integer points of the dilate with every non-implicit row's integer rhs lowered by ``shrink``.

    Shrink 0 counts the closed dilate.  Shrink 1 counts its relative interior
    (for dilation >= 1): each row is all-integer, so a.x < b is a.x <= b - 1;
    rows tight on the whole polytope (implicit) stay equalities, like the
    equality rows.  Implicit rows are looked up only when the polytope is not
    full-dimensional: a row can be tight everywhere even when the equalities
    alone already cut the polytope's affine hull out, as y <= 0 is beside
    y = 0.  Everything runs in integers: the rows come from ``_int_row``, and
    each coordinate's box is its least and greatest L x over the vertices,
    times n / L, rounded inward.
    """
    v = enumerate_vertices(h)
    if dilation == 0:
        return 1
    d = len(h.coordinates)
    if d == 0:
        return 1

    n = dilation
    eq_rows = [_int_row(h, e, n) for e in h.equalities]
    implicit: list[LinearInequality] = []
    if shrink and v._dimension < d:
        implicit = classify_inequalities(h)[3]
    rows = []
    for ineq in h.inequalities:
        row = _int_row(h, ineq, n)
        if ineq in implicit:
            eq_rows.append(row)
        else:
            row[d] -= shrink
            rows.append(row)
    for row in eq_rows:
        rows += [row, [-a for a in row]]

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
    for r, row in enumerate(rows):
        rest = 0
        for j in range(d - 1, -1, -1):
            a = row[j]
            if a:
                (upper if a > 0 else lower)[j].append((r, abs(a), rest))
                touch[j].append((r, a))
                rest += min(a * box_lo[j], a * box_hi[j])

    slack = [row[d] for row in rows]
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
        coeffs = tuple(Fraction(c) for c in self.coefficients)
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

    def __add__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        width = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [Fraction(0)] * (width - len(self.coefficients))
        b = list(other.coefficients) + [Fraction(0)] * (width - len(other.coefficients))
        return UnivariatePolynomial(tuple(x + y for x, y in zip(a, b)))

    def __mul__(self, other: "UnivariatePolynomial | int | Fraction") -> "UnivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            return UnivariatePolynomial(tuple(c * other for c in self.coefficients))
        return UnivariatePolynomial(tuple(_convolve(self.coefficients, other.coefficients)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UnivariatePolynomial":
        result = UnivariatePolynomial((Fraction(1),))
        for _ in range(k):
            result = result * self
        return result

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        return ", ".join(str(c) for c in self.coefficients)


def polynomial(coeffs: Iterable[int | Fraction]) -> UnivariatePolynomial:
    return UnivariatePolynomial(tuple(Fraction(c) for c in coeffs))


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
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(y) for _, y in points]
    dx = math.lcm(*(x.denominator for x in fx))
    dy = math.lcm(*(y.denominator for y in fy))
    xs_int = [x.numerator * (dx // x.denominator) for x in fx]
    full = [1]
    for xj in xs_int:
        full = [a - xj * b for a, b in zip([0, *full], full + [0])]
    weights = [math.prod(xi - xj for xj in xs_int if xj != xi) for xi in xs_int]
    common = math.lcm(*weights)
    size = len(xs_int)
    numerator = [0] * size
    for xi, y, w in zip(xs_int, fy, weights):
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


# ---------------------------------------------------------------------------
# exact affine images (used by invariance tests and the corpus harness)

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
