"""Exact rational polytope machinery: H/V representations and lattice counts.

Everything here is arbitrary-precision exact arithmetic; there is no
tolerance anywhere because downstream tests (facet detection, 2-levelness)
are equality tests.  Vertex enumeration is the double description method on
the homogenized cone, under a hard work cap on the rays it holds; its cost
follows the vertex count rather than the number of constraint subsets.  The
test suite keeps the plain subset walk (solve every independent subset of d
rows, keep the feasible solutions) as its oracle.  The hot paths run
fraction-free on integer rows; rationals appear only at solution time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

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
    """A deduplicated, lexicographically sorted set of exact vertices."""

    coordinates: tuple[str, ...]
    vertices: tuple[Point, ...]

    @cached_property
    def _integer_vectors(self) -> list[list[int]]:
        """Each vertex x as the integer vector (D x, D), D the least common denominator of x."""
        return _homogenized(self.vertices)

    @cached_property
    def _box(self) -> list[tuple[Fraction, Fraction]]:
        """Each coordinate's least and greatest value over the vertices."""
        return [(min(values), max(values)) for values in zip(*self.vertices)]

    def point_maps(self) -> list[dict[str, Fraction]]:
        return [dict(zip(self.coordinates, v)) for v in self.vertices]

    def __len__(self) -> int:
        return len(self.vertices)


def contains(h: HRepresentation, point: Mapping[str, Fraction]) -> bool:
    """Exact membership test of a named point in the polytope."""
    return (all(i.evaluate(point) <= i.rhs for i in h.inequalities)
            and all(e.evaluate(point) == e.rhs for e in h.equalities))


# ---------------------------------------------------------------------------
# fraction-free linear algebra on integer rows [a_1 .. a_d | rhs]

def _row_gcd(row: Sequence[int]) -> int:
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            break
    return g or 1


class _IntEchelon:
    """Incremental integer row echelon with stack discipline.

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

    def pop(self) -> None:
        self.rows.pop()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def null_direction(self) -> list[Fraction]:
        """The kernel vector that is 1 at the one free column.

        Requires rank == width - 1 and homogeneous stacked rows (rhs 0).  The
        pivots are distinct because a residual is zero at every stacked pivot;
        back-substitution fills them from the last one down.
        """
        pivots = {p for p, _ in self.rows}
        x = [Fraction(0 if j in pivots else 1) for j in range(self.width)]
        for pivot, row in sorted(self.rows, key=lambda t: -t[0]):
            acc = Fraction(row[self.width])
            for j in range(pivot + 1, self.width):
                if row[j]:
                    acc -= row[j] * x[j]
            x[pivot] = acc / row[pivot]
        return x


def _int_row(h: HRepresentation, ineq: LinearInequality, dilation: int = 1) -> list[int]:
    """The constraint with its rhs times ``dilation``, as an all-integer augmented row."""
    rhs = ineq.rhs * dilation
    row = [a * rhs.denominator for a in h._dense(ineq)]
    row.append(rhs.numerator)
    return row


def _int_vector(values: Sequence[Fraction]) -> list[int]:
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values]


def _seed_equalities(ech: _IntEchelon, eq_rows: list[list[int]]) -> None:
    for row in eq_rows:
        r = ech.residual(row)
        if not ech.push_residual(r) and r[ech.width] != 0:
            raise EmptyPolytope("inconsistent equality constraints")


def _interval_bound_certificate(h: HRepresentation) -> bool:
    """Try to certify boundedness by propagating per-coordinate intervals.

    Sound but incomplete: success proves the polyhedron bounded, failure says
    nothing.  All H-representations produced by this package certify here.
    """
    coords = h.coordinates
    if not coords:
        return True
    rows = [(i.coeffs, i.rhs) for i in h.inequalities]
    for e in h.equalities:
        rows.append((e.coeffs, e.rhs))
        neg = e.negated()
        rows.append((neg.coeffs, neg.rhs))
    lower: dict[str, Fraction | None] = {c: None for c in coords}
    upper: dict[str, Fraction | None] = {c: None for c in coords}
    for _ in range(len(coords) + 2):
        changed = False
        for coeffs, rhs in rows:
            for target, a_t in coeffs.items():
                budget = rhs
                usable = True
                for c, a in coeffs.items():
                    if c == target:
                        continue
                    bound = lower[c] if a > 0 else upper[c]
                    if bound is None:
                        usable = False
                        break
                    budget -= a * bound
                if not usable:
                    continue
                cand = budget / a_t
                if a_t > 0:
                    if upper[target] is None or cand < upper[target]:
                        upper[target] = cand
                        changed = True
                else:
                    if lower[target] is None or cand > lower[target]:
                        lower[target] = cand
                        changed = True
        if all(lower[c] is not None and upper[c] is not None for c in coords):
            return True
        if not changed:
            return False
    return False


def _walk_subsets(
    ech: _IntEchelon, rows: list[list[int]], target: int, visit: Callable[[], bool | None]
) -> bool:
    """Call ``visit`` once per subset of ``rows`` that raises ``ech`` to rank ``target``.

    Depth-first over independent subsets in index order.  A truthy ``visit``
    stops the walk, leaving its subset stacked on ``ech``, and the walk
    returns True.
    """
    need = target - ech.rank
    cap = _work_cap(DEFAULT_SUBSET_CAP)
    if math.comb(len(rows), need) > cap:
        raise DimensionTooLarge(f"C({len(rows)}, {need}) candidate subsets exceed the work cap {cap}"
                                "; set MPP_WORK_CAP to raise it")

    def dfs(start: int) -> bool:
        if ech.rank == target:
            return bool(visit())
        for idx in range(start, len(rows) - (target - ech.rank) + 1):
            if ech.push_residual(ech.residual(rows[idx])):
                if dfs(idx + 1):
                    return True
                ech.pop()
        return False

    return dfs(0)


def _reject_unbounded_by_rays(h: HRepresentation) -> None:
    """Complete boundedness check for inputs the interval pass cannot certify.

    Detects a recession direction by enumerating candidate extreme rays of the
    homogeneous system; raises UnboundedPolytope when one exists.  A system
    whose constraint rows do not span the space is rejected as unbounded
    outright (it is unbounded whenever it is feasible).
    """
    d = len(h.coordinates)
    ineq_vecs = [h._dense(i) + [0] for i in h.inequalities]
    eq_vecs = [h._dense(e) + [0] for e in h.equalities]
    probe = _IntEchelon(d)
    for vec in ineq_vecs + eq_vecs:
        probe.push_residual(probe.residual(vec))
    if probe.rank < d:
        raise UnboundedPolytope("constraints do not span the space; unbounded if feasible")

    def is_ray(v: list[Fraction]) -> bool:
        if any(sum(a * x for a, x in zip(vec, v)) != 0 for vec in eq_vecs):
            return False
        return all(sum(a * x for a, x in zip(vec, v)) <= 0 for vec in ineq_vecs)

    ech = _IntEchelon(d)
    _seed_equalities(ech, eq_vecs)

    def found() -> bool:
        v = ech.null_direction()
        return is_ray(v) or is_ray([-x for x in v])

    if ech.rank < d and _walk_subsets(ech, ineq_vecs, d - 1, found):
        raise UnboundedPolytope("recession direction found")


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

    The equalities come first, after t >= 0 alone.  As they are consistent
    (the caller checks), one orthogonal to all lineality is a combination of
    those before it, so it is implied and skipped.

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
    waiting: list[list[tuple[int, int]]] = []
    pending = iter(rows)
    for g, equality in pending:
        dots = [_dot(g, l) for l in lineality]
        k = next((k for k, s in enumerate(dots) if s), None)
        if k is None:
            if not equality:
                waiting.append(g)
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
        if not lineality:
            break
    assert not lineality, "a bounded polyhedron has a pointed homogenized cone"

    zero_sets = [sum(1 << i for i, g in enumerate(imposed) if _dot(g, r) == 0) for r in rays]
    later = waiting + [g for g, equality in pending if not equality]
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
    return rays


def enumerate_vertices(h: HRepresentation) -> VRepresentation:
    """All vertices, exactly: x / t over the extreme rays (x, t) of the homogenized cone.

    The rays come from the double description method (``_double_description``);
    boundedness is settled first, so every ray has t > 0.  The test suite
    holds the result to the subset walk, which solves every independent
    subset of d rows and keeps the feasible solutions.  Raises
    UnboundedPolytope / EmptyPolytope / DimensionTooLarge (past the work cap)
    per the contract; results are cached on the representation.
    """
    if h._vertex_cache is not None:
        return h._vertex_cache
    d = len(h.coordinates)
    if not _interval_bound_certificate(h):
        _reject_unbounded_by_rays(h)
    _seed_equalities(_IntEchelon(d), [_int_row(h, e) for e in h.equalities])
    vertices = []
    for r in _double_description(h):
        t = r[d]
        assert t > 0, "a bounded polyhedron has no ray at infinity"
        vertices.append(tuple(Fraction(x, t) for x in r[:d]))
    if not vertices:
        raise EmptyPolytope("no vertex satisfies all constraints")
    result = VRepresentation(h.coordinates, tuple(sorted(vertices)))
    h._vertex_cache = result
    return result


def _rank(rows: Iterable[Sequence[int]], width: int) -> int:
    ech = _IntEchelon(width)
    for row in rows:
        ech.push_residual(ech.residual(row))
    return ech.rank


def _homogenized(points: Iterable[Point]) -> list[list[int]]:
    """Each point x as the integer vector (D x, D), D the least common denominator of x."""
    return [_int_vector([*p, Fraction(1)]) for p in points]


def affine_dimension(v: VRepresentation | Iterable[Point]) -> int:
    """Dimension of the affine hull of a vertex set (-1 for empty, 0 for a point)."""
    points = v._integer_vectors if isinstance(v, VRepresentation) else _homogenized(v)
    return _rank(points, len(points[0]) if points else 0) - 1


def evaluate_affine_values(v: VRepresentation, ineq: LinearInequality) -> tuple[Fraction, ...]:
    """The multiset (as a sorted tuple) of the functional's values on the vertices.

    Read off the vertices' integer vectors (D x, D) as (a . D x) / D.
    """
    terms = [(v.coordinates.index(c), a) for c, a in ineq.coeffs.items()]
    d = len(v.coordinates)
    return tuple(sorted(Fraction(_dot(terms, p), p[d]) for p in v._integer_vectors))


def classify_inequalities(
    h: HRepresentation
) -> tuple[VRepresentation, int, list[LinearInequality], list[LinearInequality]]:
    """Split inequalities into facets and implicit equalities via tight-vertex dimension.

    Returns (vertices, polytope dimension, facet inequalities, inequalities
    tight on every vertex).  Inequalities in neither list are redundant.
    Runs on the vertices homogenized to integer vectors (D x, D): a row is
    tight where its cone row (-a, b) vanishes, and an affine dimension is a
    rank minus 1.
    """
    v = enumerate_vertices(h)
    width = len(h.coordinates) + 1
    points = v._integer_vectors
    dim = _rank(points, width) - 1
    facets: list[LinearInequality] = []
    implicit: list[LinearInequality] = []
    for ineq in h.inequalities:
        g = _cone_row(h, ineq)
        tight_dim = _rank((p for p in points if _dot(g, p) == 0), width) - 1
        if tight_dim == dim:
            implicit.append(ineq)
        elif tight_dim == dim - 1 and dim >= 1:
            facets.append(ineq)
    return v, dim, facets, implicit


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
    y = 0.
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
    if shrink and affine_dimension(v) < d:
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
    for lo, hi in v._box:
        box_lo.append(_ceil_div(lo.numerator * n, lo.denominator))
        box_hi.append(hi.numerator * n // hi.denominator)
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
        if not self.coefficients or not other.coefficients:
            return ZERO_POLYNOMIAL
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    if b:
                        out[i + j] += a * b
        return UnivariatePolynomial(tuple(out))

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


ZERO_POLYNOMIAL = UnivariatePolynomial(())


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
