"""Polytope core: vertex enumeration, redundancy, counting, interpolation.

Derived expectations are frozen from independent oracles implemented here:
a two-constraint Cramer solver for 2D vertex candidates, the subset walk
(solve every independent subset of d rows) for vertices in any dimension,
the interval certificate and the ray walk for boundedness, a
rational-elimination rank for facet classification, and a plain box scan
for lattice points.
"""

import itertools
import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markedposets import (
    ChainOrderPartition,
    DimensionTooLarge,
    EmptyPolytope,
    HRepresentation,
    LinearInequality,
    MarkedPoset,
    NonIntegralVertices,
    Poset,
    UnboundedPolytope,
    UnivariatePolynomial,
    VRepresentation,
    build_chain_hrep,
    build_chain_order_hrep,
    build_order_hrep,
    contains,
    count_lattice_points,
    ehrhart_by_counting,
    enumerate_vertices,
    interpolate_polynomial,
    irredundant,
    is_two_level_direct,
    order_vertices_combinatorial,
    polynomial,
)
from markedposets.corpus import corpus
from markedposets.geometry import (
    _count_points,
    _scaled_values,
    classify_inequalities,
)
from helpers import affine_image, all_chain_order_partitions, random_unimodular_map


def hrep2(rows):
    """Rows (ax, ay, b) meaning ax*x + ay*y <= b."""
    return HRepresentation(
        ["x", "y"], [LinearInequality({"x": ax, "y": ay}, b) for ax, ay, b in rows])


UNIT_SQUARE = [(-1, 0, 0), (0, -1, 0), (1, 0, 1), (0, 1, 1)]
SIMPLEX = [(-1, 0, 0), (0, -1, 0), (1, 1, 1)]
# 0 <= x <= 2, x <= y <= 2, y >= 1
TRAPEZOID = [(-1, 0, 0), (1, 0, 2), (1, -1, 0), (0, 1, 2), (0, -1, -1)]


def oracle_vertices_2d(rows):
    """All feasible intersections of constraint pairs, by Cramer's rule."""
    found = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(rows, 2):
        det = Fraction(a1) * b2 - Fraction(a2) * b1
        if det == 0:
            continue
        x = (Fraction(c1) * b2 - Fraction(c2) * b1) / det
        y = (Fraction(a1) * c2 - Fraction(a2) * c1) / det
        if all(ax * x + ay * y <= b for ax, ay, b in rows):
            found.add((x, y))
    return found


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

    def residual(self, row):
        r = list(row)
        for pivot, brow in self.rows:
            f = r[pivot]
            if f:
                bp = brow[pivot]
                r = [x * bp - f * y for x, y in zip(r, brow)]
        return r

    def push_residual(self, r) -> bool:
        pivot = -1
        for j in range(self.width):
            if r[j]:
                pivot = j
                break
        if pivot < 0:
            return False
        g = math.gcd(*r)
        self.rows.append((pivot, [x // g for x in r]))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def seed_equalities(ech, eq_rows):
    for row in eq_rows:
        r = ech.residual(row)
        if not ech.push_residual(r) and r[ech.width] != 0:
            raise EmptyPolytope("inconsistent equality constraints")


def walk_subsets(ech, rows, target, visit):
    """Call ``visit`` once per subset of ``rows`` that raises ``ech`` to rank ``target``.

    Depth-first over independent subsets in index order.  A truthy ``visit``
    stops the walk, leaving its subset stacked on ``ech``, and the walk
    returns True.
    """
    def dfs(start):
        if ech.rank == target:
            return bool(visit())
        for idx in range(start, len(rows) - (target - ech.rank) + 1):
            if ech.push_residual(ech.residual(rows[idx])):
                if dfs(idx + 1):
                    return True
                ech.rows.pop()
        return False

    return dfs(0)


def interval_bound_certificate(h):
    """Try to certify boundedness by propagating per-coordinate intervals.

    Sound but incomplete: success proves the polyhedron bounded (and, as the
    same propagation runs on the homogeneous rows, its recession cone {0}),
    failure says nothing.
    """
    coords = h.coordinates
    if not coords:
        return True
    rows = [(i.coeffs, i.rhs) for i in h.inequalities]
    for e in h.equalities:
        rows.append((e.coeffs, e.rhs))
        neg = e.negated()
        rows.append((neg.coeffs, neg.rhs))
    lower = {c: None for c in coords}
    upper = {c: None for c in coords}
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


def null_direction(ech):
    """The kernel vector of ``ech``'s homogeneous rows that is 1 at the one free column."""
    pivots = {p for p, _ in ech.rows}
    x = [Fraction(0 if j in pivots else 1) for j in range(ech.width)]
    for pivot, row in sorted(ech.rows, key=lambda t: -t[0]):
        acc = Fraction(row[ech.width])
        for j in range(pivot + 1, ech.width):
            if row[j]:
                acc -= row[j] * x[j]
        x[pivot] = acc / row[pivot]
    return x


def reject_unbounded_by_rays(h):
    """Raise UnboundedPolytope when the rows leave a recession direction.

    Rows that do not span the space are rejected outright; otherwise every
    independent subset of d - 1 homogeneous rows (the equalities first)
    gives a candidate extreme ray of the recession cone, tried both ways.
    """
    d = len(h.coordinates)
    ineq_vecs = [h._dense(i) + [0] for i in h.inequalities]
    eq_vecs = [h._dense(e) + [0] for e in h.equalities]
    probe = _IntEchelon(d)
    for vec in ineq_vecs + eq_vecs:
        probe.push_residual(probe.residual(vec))
    if probe.rank < d:
        raise UnboundedPolytope("constraints do not span the space; unbounded if feasible")

    def is_ray(v):
        if any(sum(a * x for a, x in zip(vec, v)) != 0 for vec in eq_vecs):
            return False
        return all(sum(a * x for a, x in zip(vec, v)) <= 0 for vec in ineq_vecs)

    ech = _IntEchelon(d)
    seed_equalities(ech, eq_vecs)

    def found():
        v = null_direction(ech)
        return is_ray(v) or is_ray([-x for x in v])

    if ech.rank < d and walk_subsets(ech, ineq_vecs, d - 1, found):
        raise UnboundedPolytope("recession direction found")


def oracle_vertices(h):
    """The vertices, or the error, in the order of the checks: bounded, equalities, vertices."""
    if not interval_bound_certificate(h):
        reject_unbounded_by_rays(h)
    return subset_walk_vertices(h)


def int_row(h, ineq):
    """The constraint a.x <= p/q as the all-integer augmented dense row [q a | p]."""
    return [a * ineq.rhs.denominator for a in h._dense(ineq)] + [ineq.rhs.numerator]


def subset_walk_vertices(h):
    """Every feasible solution of an independent subset of d rows, sorted.

    Walks the subsets that raise the equalities to rank d, solves each by
    back-substitution, and keeps the solutions that satisfy every row.
    """
    d = len(h.coordinates)
    ech = _IntEchelon(d)
    seed_equalities(ech, [int_row(h, e) for e in h.equalities])
    found = set()

    def solve():
        x = [Fraction(0)] * d
        for pivot, row in sorted(ech.rows, key=lambda t: -t[0]):
            rest = sum(row[j] * x[j] for j in range(pivot + 1, d))
            x[pivot] = (row[d] - rest) / Fraction(row[pivot])
        found.add(tuple(x))

    walk_subsets(ech, [int_row(h, i) for i in h.inequalities], d, solve)
    feasible = sorted(x for x in found if contains(h, dict(zip(h.coordinates, x))))
    if not feasible:
        raise EmptyPolytope("no vertex satisfies all constraints")
    return tuple(feasible)


def fraction_rank(vectors):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(a) for a in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_affine_dimension(points):
    """The rank of the differences to the first point (-1 for no point)."""
    if not points:
        return -1
    return fraction_rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def oracle_classify(h, vertices):
    """(dimension, facets, implicit rows) by the tight vertices' affine dimension."""
    named = [dict(zip(h.coordinates, p)) for p in vertices]
    dim = oracle_affine_dimension(vertices)
    facets, implicit = [], []
    for ineq in h.inequalities:
        tight = [p for p, x in zip(vertices, named) if ineq.evaluate(x) == ineq.rhs]
        tight_dim = oracle_affine_dimension(tight)
        if tight_dim == dim:
            implicit.append(ineq)
        elif tight_dim == dim - 1 and dim >= 1:
            facets.append(ineq)
    return dim, facets, implicit


def assert_matches_oracles(h):
    """Vertices, classification and the direct 2-level verdict against the oracles."""
    vertices = subset_walk_vertices(h)
    v, dim, facets, implicit = classify_inequalities(h)
    assert v.vertices == vertices
    assert (dim, facets, implicit) == oracle_classify(h, vertices)
    assert v.dimension == dim
    named = [dict(zip(h.coordinates, p)) for p in vertices]
    witness = None
    for facet in facets:
        values = tuple(sorted({facet.evaluate(x) for x in named}))
        if len(values) > 2:
            witness = (facet, values)
            break
    direct = is_two_level_direct(h)
    assert direct.two_level == (witness is None)
    if witness:
        assert (direct.witness.facet, direct.witness.values) == witness


def homogenized(points):
    """Each point x as the integer vector (L x, L), L the least common denominator of all points."""
    points = list(points)
    scale = math.lcm(*(x.denominator for p in points for x in p))
    return [[x.numerator * (scale // x.denominator) for x in p] + [scale] for p in points]


def fraction_box(points):
    """Each coordinate's least and greatest value over the points."""
    return [(min(values), max(values)) for values in zip(*points)]


def first_non_integral(points):
    """The first point with a non-integral coordinate, or None."""
    return next((p for p in points if any(x.denominator != 1 for x in p)), None)


def integer_rank(rows, width):
    ech = _IntEchelon(width)
    for row in rows:
        ech.push_residual(ech.residual(row))
    return ech.rank


def assert_vertex_form(h):
    """The stored (L, L x) of ``h``'s vertex set against the Fraction derivations of its points."""
    v = enumerate_vertices(h)
    points = v.vertices
    vectors = homogenized(points)
    assert v.scale == (vectors[0][-1] if vectors else 1)
    assert [[*p, v.scale] for p in v.vectors] == vectors
    assert [(Fraction(min(c), v.scale), Fraction(max(c), v.scale))
            for c in v._columns.values()] == fraction_box(points)
    first = first_non_integral(points)
    assert (first is None) == (v.scale == 1)
    if first is not None:
        with pytest.raises(NonIntegralVertices, match=re.escape(f"vertex {first} is not integral")):
            ehrhart_by_counting(h)
    dim = integer_rank(vectors, len(h.coordinates) + 1) - 1
    assert v.dimension == dim == VRepresentation.from_points(v.coordinates, points).dimension
    assert VRepresentation.from_points(v.coordinates, points) == v


def oracle_count_box(rows, dilation, box):
    """Scan an integer box and keep points satisfying the dilated system."""
    (x_lo, x_hi), (y_lo, y_hi) = box
    total = 0
    for x in range(x_lo, x_hi + 1):
        for y in range(y_lo, y_hi + 1):
            if all(ax * x + ay * y <= b * dilation for ax, ay, b in rows):
                total += 1
    return total


def fraction_lagrange(points):
    """Lagrange interpolation with every basis polynomial multiplied out in Fractions."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    result = polynomial([])
    for i, (xi, yi) in enumerate(points):
        term = UnivariatePolynomial((Fraction(yi),))
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * UnivariatePolynomial((Fraction(-xj, 1), Fraction(1)))
            term = term * Fraction(1, xi - xj)
        result = result + term
    return result


def random_lattice_polytope(rng):
    """A small lattice polytope, often with equalities and implicit inequality pairs.

    Box bounds and difference rows y_i - y_j <= c form a totally unimodular
    system, so every vertex is integral; an equality row or an inequality
    pair of the same shape keeps it so, and a random unimodular map then
    hides the shape.  Bounds with lower = upper are implicit pairs too.
    """
    d = rng.randint(1, 3)
    ys = [f"y{i}" for i in range(d)]
    ineqs, eqs = [], []
    for y in ys:
        lo = rng.randint(-2, 1)
        ineqs += [LinearInequality({y: -1}, -lo), LinearInequality({y: 1}, lo + rng.choice([0, 1, 2, 3]))]

    def difference():
        i, j = rng.sample(range(d), 2) if d > 1 else (0, None)
        coeffs = {ys[i]: 1} if j is None else {ys[i]: 1, ys[j]: -1}
        return coeffs, rng.randint(-2, 3)

    for _ in range(rng.randint(0, 3)):
        ineqs.append(LinearInequality(*difference()))
    if rng.random() < 0.4:
        eqs.append(LinearInequality(*difference()))
    if rng.random() < 0.4:
        coeffs, c = difference()
        ineqs += [LinearInequality(coeffs, c), LinearInequality({y: -a for y, a in coeffs.items()}, -c)]
    matrix, shift = random_unimodular_map(rng, d)
    return affine_image(HRepresentation(ys, ineqs, eqs), matrix, shift)


def oracle_interior_count(h, dilation):
    """Scan the vertex box of the dilate for relative-interior lattice points.

    A row is implicit when it is tight at every lattice point of the polytope
    (they include the vertices of a lattice polytope); every other row must
    hold strictly.
    """
    columns = list(zip(*enumerate_vertices(h).vertices))

    def box_points(n):
        box = [range(int(min(c)) * n, int(max(c)) * n + 1) for c in columns]
        return [dict(zip(h.coordinates, x)) for x in itertools.product(*box)]

    def inside(x, n):
        return (all(i.evaluate(x) <= i.rhs * n for i in h.inequalities)
                and all(e.evaluate(x) == e.rhs * n for e in h.equalities))

    lattice = [x for x in box_points(1) if inside(x, 1)]
    loose = [i for i in h.inequalities if any(i.evaluate(x) != i.rhs for x in lattice)]
    return sum(1 for x in box_points(dilation)
               if inside(x, dilation) and all(i.evaluate(x) < i.rhs * dilation for i in loose))


class TestEnumerateVertices:
    def test_unit_square(self):
        v = enumerate_vertices(hrep2(UNIT_SQUARE))
        assert v.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_simplex(self):
        v = enumerate_vertices(hrep2(SIMPLEX))
        assert v.vertices == ((0, 0), (0, 1), (1, 0))

    def test_trapezoid_matches_pair_oracle(self):
        expected = oracle_vertices_2d(TRAPEZOID)
        assert expected == {(0, 1), (0, 2), (2, 2), (1, 1)}
        v = enumerate_vertices(hrep2(TRAPEZOID))
        assert set(v.vertices) == expected

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(hrep2([(-1, 0, 0), (0, -1, 0)]))

    def test_unbounded_strip_raises(self):
        # 0 <= x <= 1 leaves y free: interval pass fails, ray check fires
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(hrep2([(-1, 0, 0), (1, 0, 1)]))

    def test_empty_raises(self):
        with pytest.raises(EmptyPolytope):
            enumerate_vertices(hrep2([(1, 0, 0), (-1, 0, -1), (0, 1, 1), (0, -1, 0)]))

    def test_work_cap(self, monkeypatch):
        monkeypatch.setenv("MPP_WORK_CAP", "2")
        with pytest.raises(DimensionTooLarge, match="set MPP_WORK_CAP to raise it"):
            enumerate_vertices(hrep2(TRAPEZOID))

    def test_double_description_bounds_tetrahedron(self, monkeypatch):
        # no single row bounds a coordinate, so no interval bound exists
        h = HRepresentation(["x", "y", "z"], [
            LinearInequality({"x": 1, "y": 1, "z": 1}, 2),
            LinearInequality({"x": 1, "y": -1, "z": -1}, 0),
            LinearInequality({"x": -1, "y": 1, "z": -1}, 0),
            LinearInequality({"x": -1, "y": -1, "z": 1}, 0),
        ])
        assert not interval_bound_certificate(h)
        # the double description holds at most 4 rays, the tetrahedron's vertices
        monkeypatch.setenv("MPP_WORK_CAP", "3")
        with pytest.raises(DimensionTooLarge) as exc:
            enumerate_vertices(h)
        assert str(exc.value) == ("4 double-description rays exceed the work cap 3"
                                  "; set MPP_WORK_CAP to raise it")
        monkeypatch.setenv("MPP_WORK_CAP", "4")
        assert enumerate_vertices(h).vertices == (
            (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_equalities(self):
        h = HRepresentation(
            ["x", "y"],
            [LinearInequality({"x": 1}, 1), LinearInequality({"x": -1}, 0)],
            [LinearInequality({"x": 1, "y": -1}, 0)],
        )
        v = enumerate_vertices(h)
        assert v.vertices == ((0, 0), (1, 1))

    def test_zero_dimensional_space(self):
        h = HRepresentation([], [])
        assert enumerate_vertices(h).vertices == ((),)

    def test_inconsistent_equalities_raise(self):
        square = hrep2(UNIT_SQUARE)
        h = HRepresentation(["x", "y"], square.inequalities, [
            LinearInequality({"x": 1, "y": 1}, 1), LinearInequality({"x": 1, "y": 1}, 0)])
        with pytest.raises(EmptyPolytope, match="inconsistent equality"):
            enumerate_vertices(h)

    def test_exact_rational_vertex(self):
        # x >= 0, y >= 0, 2x + 3y <= 1
        v = enumerate_vertices(hrep2([(-1, 0, 0), (0, -1, 0), (2, 3, 1)]))
        assert v.vertices == ((0, 0), (0, Fraction(1, 3)), (Fraction(1, 2), 0))

    def test_work_cap_boundary(self, monkeypatch, ladder):
        # the double description holds at most 10 rays on this input: its 10 vertices
        monkeypatch.setenv("MPP_WORK_CAP", "10")
        assert len(enumerate_vertices(build_chain_hrep(ladder(3)))) == 10
        monkeypatch.setenv("MPP_WORK_CAP", "9")
        with pytest.raises(DimensionTooLarge) as exc:
            enumerate_vertices(build_chain_hrep(ladder(3)))
        assert str(exc.value).endswith(
            "double-description rays exceed the work cap 9; set MPP_WORK_CAP to raise it")


def system(coords, ineqs, eqs=()):
    """Rows given as (coefficients, rhs) pairs."""
    return HRepresentation(coords, [LinearInequality(*r) for r in ineqs],
                           [LinearInequality(*r) for r in eqs])


def random_system(draw):
    """1-3 coordinates, 0-6 inequalities and 0-2 equalities with no bounding box.

    ``draw(lo, hi)`` gives an integer in [lo, hi].  The systems come out
    bounded, unbounded (both ways) or empty (both ways).
    """
    coords = ["x", "y", "z"][:draw(1, 3)]

    def rows(count):
        drawn = [({c: draw(-2, 2) for c in coords}, Fraction(draw(-4, 4), draw(1, 3)))
                 for _ in range(count)]
        return [(a, b) for a, b in drawn if any(a.values())]

    return system(coords, rows(draw(0, 6)), rows(draw(0, 2)))


def outcome(decide, h):
    """("vertices", vertices) or (error type name, message)."""
    try:
        result = decide(h)
    except (EmptyPolytope, UnboundedPolytope) as exc:
        return type(exc).__name__, str(exc)
    return "vertices", getattr(result, "vertices", result)


class TestBoundednessAndEmptiness:
    """The double description decides both, unbounded before empty, as the oracle does."""

    SPAN = "constraints do not span the space; unbounded if feasible"
    RECESSION = "recession direction found"
    INCONSISTENT = "inconsistent equality constraints"
    NO_VERTEX = "no vertex satisfies all constraints"

    @pytest.mark.parametrize("ineqs, eqs, error, message", [
        # x = 0 and x = 1 with y free: unbounded before inconsistent
        ([], [({"x": 1}, 0), ({"x": 1}, 1)], "UnboundedPolytope", SPAN),
        ([({"y": 1}, 0)], [({"x": 1}, 0), ({"x": 1}, 1)], "UnboundedPolytope", RECESSION),
        # 1 <= x <= 0 with y >= 0: unbounded before empty
        ([({"x": 1}, 0), ({"x": -1}, -1), ({"y": -1}, 0)], [], "UnboundedPolytope", RECESSION),
        ([({"x": -1}, 0), ({"y": -1}, 0)], [({"x": 1, "y": 1}, 1), ({"x": 1, "y": 1}, 0)],
         "EmptyPolytope", INCONSISTENT),
        # the last equality comes after x = 0 and y = 0 have fixed the point
        ([({"x": -1}, 0)], [({"x": 1}, 0), ({"y": 1}, 0), ({"x": 1, "y": 1}, 1)],
         "EmptyPolytope", INCONSISTENT),
        ([({"x": 1}, 0), ({"x": -1}, -1), ({"y": 1}, 1), ({"y": -1}, 0)], [],
         "EmptyPolytope", NO_VERTEX),
    ])
    def test_pinned_order(self, ineqs, eqs, error, message):
        h = system(["x", "y"], ineqs, eqs)
        assert outcome(oracle_vertices, h) == (error, message)
        assert outcome(enumerate_vertices, h) == (error, message)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unboxed_systems_match_oracles(self, data):
        h = random_system(lambda lo, hi: data.draw(st.integers(lo, hi)))
        expected = outcome(oracle_vertices, h)
        assert outcome(enumerate_vertices, h) == expected
        if expected[0] == "vertices":
            assert_matches_oracles(h)

    def test_seeded_systems_reach_every_outcome(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            h = random_system(rng.randint)
            expected = outcome(oracle_vertices, h)
            assert outcome(enumerate_vertices, h) == expected
            seen.add(("equalities" if h.equalities else "none") if expected[0] == "vertices"
                     else expected[1])
        assert seen == {"equalities", "none", self.SPAN, self.RECESSION, self.INCONSISTENT,
                        self.NO_VERTEX}


class TestClassifyDegenerate:
    """Facets from tight-vertex masks on the cases where a mask is not a facet's."""

    @staticmethod
    def classify(rows, eqs=(), coords=("x", "y")):
        h = system(coords, rows, eqs)
        v, dim, facets, implicit = classify_inequalities(h)
        assert (dim, facets, implicit) == oracle_classify(h, v.vertices)
        return dim, facets, implicit

    @staticmethod
    def rows(*pairs):
        return [LinearInequality(*r) for r in pairs]

    def test_point(self):
        # x = y = 0 as four rows, and x + y <= 1, which no vertex meets
        dim, facets, implicit = self.classify([
            ({"x": 1}, 0), ({"x": -1}, 0), ({"y": 1}, 0), ({"y": -1}, 0), ({"x": 1, "y": 1}, 1)])
        assert (dim, facets) == (0, [])
        assert implicit == self.rows(({"x": -1}, 0), ({"y": -1}, 0), ({"y": 1}, 0), ({"x": 1}, 0))

    def test_implicit_rows(self):
        # the segment x = y, 0 <= x <= 1, its line given by two inequalities; y <= 2 is slack
        dim, facets, implicit = self.classify([
            ({"x": 1, "y": -1}, 0), ({"x": -1, "y": 1}, 0), ({"x": -1}, 0), ({"x": 1}, 1),
            ({"y": 1}, 2)])
        assert dim == 1
        assert facets == self.rows(({"x": -1}, 0), ({"x": 1}, 1))
        assert implicit == self.rows(({"x": -1, "y": 1}, 0), ({"x": 1, "y": -1}, 0))

    def test_pyramid_apex_row_is_redundant(self):
        # a square pyramid with apex (1/2, 1/2, 1); z <= 1 is tight at the apex alone
        sides = [({"x": -2, "z": 1}, 0), ({"x": 2, "z": 1}, 2),
                 ({"y": -2, "z": 1}, 0), ({"y": 2, "z": 1}, 2)]
        dim, facets, implicit = self.classify(sides + [({"z": -1}, 0), ({"z": 1}, 1)],
                                              coords=("x", "y", "z"))
        assert dim == 3 and implicit == []
        assert sorted(facets, key=repr) == sorted(self.rows(*sides, ({"z": -1}, 0)), key=repr)

    def test_equal_masks_are_both_facets(self):
        # on the segment x = y, x >= 0 and y >= 0 are tight at the same vertex
        dim, facets, implicit = self.classify(
            [({"x": -1}, 0), ({"y": -1}, 0), ({"x": 1}, 1)], [({"x": 1, "y": -1}, 0)])
        assert dim == 1 and implicit == []
        assert facets == self.rows(({"x": -1}, 0), ({"y": -1}, 0), ({"x": 1}, 1))


def corpus_hreps(seed):
    """Order and chain H-reps of a seeded corpus, plus two random chain-order splits each."""
    rng = random.Random(seed)
    for mp in corpus(seed, 200, max_unmarked=6):
        yield build_order_hrep(mp)
        yield build_chain_hrep(mp)
        for part in rng.sample(list(all_chain_order_partitions(mp)), 2):
            yield build_chain_order_hrep(mp, part)


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", [20250808, 3, 7])
    def test_corpus_matches_subset_walk(self, seed):
        for h in corpus_hreps(seed):
            assert_matches_oracles(h)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_systems_match_subset_walk(self, data):
        coords = ["x", "y", "z"][:data.draw(st.integers(2, 3))]
        coeff = st.integers(-3, 3)
        rhs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))

        def rows(count):
            drawn = [({c: data.draw(coeff) for c in coords}, data.draw(rhs)) for _ in range(count)]
            return [LinearInequality(a, b) for a, b in drawn if any(a.values())]

        # a box with fractional bounds keeps every system bounded
        box = [LinearInequality({c: s}, data.draw(st.builds(Fraction, st.integers(1, 6),
                                                                 st.integers(1, 3))))
               for c in coords for s in (1, -1)]
        h = HRepresentation(coords, box + rows(data.draw(st.integers(0, 4))),
                            rows(data.draw(st.integers(0, len(coords) - 1))))
        try:
            expected = subset_walk_vertices(h)
        except EmptyPolytope as exc:
            with pytest.raises(EmptyPolytope, match=re.escape(str(exc))):
                enumerate_vertices(h)
            return
        assert_matches_oracles(h)
        assert enumerate_vertices(h).vertices == expected
        assert_vertex_form(h)


def degenerate_system(draw, pick):
    """A boxed system, so bounded, with repeated, implied and implicit rows; 1-3 coordinates.

    ``draw(lo, hi)`` gives an integer in [lo, hi] and ``pick(rows)`` one of
    the rows.  Returns the system and whether an equality was repeated with
    another right-hand side, which makes the equalities inconsistent.
    """
    coords = ["x", "y", "z"][:draw(1, 3)]

    def row(rhs_lo, rhs_hi):
        a = {c: draw(-2, 2) for c in coords}
        if not any(a.values()):
            a[coords[0]] = 1
        return a, Fraction(draw(rhs_lo, rhs_hi), draw(1, 3))

    # the box holds 0 in its interior
    ineqs = [({c: s}, Fraction(draw(1, 6), draw(1, 3))) for c in coords for s in (1, -1)]
    ineqs += [row(-4, 4) for _ in range(draw(0, 3))]
    eqs = [row(-1, 1) for _ in range(draw(0, len(coords) - 1))]
    for a, b in [pick(ineqs + eqs) for _ in range(draw(0, 2))]:  # again, scaled: y <= 0 beside y = 0
        k = draw(1, 3)
        ineqs.append(({c: k * v for c, v in a.items()}, k * b))
    for _ in range(draw(0, 2)):  # implied: the sum of two rows, tight or relaxed by 1
        (a1, b1), (a2, b2) = pick(ineqs), pick(ineqs)
        a = {c: a1.get(c, 0) + a2.get(c, 0) for c in coords}
        if any(a.values()):
            ineqs.append((a, b1 + b2 + draw(0, 1)))
    if draw(0, 1):  # implicit: a hyperplane near 0 as two opposite rows
        a, b = row(-1, 1)
        ineqs += [(a, b), ({c: -v for c, v in a.items()}, -b)]
    inconsistent = bool(eqs) and draw(0, 3) == 0
    if inconsistent:
        a, b = eqs[0]
        eqs.append((a, b + 1))
    return system(coords, ineqs, eqs), inconsistent


class TestDegenerateSystems:
    """The double description on bounded systems whose rows are far from in general position."""

    @staticmethod
    def check(h, inconsistent):
        expected = outcome(oracle_vertices, h)
        assert outcome(enumerate_vertices, h) == expected
        if inconsistent:
            assert expected == ("EmptyPolytope", TestBoundednessAndEmptiness.INCONSISTENT)
        elif expected[0] == "vertices":
            assert_matches_oracles(h)
        return expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_match_subset_walk(self, data):
        h, inconsistent = degenerate_system(lambda lo, hi: data.draw(st.integers(lo, hi)),
                                            lambda rows: data.draw(st.sampled_from(rows)))
        self.check(h, inconsistent)

    def test_seeded_systems_reach_every_case(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            h, inconsistent = degenerate_system(rng.randint, rng.choice)
            expected = self.check(h, inconsistent)
            if expected[0] == "vertices":
                _, dim, _, implicit = classify_inequalities(h)
                seen.add(("full" if dim == len(h.coordinates) else "lower")
                         + (" implicit" if implicit else ""))
            else:
                seen.add(expected[1])
        assert seen == {"full", "lower", "lower implicit", TestBoundednessAndEmptiness.INCONSISTENT,
                        TestBoundednessAndEmptiness.NO_VERTEX}


class TestHullDimension:
    """Classification's dimension, d minus the rank of the hull rows, against the vertex rank."""

    @staticmethod
    def check(h):
        v, dim, _, _ = classify_inequalities(h)
        assert dim == v.dimension == oracle_affine_dimension(v.vertices)
        return dim

    def test_seeded_corpus(self):
        rng = random.Random(1)
        for mp in corpus(20250808, 200, max_unmarked=6):
            part = ChainOrderPartition.of(mp, [p for p in mp.unmarked if rng.random() < 0.5])
            for h in (build_order_hrep(mp), build_chain_hrep(mp), build_chain_order_hrep(mp, part)):
                self.check(h)

    def test_tied_marks(self):
        # a < x < b with a and b both marked 1 pins x; y between a(1) and c(3) stays free
        poset = Poset.from_relations("abcxy", [("a", "x"), ("x", "b"), ("a", "y"), ("y", "c")])
        mp = MarkedPoset(poset, {"a": 1, "b": 1, "c": 3})
        for part in all_chain_order_partitions(mp):
            for h in (build_order_hrep(mp), build_chain_hrep(mp), build_chain_order_hrep(mp, part)):
                assert self.check(h) == 1
                assert len(classify_inequalities(h)[3]) == 2

    @pytest.mark.parametrize("coords, ineqs, eqs, dim", [
        # explicit equalities: a segment in the plane, a triangle in space
        ("xy", [({"x": -1}, 0), ({"x": 1}, 1)], [({"x": 1, "y": -1}, 0)], 1),
        ("xyz", [({"x": -1}, 0), ({"y": -1}, 0), ({"z": -1}, 0)], [({"x": 1, "y": 1, "z": 1}, 1)], 2),
        # y <= 0 beside y = 0: an implicit row that repeats an equality
        ("xy", [({"x": -1}, 0), ({"x": 1}, 1), ({"y": 1}, 0)], [({"y": 1}, 0)], 1),
        # a single point, by implicit rows alone and by equalities alone
        ("xy", [({"x": 1}, 0), ({"x": -1}, 0), ({"y": 1}, 0), ({"y": -1}, 0)], [], 0),
        ("xy", [], [({"x": 1}, 1), ({"x": 1, "y": 1}, 3)], 0),
        ("", [], [], 0),
    ])
    def test_not_full_dimensional(self, coords, ineqs, eqs, dim):
        assert self.check(system(list(coords), ineqs, eqs)) == dim


def divided_marks(mp, k):
    return MarkedPoset(mp.poset, {a: x / k for a, x in mp.marking.items()})


class TestVertexForm:
    """One common denominator and integer vectors, held to the Fraction derivations."""

    @pytest.mark.parametrize("seed", [20250808, 3, 7])
    def test_corpus_with_marks_divided_by_three(self, seed):
        rng = random.Random(seed)
        scales = set()
        for mp in corpus(seed, 200, max_unmarked=5):
            mp = divided_marks(mp, 3)
            order = build_order_hrep(mp)
            part = rng.choice(list(all_chain_order_partitions(mp)))
            for h in (order, build_chain_hrep(mp), build_chain_order_hrep(mp, part)):
                assert_vertex_form(h)
                scales.add(enumerate_vertices(h).scale)
            assert order_vertices_combinatorial(mp) == enumerate_vertices(order)
        assert scales == {1, 3}

    def test_rebuilt_from_points(self):
        v = VRepresentation.from_points(["x", "y"], [(Fraction(1, 2), 0), (0, Fraction(1, 3)),
                                                     (Fraction(1, 2), Fraction(0))])
        assert (v.scale, v.vectors) == (6, ((0, 2), (3, 0)))
        assert v.vertices == ((0, Fraction(1, 3)), (Fraction(1, 2), 0))
        assert VRepresentation.from_points(["x", "y"], []) == VRepresentation(("x", "y"), 1, ())


def fractions_built(monkeypatch, call):
    """The arguments of every ``Fraction`` that ``call()`` builds, and its result."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return built, result


class TestNoFractionInHotPath:
    """The vertex, facet and counting layers build no Fraction on these inputs."""

    @pytest.mark.parametrize("call", [
        enumerate_vertices,
        classify_inequalities,
        is_two_level_direct,
        lambda h: count_lattice_points(h, 3),
        lambda h: _count_points(h, 2, 1),
    ], ids=["enumerate_vertices", "classify_inequalities", "is_two_level_direct",
            "count_lattice_points", "interior_count"])
    def test_no_fraction_built(self, monkeypatch, ladder, figure_one, call):
        # fresh H-reps, built before the patch, so that no vertex cache hides work
        hreps = [build(mp) for mp in (ladder(3), figure_one)
                 for build in (build_order_hrep, build_chain_hrep)]
        built, _ = fractions_built(monkeypatch, lambda: [call(h) for h in hreps])
        assert built == []


class TestNoFractionPerRow:
    """The H-rep layer builds a Fraction per distinct right-hand side, not per row."""

    @staticmethod
    def chain(n):
        """e000 < ... < e(n-1), marked 1/2 and 7/3 at the ends: n - 1 rows."""
        e = [f"e{i:03d}" for i in range(n)]
        return MarkedPoset(Poset(e, list(zip(e, e[1:]))),
                           {e[0]: Fraction(1, 2), e[-1]: Fraction(7, 3)})

    @staticmethod
    def antichain(n):
        """n - 2 unmarked elements between bot (1/2) and top (7/3): 2(n - 2) rows."""
        x = [f"x{i:03d}" for i in range(n - 2)]
        covers = [("bot", e) for e in x] + [(e, "top") for e in x]
        return MarkedPoset(Poset(["bot", "top", *x], covers),
                           {"bot": Fraction(1, 2), "top": Fraction(7, 3)})

    @pytest.mark.parametrize("shape", ["chain", "antichain"])
    def test_fraction_count_bounded_by_the_marks(self, monkeypatch, shape):
        mp = getattr(self, shape)(300)
        built, h = fractions_built(monkeypatch, lambda: build_order_hrep(mp))
        assert len(h.inequalities) >= 299
        # the rhs of a row is one of 0, lambda(b), -lambda(a), lambda(b) - lambda(a)
        assert len(built) <= (len(mp.marked) + 1) ** 2


class TestIrredundant:
    def test_classification_cached_on_the_representation(self):
        h = hrep2(UNIT_SQUARE + [(1, 1, 2)])
        assert classify_inequalities(h) is classify_inequalities(h)

    def test_figure_one_system_drops_chain_sum(self):
        h = hrep2(UNIT_SQUARE + [(1, 1, 2)])
        reduced = irredundant(h)
        assert reduced == hrep2(UNIT_SQUARE)

    def test_simplex_unchanged(self):
        h = hrep2(SIMPLEX)
        assert irredundant(h) == h

    def test_dominated_bound_dropped(self):
        h = HRepresentation(
            ["x"],
            [LinearInequality({"x": -1}, 0), LinearInequality({"x": 1}, 1),
             LinearInequality({"x": 1}, 5)],
        )
        assert [i.rhs for i in irredundant(h).inequalities] == [0, 1]

    def test_round_trip_vertices(self):
        for rows in (UNIT_SQUARE, SIMPLEX, TRAPEZOID, UNIT_SQUARE + [(1, 1, 2)]):
            h = hrep2(rows)
            assert enumerate_vertices(irredundant(h)) == enumerate_vertices(h)

    def test_degenerate_point_promotes_equalities(self):
        h = hrep2([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])
        reduced = irredundant(h)
        assert not reduced.inequalities
        assert enumerate_vertices(reduced).vertices == ((0, 0),)


class TestAffineDimension:
    def test_segment(self):
        points = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
        assert VRepresentation.from_points(("x", "y"), points).dimension == 1

    def test_empty(self):
        assert VRepresentation.from_points(("x", "y"), []).dimension == -1

    def test_point(self):
        assert VRepresentation.from_points(("x", "y"), [(Fraction(2), Fraction(3))]).dimension == 0

    def test_square(self):
        assert enumerate_vertices(hrep2(UNIT_SQUARE)).dimension == 2


class TestEvaluateAffineValues:
    """A row's values on the vertices, as ``_scaled_values`` gives them: a . (L x) at every
    vertex x, in vertex order (L = ``v.scale``)."""

    def test_square_x(self):
        v = enumerate_vertices(hrep2(UNIT_SQUARE))
        assert v.scale == 1
        assert _scaled_values(v, LinearInequality({"x": 1}, 1)) == [0, 0, 1, 1]

    def test_simplex_sum(self):
        v = enumerate_vertices(hrep2(SIMPLEX))
        assert _scaled_values(v, LinearInequality({"x": 1, "y": 1}, 1)) == [0, 1, 1]

    def test_trapezoid_difference(self):
        # vertices (0, 1), (0, 2), (1, 1), (2, 2)
        v = enumerate_vertices(hrep2(TRAPEZOID))
        assert _scaled_values(v, LinearInequality({"x": 1, "y": -1}, 0)) == [-1, -2, 0, 0]

    def test_fractional_vertices(self):
        # vertices (0, 0), (0, 1/3), (1/2, 0): L = 6, values 3x + y = 0, 1/3, 3/2
        v = enumerate_vertices(hrep2([(-1, 0, 0), (0, -1, 0), (2, 3, 1)]))
        assert v.scale == 6
        values = _scaled_values(v, LinearInequality({"x": 3, "y": 1}, 2))
        assert values == [0, 2, 9]
        assert [Fraction(s, v.scale) for s in values] == [0, Fraction(1, 3), Fraction(3, 2)]


class TestCountLatticePoints:
    def test_unit_square_dilation2(self):
        assert count_lattice_points(hrep2(UNIT_SQUARE), 2) == 9

    def test_simplex_dilation3(self):
        assert count_lattice_points(hrep2(SIMPLEX), 3) == 10

    def test_trapezoid_matches_box_oracle(self):
        expected = oracle_count_box(TRAPEZOID, 1, ((0, 2), (0, 2)))
        assert expected == 5
        assert count_lattice_points(hrep2(TRAPEZOID), 1) == expected

    def test_dilation0_of_nonempty_is_one(self):
        for rows in (UNIT_SQUARE, SIMPLEX, TRAPEZOID):
            assert count_lattice_points(hrep2(rows), 0) == 1

    def test_random_systems_match_box_oracle(self):
        rng = random.Random(11)
        checked = 0
        # bounded draws: a tree on which every system raises fails here instead of hanging;
        # at seed 11 the 25th system checked is draw 29
        for _ in range(200):
            rows = [(-1, 0, rng.randint(0, 2)), (0, -1, rng.randint(0, 2)),
                    (1, 0, rng.randint(0, 4)), (0, 1, rng.randint(0, 4))]
            rows += [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 6))
                     for _ in range(rng.randint(0, 3))]
            try:
                h = hrep2(rows)
                for n in (1, 2, 3):
                    assert count_lattice_points(h, n) == oracle_count_box(
                        rows, n, ((-15, 15), (-15, 15)))
                checked += 1
            except (EmptyPolytope, UnboundedPolytope, ValueError):
                continue
            if checked == 25:
                break
        assert checked == 25

    def test_equality_segment(self):
        # x + y = 1 with x, y >= 0: the n-th dilate holds n + 1 points
        h = HRepresentation(
            ["x", "y"], [LinearInequality({"x": -1}, 0), LinearInequality({"y": -1}, 0)],
            [LinearInequality({"x": 1, "y": 1}, 1)])
        assert [count_lattice_points(h, n) for n in range(4)] == [1, 2, 3, 4]

    def test_zero_dimensional_space(self):
        assert count_lattice_points(HRepresentation([], []), 3) == 1

    def test_half_integral_point(self):
        h = HRepresentation(["x"], [LinearInequality({"x": 2}, 1), LinearInequality({"x": -2}, -1)])
        assert count_lattice_points(h, 1) == 0
        assert count_lattice_points(h, 2) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rhs_denominators_shared_with_the_dilation(self, data):
        # every rhs has denominator 2 or 3, so most dilations 1..6 share a factor with one;
        # the columns are declared in a drawn order, so id order need not be column order
        coords = ["x", "y", "z"][:data.draw(st.integers(2, 3))]
        rhs = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3]))
        bound = st.builds(Fraction, st.integers(1, 4), st.sampled_from([2, 3]))
        upper = [data.draw(bound) for _ in coords]
        lower = [data.draw(bound) for _ in coords]
        rows = [LinearInequality({c: 1}, b) for c, b in zip(coords, upper)]
        rows += [LinearInequality({c: -1}, b) for c, b in zip(coords, lower)]
        for _ in range(data.draw(st.integers(0, 3))):
            coeffs = {c: data.draw(st.integers(-2, 2)) for c in coords}
            if any(coeffs.values()):
                rows.append(LinearInequality(coeffs, data.draw(rhs)))
        h = HRepresentation(data.draw(st.permutations(coords)), rows)
        for n in range(1, 7):
            bounds = [(r.coeffs, r.rhs * n) for r in rows]
            box = [range(-math.floor(lo * n), math.floor(hi * n) + 1) for lo, hi in zip(lower, upper)]
            scan = sum(1 for x in itertools.product(*box)
                       if all(sum(a * x[coords.index(c)] for c, a in coeffs.items()) <= b
                              for coeffs, b in bounds))
            try:
                count = count_lattice_points(h, n)
            except EmptyPolytope:
                count = 0
            assert count == scan

    def test_negative_dilation_rejected(self):
        with pytest.raises(ValueError):
            count_lattice_points(hrep2(UNIT_SQUARE), -1)


class TestInteriorCount:
    """``_count_points`` with shrink 1: lattice points of the dilate's relative interior."""

    def test_unit_square(self):
        assert [_count_points(hrep2(UNIT_SQUARE), n, 1) for n in (1, 2, 3)] == [0, 1, 4]

    def test_row_tight_beside_an_equality(self):
        # x + y <= 1 is tight on the segment although the equality alone cuts out its line
        upper = LinearInequality({"x": 1, "y": 1}, 1)
        h = HRepresentation(
            ["x", "y"], [LinearInequality({"x": -1}, 0), LinearInequality({"y": -1}, 0), upper], [upper])
        assert [_count_points(h, n, 1) for n in (1, 2, 3)] == [0, 1, 2]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_random_lattice_polytopes_match_strict_box_scan(self, seed):
        h = random_lattice_polytope(random.Random(seed))
        try:
            v = enumerate_vertices(h)
        except EmptyPolytope:
            assume(False)
        assert all(x.denominator == 1 for p in v.vertices for x in p)
        # a unimodular map can stretch the box; keep the scan at dilation 3 small
        assume(math.prod(3 * (max(c) - min(c)) + 1 for c in zip(*v.vertices)) <= 20_000)
        for n in (1, 2, 3):
            assert _count_points(h, n, 1) == oracle_interior_count(h, n)


class TestInterpolation:
    def test_linear(self):
        assert interpolate_polynomial([(0, 1), (1, 2), (2, 3)]) == polynomial([1, 1])

    def test_square_fit(self):
        assert interpolate_polynomial([(0, 1), (1, 4), (2, 9)]) == polynomial([1, 2, 1])

    def test_constant(self):
        assert interpolate_polynomial([(0, 1), (1, 1)]) == polynomial([1])

    def test_duplicate_abscissae(self):
        with pytest.raises(ValueError):
            interpolate_polynomial([(0, 1), (0, 2)])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_lagrange(self, data):
        numbers = st.integers(-30, 30) | st.fractions(-8, 8, max_denominator=7)
        xs = data.draw(st.lists(numbers, max_size=7, unique=True))
        points = [(x, data.draw(numbers)) for x in xs]
        assert interpolate_polynomial(points) == fraction_lagrange(points)
        if points:
            duplicated = [*points, (data.draw(st.sampled_from(xs)), data.draw(numbers))]
            for interpolate in (interpolate_polynomial, fraction_lagrange):
                with pytest.raises(ValueError, match="duplicate abscissae"):
                    interpolate(duplicated)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5))
    def test_round_trip(self, coeffs):
        poly = polynomial(coeffs)
        points = [(n, poly.evaluate(n)) for n in range(len(coeffs))]
        assert interpolate_polynomial(points) == poly


class TestPolynomialAlgebra:
    def test_normalization_strips_trailing_zeros(self):
        assert polynomial([1, 2, 0, 0]) == polynomial([1, 2])
        assert polynomial([0, 0]).degree == -1

    def test_arithmetic(self):
        p = polynomial([1, 1])
        assert p * p == polynomial([1, 2, 1])
        assert p + polynomial([0, 0, 1]) == polynomial([1, 1, 1])
        assert (p ** 3).coefficients == (1, 3, 3, 1)
        assert 2 * p == polynomial([2, 2])
        assert p ** 0 == polynomial([1])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="at least 0, got -1"):
            polynomial([1, 1]) ** -1

    def test_str_constant_first(self):
        assert str(polynomial([1, Fraction(1, 2)])) == "1, 1/2"
        assert str(UnivariatePolynomial(())) == "0"


class TestNormalization:
    def test_inequality_scaled_to_primitive_integers(self):
        ineq = LinearInequality({"x": Fraction(2, 3), "y": Fraction(4, 3)}, 2)
        assert ineq.coeffs == {"x": 1, "y": 2}
        assert ineq.rhs == 3

    def test_direction_preserved(self):
        ineq = LinearInequality({"x": -2}, -4)
        assert ineq.coeffs == {"x": -1}
        assert ineq.rhs == -2

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            LinearInequality({"x": 0}, 1)

    def test_duplicates_merged(self):
        h = HRepresentation(
            ["x"], [LinearInequality({"x": 2}, 2), LinearInequality({"x": 1}, 1)])
        assert len(h.inequalities) == 1

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate coordinate ids"):
            HRepresentation(["x", "y", "x"], [])

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(ValueError):
            HRepresentation(["x"], [LinearInequality({"z": 1}, 1)])
        with pytest.raises(ValueError):
            HRepresentation(["x"], [], [LinearInequality({"x": 1, "z": -1}, 0)])
        # the unknown ids, sorted
        with pytest.raises(ValueError, match=re.escape(
                "constraint references undeclared coordinates ['w', 'z']")):
            HRepresentation(["x", "y"], [LinearInequality({"y": 1}, 0),
                                         LinearInequality({"z": 2, "x": 1, "w": -1}, 3)])

    def test_rows_sorted_in_declared_coordinate_order(self):
        h = HRepresentation(
            ["y", "x"],
            [LinearInequality({"x": 1}, 2), LinearInequality({"x": 1}, 1),
             LinearInequality({"y": 1}, Fraction(1, 2)), LinearInequality({"x": -1}, 0),
             LinearInequality({"y": -1}, 0)],
            [LinearInequality({"x": 1, "y": -1}, 0)])
        # dense rows over (y, x) with the rhs last: (-1,0|0) (0,-1|0) (0,1|1) (0,1|2) (2,0|1)
        assert h.inequalities == (
            LinearInequality({"y": -1}, 0), LinearInequality({"x": -1}, 0),
            LinearInequality({"x": 1}, 1), LinearInequality({"x": 1}, 2),
            LinearInequality({"y": 2}, 1))
        # an equality's sign follows its first declared coordinate, y
        assert h.equalities == (LinearInequality({"x": -1, "y": 1}, 0),)


COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
RHS = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))


class TestSparseRowOrder:
    """The sparse canonical order against the dense rows it stands for."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_sorts_and_dedups_like_dense_rows(self, data):
        coords = data.draw(st.permutations("abcde"))[:data.draw(st.integers(1, 5))]
        if data.draw(st.booleans()):  # id order: the key reads column order off the rows
            coords = sorted(coords)
        rows = []
        for _ in range(data.draw(st.integers(0, 10))):
            coeffs = {c: data.draw(COEFFS) for c in coords}
            if any(coeffs.values()):
                rows.append(LinearInequality(coeffs, data.draw(RHS)))
        if rows:  # repeated rows, some scaled so that only normalization merges them
            for row in data.draw(st.lists(st.sampled_from(rows), max_size=4)):
                k = data.draw(st.sampled_from([1, 2, Fraction(1, 3)]))
                rows.append(LinearInequality({c: k * a for c, a in row.coeffs.items()}, k * row.rhs))
        h = HRepresentation(coords, rows)
        assert h._id_ordered == (coords == sorted(coords))

        def dense(row):
            return (*h._dense(row), row.rhs)

        for r in rows:
            for s in rows:
                assert (h._sparse_key(r) < h._sparse_key(s)) == (dense(r) < dense(s))
                assert (h._sparse_key(r) == h._sparse_key(s)) == (dense(r) == dense(s))
        unique = {dense(row): row for row in rows}
        assert h.inequalities == tuple(unique[k] for k in sorted(unique))
        signed = [row if next(a for a in h._dense(row) if a) > 0 else row.negated() for row in rows]
        unique = {dense(row): row for row in signed}
        assert HRepresentation(coords, [], rows).equalities == tuple(unique[k] for k in sorted(unique))

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from("abcd"), st.integers(-12, 12), min_size=1), RHS)
    def test_integer_rows_match_the_fraction_path(self, coeffs, rhs):
        # all-int coefficients take the gcd-only path; Fraction ones the lcm path
        assume(any(coeffs.values()))
        fast = LinearInequality(coeffs, rhs)
        exact = LinearInequality({c: Fraction(a) for c, a in coeffs.items()}, rhs)
        assert list(fast.coeffs.items()) == list(exact.coeffs.items())
        assert all(type(a) is int for a in fast.coeffs.values())
        assert type(fast.rhs) is Fraction and fast.rhs == exact.rhs


class TestAffineImage:
    def test_shear_preserves_counts_and_vertices(self):
        h = hrep2(TRAPEZOID)
        image = affine_image(h, [[1, 1], [0, 1]], [3, -2])
        original = enumerate_vertices(h).vertices
        mapped = {(x + y + 3, y - 2) for x, y in original}
        assert set(enumerate_vertices(image).vertices) == mapped
        for n in (1, 2):
            assert count_lattice_points(image, n) == count_lattice_points(hrep2(TRAPEZOID), n)

    def test_random_unimodular_count_invariance(self):
        rng = random.Random(4)
        h = hrep2(SIMPLEX)
        for _ in range(5):
            m, t = random_unimodular_map(rng, 2)
            image = affine_image(h, m, t)
            for n in (1, 2, 3):
                assert count_lattice_points(image, n) == count_lattice_points(h, n)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            affine_image(hrep2(SIMPLEX), [[1, 1], [1, 1]], [0, 0])
