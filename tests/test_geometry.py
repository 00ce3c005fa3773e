"""Polytope core: vertex enumeration, redundancy, counting, interpolation.

Derived expectations are frozen from independent oracles implemented here:
a two-constraint Cramer solver for 2D vertex candidates, the subset walk
(solve every independent subset of d rows) for vertices in any dimension,
a rational-elimination rank for facet classification, and a plain box scan
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
    DimensionTooLarge,
    EmptyPolytope,
    HRepresentation,
    LinearInequality,
    UnboundedPolytope,
    UnivariatePolynomial,
    affine_dimension,
    affine_image,
    build_chain_hrep,
    build_chain_order_hrep,
    build_order_hrep,
    contains,
    count_lattice_points,
    enumerate_vertices,
    evaluate_affine_values,
    interpolate_polynomial,
    irredundant,
    is_two_level_direct,
    polynomial,
)
from markedposets.corpus import all_chain_order_partitions, corpus, random_unimodular_map
from markedposets.geometry import (
    _count_points,
    _int_row,
    _IntEchelon,
    _seed_equalities,
    _walk_subsets,
    classify_inequalities,
)


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


def subset_walk_vertices(h):
    """Every feasible solution of an independent subset of d rows, sorted.

    Walks the subsets that raise the equalities to rank d, solves each by
    back-substitution, and keeps the solutions that satisfy every row.
    """
    d = len(h.coordinates)
    ech = _IntEchelon(d)
    _seed_equalities(ech, [_int_row(h, e) for e in h.equalities])
    found = set()

    def solve():
        x = [Fraction(0)] * d
        for pivot, row in sorted(ech.rows, key=lambda t: -t[0]):
            rest = sum(row[j] * x[j] for j in range(pivot + 1, d))
            x[pivot] = (row[d] - rest) / Fraction(row[pivot])
        found.add(tuple(x))

    _walk_subsets(ech, [_int_row(h, i) for i in h.inequalities], d, solve)
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
    assert affine_dimension(v) == dim
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

    def test_ray_walk_bounds_tetrahedron(self, monkeypatch):
        # no single row bounds a coordinate, so the interval pass certifies nothing
        h = HRepresentation(["x", "y", "z"], [
            LinearInequality({"x": 1, "y": 1, "z": 1}, 2),
            LinearInequality({"x": 1, "y": -1, "z": -1}, 0),
            LinearInequality({"x": -1, "y": 1, "z": -1}, 0),
            LinearInequality({"x": -1, "y": -1, "z": 1}, 0),
        ])
        # the ray walk tries C(4, 2) = 6 subsets; the double description holds at most 4 rays
        monkeypatch.setenv("MPP_WORK_CAP", "5")
        with pytest.raises(DimensionTooLarge, match=r"C\(4, 2\)"):
            enumerate_vertices(h)
        monkeypatch.setenv("MPP_WORK_CAP", "6")
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


class TestIrredundant:
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
        assert affine_dimension([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]) == 1

    def test_empty(self):
        assert affine_dimension([]) == -1

    def test_point(self):
        assert affine_dimension([(Fraction(2), Fraction(3))]) == 0

    def test_square(self):
        assert affine_dimension(enumerate_vertices(hrep2(UNIT_SQUARE))) == 2


class TestEvaluateAffineValues:
    def test_square_x(self):
        v = enumerate_vertices(hrep2(UNIT_SQUARE))
        assert evaluate_affine_values(v, LinearInequality({"x": 1}, 1)) == (0, 0, 1, 1)

    def test_simplex_sum(self):
        v = enumerate_vertices(hrep2(SIMPLEX))
        assert evaluate_affine_values(v, LinearInequality({"x": 1, "y": 1}, 1)) == (0, 1, 1)

    def test_trapezoid_difference(self):
        v = enumerate_vertices(hrep2(TRAPEZOID))
        values = evaluate_affine_values(v, LinearInequality({"x": 1, "y": -1}, 0))
        assert values == (-2, -1, 0, 0)

    def test_fractional_vertices(self):
        # vertices (0, 0), (1/2, 0), (0, 1/3)
        v = enumerate_vertices(hrep2([(-1, 0, 0), (0, -1, 0), (2, 3, 1)]))
        values = evaluate_affine_values(v, LinearInequality({"x": 3, "y": 1}, 2))
        assert values == (0, Fraction(1, 3), Fraction(3, 2))


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
        while checked < 25:
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
