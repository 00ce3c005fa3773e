"""Polytope core: vertex enumeration, redundancy, counting, interpolation.

Derived expectations are frozen from independent oracles implemented here:
a two-constraint Cramer solver for 2D vertex candidates, and a plain box
scan for lattice points.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
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
    count_lattice_points,
    enumerate_vertices,
    evaluate_affine_values,
    interpolate_polynomial,
    irredundant,
    polynomial,
)
from markedposets.corpus import random_unimodular_map


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


def oracle_count_box(rows, dilation, box):
    """Scan an integer box and keep points satisfying the dilated system."""
    (x_lo, x_hi), (y_lo, y_hi) = box
    total = 0
    for x in range(x_lo, x_hi + 1):
        for y in range(y_lo, y_hi + 1):
            if all(ax * x + ay * y <= b * dilation for ax, ay, b in rows):
                total += 1
    return total


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
        # the ray walk tries C(4, 2) = 6 subsets, the vertex walk only C(4, 3) = 4
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
