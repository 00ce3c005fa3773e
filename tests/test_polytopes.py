"""Builders for the three polytope families and face-partition combinatorics."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from markedposets import (
    ChainOrderPartition,
    DimensionTooLarge,
    FacePartition,
    HRepresentation,
    LinearInequality,
    MarkedPoset,
    PointOutsidePolytope,
    Poset,
    build_chain_hrep,
    build_chain_order_hrep,
    build_order_hrep,
    contains,
    enumerate_vertices,
    face_partition_of_point,
    irredundant,
    is_face_partition,
    maximal_marked_chains,
    order_facets_combinatorial,
    order_vertices_combinatorial,
    polytopes,
)
from markedposets.corpus import (
    all_chain_order_partitions,
    corpus,
    random_convex_points,
    random_marked_poset,
)
from markedposets.ehrhart import pm_family


def ineq(coeffs, rhs):
    return LinearInequality(coeffs, rhs)


def long_chain(n):
    """e0000 < e0001 < ... with marks 0 and 1 on the two ends."""
    elements = [f"e{i:04d}" for i in range(n)]
    return MarkedPoset(Poset(elements, list(zip(elements, elements[1:]))),
                       {elements[0]: 0, elements[-1]: 1})


def leafwise_vertices(mp):
    """The assignment search with each leaf checked by ``face_partition_of_point``."""
    poset, values = mp.poset, sorted(set(mp.marking.values()))
    order = [e for e in poset.topological_order() if e not in mp.marked]
    vertices = set()

    def walk(point):
        if len(point) == len(order):
            if not face_partition_of_point(mp, point).free_blocks:
                vertices.add(tuple(point[p] for p in mp.unmarked))
            return
        e = order[len(point)]
        lows = [mp.value(p) if p in mp.marked else point[p] for p in poset.lower_covers(e)]
        highs = [mp.value(q) for q in poset.upper_covers(e) if q in mp.marked]
        for v in values:
            if all(lo <= v for lo in lows) and all(v <= hi for hi in highs):
                walk({**point, e: v})

    walk({})
    return tuple(sorted(vertices))


class TestBuildOrder:
    def test_segment(self, segment):
        h = build_order_hrep(segment)
        assert set(h.inequalities) == {ineq({"x": -1}, 0), ineq({"x": 1}, 1)}

    def test_diamond_independent_coordinates(self, diamond_02):
        h = build_order_hrep(diamond_02)
        assert set(h.inequalities) == {
            ineq({"x": -1}, 0), ineq({"x": 1}, 2),
            ineq({"y": -1}, 0), ineq({"y": 1}, 2),
        }

    def test_one_inequality_per_cover(self):
        # a(0) < x < y < b(3) with m(1) < y
        p = Poset(["a", "m", "b", "x", "y"],
                  [("a", "x"), ("x", "y"), ("m", "y"), ("y", "b")])
        mp = MarkedPoset(p, {"a": 0, "m": 1, "b": 3})
        h = build_order_hrep(mp)
        assert set(h.inequalities) == {
            ineq({"x": -1}, 0), ineq({"x": 1, "y": -1}, 0),
            ineq({"y": -1}, -1), ineq({"y": 1}, 3),
        }

    def test_long_chain_memory(self):
        # the order is one bitmask up-set per element and rows are keyed by
        # their nonzeros, so the traced peak is about 2 MB; up-sets held as
        # sets (about 54 MB) or a dense key per row (about 19 MB) would each
        # exceed the 10 MB bound
        tracemalloc.start()
        try:
            h = build_order_hrep(long_chain(1500))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(h.inequalities) == 1499
        assert peak < 10 * 2**20


class TestBuildChain:
    def test_figure_one(self, figure_one):
        h = build_chain_hrep(figure_one)
        assert set(h.inequalities) == {
            ineq({"x1": -1}, 0), ineq({"x2": -1}, 0),
            ineq({"x1": 1}, 1), ineq({"x2": 1}, 1),
            ineq({"x1": 1, "x2": 1}, 2),
        }

    def test_single_chain(self):
        p = Poset(["a", "x", "y", "b"], [("a", "x"), ("x", "y"), ("y", "b")])
        mp = MarkedPoset(p, {"a": 0, "b": 3})
        h = build_chain_hrep(mp)
        assert set(h.inequalities) == {
            ineq({"x": -1}, 0), ineq({"y": -1}, 0), ineq({"x": 1, "y": 1}, 3)}

    def test_two_marked_chains(self):
        # a(0) < x < m(2) and a < x < y < b(3)
        p = Poset(["a", "m", "b", "x", "y"],
                  [("a", "x"), ("x", "m"), ("x", "y"), ("y", "b")])
        mp = MarkedPoset(p, {"a": 0, "m": 2, "b": 3})
        h = build_chain_hrep(mp)
        assert set(h.inequalities) == {
            ineq({"x": -1}, 0), ineq({"y": -1}, 0),
            ineq({"x": 1}, 2), ineq({"x": 1, "y": 1}, 3),
        }


def order_hrep_by_rule(mp):
    """One row per cover with an unmarked end, marked ends substituted."""
    rows = []
    for p, q in mp.poset.covers:
        if p in mp.marked and q in mp.marked:
            continue
        if p in mp.marked:
            rows.append(ineq({q: -1}, -mp.value(p)))
        elif q in mp.marked:
            rows.append(ineq({p: 1}, mp.value(q)))
        else:
            rows.append(ineq({p: 1, q: -1}, 0))
    return HRepresentation(mp.unmarked, rows)


def chain_hrep_by_rule(mp):
    """Nonnegativity, plus one chain-sum row per maximal marked chain with an interior."""
    rows = [ineq({p: -1}, 0) for p in mp.unmarked]
    rows += [ineq(dict.fromkeys(interior, 1), mp.value(b) - mp.value(a))
             for a, interior, b in maximal_marked_chains(mp) if interior]
    return HRepresentation(mp.unmarked, rows)


class TestBuildersAgainstRules:
    """The one builder, at both ends of the chain/order split, against the plain row rules."""

    def test_seeded_corpus(self):
        for mp in corpus(20250808, trials=200, max_unmarked=7):
            order, chain = order_hrep_by_rule(mp), chain_hrep_by_rule(mp)
            assert build_order_hrep(mp) == order
            assert build_chain_order_hrep(mp, ChainOrderPartition.of(mp, ())) == order
            assert build_chain_hrep(mp) == chain
            assert build_chain_order_hrep(mp, ChainOrderPartition.of(mp, mp.unmarked)) == chain


class TestBuildChainOrder:
    def test_all_chain_matches_chain_builder(self, figure_one):
        part = ChainOrderPartition.of(figure_one, figure_one.unmarked)
        h = build_chain_order_hrep(figure_one, part)
        assert h == build_chain_hrep(figure_one)
        assert h == chain_hrep_by_rule(figure_one)

    def test_all_order_matches_order_builder(self, figure_one):
        part = ChainOrderPartition.of(figure_one, ())
        h = build_chain_order_hrep(figure_one, part)
        assert h == build_order_hrep(figure_one)
        assert h == order_hrep_by_rule(figure_one)

    def test_mixed_example(self):
        p = Poset(["a", "c", "p", "b"], [("a", "c"), ("c", "p"), ("p", "b")])
        mp = MarkedPoset(p, {"a": 0, "b": 2})
        part = ChainOrderPartition.of(mp, ["c"])
        h = build_chain_order_hrep(mp, part)
        assert set(h.inequalities) == {
            ineq({"c": -1}, 0), ineq({"c": 1, "p": -1}, 0), ineq({"p": 1}, 2)}

    def test_invalid_partition_rejected(self, figure_one):
        with pytest.raises(ValueError):
            build_chain_order_hrep(
                figure_one, ChainOrderPartition(frozenset({"x1"}), frozenset()))

    def test_membership_decomposition(self):
        # (x_C, x_O) lies in the hybrid polytope iff x_O is in the order
        # polytope of the poset without C and x_C is in the chain polytope
        # with the order values adjoined as marks.
        rng = random.Random(12)
        from markedposets.posets import restrict_marked

        for _ in range(12):
            mp = random_marked_poset(rng, max_unmarked=4)
            parts = list(all_chain_order_partitions(mp))
            part = parts[rng.randrange(len(parts))]
            h = build_chain_order_hrep(mp, part)
            samples = random_convex_points(rng, enumerate_vertices(h), 3)
            for point in samples:
                order_part = {c: point[c] for c in part.order}
                chain_part = {c: point[c] for c in part.chain}
                restricted = restrict_marked(mp, part.order | mp.marked)
                order_h = build_order_hrep(restricted)
                assert contains(order_h, order_part)
                extended = MarkedPoset(mp.poset, {**mp.marking, **order_part})
                assert contains(build_chain_hrep(extended), chain_part)
            # and a point pushed outside fails at least one side
            outside = dict(samples[0])
            if part.chain:
                witness = sorted(part.chain)[0]
                outside[witness] = outside[witness] - 100
                assert not contains(h, outside)
                extended = MarkedPoset(mp.poset, {**mp.marking,
                                                  **{c: outside[c] for c in part.order}})
                assert not contains(build_chain_hrep(extended),
                                    {c: outside[c] for c in part.chain})


class TestFacePartitionOfPoint:
    def test_glued_to_bottom(self, segment):
        fp = face_partition_of_point(segment, {"x": Fraction(0)})
        assert fp.blocks == (frozenset({"a", "x"}), frozenset({"b"}))
        assert fp.free_blocks == ()

    def test_interior_point_is_free(self, segment):
        fp = face_partition_of_point(segment, {"x": Fraction(1, 2)})
        assert fp.blocks == (frozenset({"a"}), frozenset({"b"}), frozenset({"x"}))
        assert fp.free_blocks == (frozenset({"x"}),)

    def test_equal_incomparable_values_not_merged(self, diamond_02):
        fp = face_partition_of_point(diamond_02, {"x": Fraction(1), "y": Fraction(1)})
        assert len(fp.blocks) == 4
        assert set(fp.free_blocks) == {frozenset({"x"}), frozenset({"y"})}

    def test_outside_point_rejected(self, segment):
        with pytest.raises(PointOutsidePolytope):
            face_partition_of_point(segment, {"x": Fraction(2)})


class TestIsFacePartition:
    def test_singletons_always_face(self, trapezoid_poset):
        fp = FacePartition.of(
            trapezoid_poset, [{e} for e in trapezoid_poset.poset.elements])
        assert is_face_partition(trapezoid_poset, fp)

    def test_block_with_two_marks_rejected(self, segment):
        fp = FacePartition.of(segment, [{"a", "x", "b"}])
        assert not is_face_partition(segment, fp)

    def test_glued_cover_accepted(self, segment):
        fp = FacePartition.of(segment, [{"a", "x"}, {"b"}])
        assert is_face_partition(segment, fp)

    def test_disconnected_block_rejected(self, diamond_02):
        fp = FacePartition.of(diamond_02, [{"x", "y"}, {"bot"}, {"top"}])
        assert not is_face_partition(diamond_02, fp)

    def test_blocks_in_a_cycle_rejected(self):
        # a < x < y < b: {a, y} lies both below and above {x}
        mp = MarkedPoset(Poset(["a", "x", "y", "b"], [("a", "x"), ("x", "y"), ("y", "b")]),
                         {"a": 0, "b": 3})
        fp = FacePartition.of(mp, [{"a", "y"}, {"x"}, {"b"}])
        assert not is_face_partition(mp, fp)

    def test_not_a_partition_raises(self, segment):
        with pytest.raises(ValueError):
            is_face_partition(segment, FacePartition.of(segment, [{"a", "x"}]))
        # of several unknown ids the least is named, whatever the string hashing
        with pytest.raises(ValueError, match="unknown element 'q'"):
            is_face_partition(segment, FacePartition.of(segment, [{"a", "x", "s", "q", "r"}, {"b"}]))

    def test_points_induce_face_partitions(self):
        rng = random.Random(8)
        for _ in range(10):
            mp = random_marked_poset(rng, max_unmarked=4)
            h = build_order_hrep(mp)
            v = enumerate_vertices(h)
            for point in random_convex_points(rng, v, 4):
                assert is_face_partition(mp, face_partition_of_point(mp, point))

    def test_face_dimension_equals_free_block_count(self):
        # the face a point generates spans exactly one dimension per free block
        from markedposets import affine_dimension

        rng = random.Random(9)
        for _ in range(12):
            mp = random_marked_poset(rng, max_unmarked=4)
            v = enumerate_vertices(build_order_hrep(mp))
            for point in random_convex_points(rng, v, 3):
                fp = face_partition_of_point(mp, point)
                face_vertices = []
                for vertex in v.point_maps():
                    full = {a: mp.value(a) for a in mp.marked} | vertex
                    if all(len({full[e] for e in block}) == 1 for block in fp.blocks):
                        face_vertices.append(tuple(vertex[c] for c in v.coordinates))
                assert affine_dimension(face_vertices) == len(fp.free_blocks)


class TestOrderVerticesCombinatorial:
    def test_segment(self, segment):
        assert order_vertices_combinatorial(segment).vertices == ((0,), (1,))

    def test_diamond(self, diamond_02):
        assert order_vertices_combinatorial(diamond_02).vertices == (
            (0, 0), (0, 2), (2, 0), (2, 2))

    def test_pm3_vertices_match_geometry(self):
        # 8 order-preserving mark assignments exist, but (0,1,2) leaves x2 in
        # a free block (x2 and the middle mark are incomparable), so the
        # polytope has 7 vertices.
        mp = pm_family(3, 1)
        combinatorial = order_vertices_combinatorial(mp)
        assert len(combinatorial) == 7
        assert (0, 1, 2) not in {tuple(v) for v in combinatorial.vertices}
        assert combinatorial == enumerate_vertices(build_order_hrep(mp))

    def test_matches_geometry_on_corpus(self):
        rng = random.Random(21)
        for trial in range(25):
            mp = random_marked_poset(rng, max_unmarked=6,
                                     min_unmarked=6 if trial < 5 else 1)
            assert order_vertices_combinatorial(mp) == enumerate_vertices(build_order_hrep(mp))

    def test_node_cap(self, monkeypatch, diamond_02):
        monkeypatch.setattr(polytopes, "DEFAULT_ASSIGNMENT_CAP", 3)
        with pytest.raises(DimensionTooLarge, match="node cap"):
            order_vertices_combinatorial(diamond_02)

    def test_env_cap_reaches_assignment_search(self, monkeypatch, diamond_02):
        # the diamond's search visits 7 nodes: the root, 2 values of the
        # first element, then 2 of the second under each
        monkeypatch.setenv("MPP_WORK_CAP", "7")
        assert len(order_vertices_combinatorial(diamond_02)) == 4
        monkeypatch.setenv("MPP_WORK_CAP", "6")
        with pytest.raises(DimensionTooLarge, match="node cap 6; set MPP_WORK_CAP to raise it"):
            order_vertices_combinatorial(diamond_02)

    def test_chain_deeper_than_recursion_limit(self, monkeypatch):
        # the walk goes one level per unmarked element without recursing, so a
        # long chain ends at the node cap, not at Python's recursion limit
        mp = long_chain(1200)
        assert len(mp.unmarked) > sys.getrecursionlimit()
        monkeypatch.setenv("MPP_WORK_CAP", "1100")
        with pytest.raises(DimensionTooLarge, match="node cap 1100; set MPP_WORK_CAP to raise it"):
            order_vertices_combinatorial(mp)

    @pytest.mark.parametrize("seed", (20250808, 3, 7))
    def test_matches_leafwise_check_on_corpora(self, seed):
        for mp in corpus(seed, 200, max_unmarked=6):
            assert order_vertices_combinatorial(mp).vertices == leafwise_vertices(mp)

    def test_matches_leafwise_check_on_ladder_and_chain(self, ladder):
        for mp in (ladder(7), long_chain(200)):
            assert order_vertices_combinatorial(mp).vertices == leafwise_vertices(mp)

    def test_vertices_have_no_free_blocks(self):
        rng = random.Random(22)
        for _ in range(8):
            mp = random_marked_poset(rng, max_unmarked=4)
            v = enumerate_vertices(build_order_hrep(mp))
            for point in v.point_maps():
                assert face_partition_of_point(mp, point).free_blocks == ()


class TestOrderFacetsCombinatorial:
    def test_segment(self, segment):
        assert set(order_facets_combinatorial(segment)) == {
            ineq({"x": -1}, 0), ineq({"x": 1}, 1)}

    def test_diamond_has_four_facets(self, diamond_02):
        assert len(order_facets_combinatorial(diamond_02)) == 4

    def test_trapezoid(self, trapezoid_poset):
        assert set(order_facets_combinatorial(trapezoid_poset)) == {
            ineq({"x": -1}, 0), ineq({"x": 1, "y": -1}, 0),
            ineq({"y": -1}, -1), ineq({"y": 1}, 2),
        }

    def test_matches_irredundant_on_corpus(self):
        rng = random.Random(23)
        for trial in range(25):
            mp = random_marked_poset(rng, max_unmarked=6,
                                     min_unmarked=6 if trial < 5 else 1)
            facets = order_facets_combinatorial(mp)
            reduced = irredundant(build_order_hrep(mp))
            assert not reduced.equalities
            assert set(facets) == set(reduced.inequalities)


class TestChainZeroVertex:
    def test_origin_is_vertex_and_axes_are_facets(self):
        rng = random.Random(24)
        for _ in range(15):
            mp = random_marked_poset(rng, max_unmarked=5)
            h = build_chain_hrep(mp)
            v = enumerate_vertices(h)
            origin = tuple(Fraction(0) for _ in h.coordinates)
            assert origin in v.vertices
            reduced = irredundant(h)
            for p in h.coordinates:
                assert ineq({p: -1}, 0) in reduced.inequalities


class TestDisjointUnionProduct:
    def test_vertex_set_is_cartesian_product(self):
        p1 = Poset(["a", "x", "b"], [("a", "x"), ("x", "b")])
        p2 = Poset(["c", "y", "z", "d"], [("c", "y"), ("y", "z"), ("z", "d")])
        mp1 = MarkedPoset(p1, {"a": 0, "b": 2})
        mp2 = MarkedPoset(p2, {"c": 1, "d": 3})
        union = MarkedPoset(
            Poset(p1.elements + p2.elements, p1.covers + p2.covers),
            {**mp1.marking, **mp2.marking})
        v1 = enumerate_vertices(build_order_hrep(mp1))
        v2 = enumerate_vertices(build_order_hrep(mp2))
        vu = enumerate_vertices(build_order_hrep(union))
        assert vu.coordinates == ("x", "y", "z")
        expected = {(x, y, z) for (x,) in v1.vertices for (y, z) in v2.vertices}
        assert set(vu.vertices) == expected
