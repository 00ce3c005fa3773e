"""Builders for the three polytope families and face-partition combinatorics."""

import contextlib
import io
import json
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
    cli,
    contains,
    enumerate_vertices,
    face_partition_of_point,
    geometry,
    irredundant,
    is_face_partition,
    order_facets_combinatorial,
    order_vertices_combinatorial,
    polytopes,
)
from markedposets.corpus import _draw, corpus, random_marked_poset
from markedposets.ehrhart import pm_family
from markedposets.posets import (_components, _members, _saturated_chains, _topological_order,
                                 _up_sets, validate_marked)
from helpers import all_chain_order_partitions, random_convex_points


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
             for a, interior, b in _saturated_chains(mp.poset, mp.marked) if interior]
    return HRepresentation(mp.unmarked, rows)


def large_shapes(n):
    """A chain, an antichain, a fence and a tied antichain (bot and top both 0), n elements each."""
    x = [f"x{i:03d}" for i in range(n - 2)]
    spread = [("bot", e) for e in x] + [(e, "top") for e in x]
    zigzag = [("bot", e) if i % 2 == 0 else (e, "top") for i, e in enumerate(x)]
    zigzag += [(x[i], x[i + 1]) if i % 2 == 0 else (x[i + 1], x[i]) for i in range(n - 3)]
    return [long_chain(n),
            MarkedPoset(Poset(["bot", "top", *x], spread), {"bot": 0, "top": 1}),
            MarkedPoset(Poset(["bot", "top", *x], zigzag), {"bot": 0, "top": 3}),
            MarkedPoset(Poset(["bot", "top", *x], spread), {"bot": 0, "top": 0})]


def rational_marks(mp):
    """The same poset with every mark mapped by lambda -> (2/3) lambda + 1/2."""
    return MarkedPoset(mp.poset, {a: Fraction(2, 3) * v + Fraction(1, 2)
                                  for a, v in mp.marking.items()})


class TestBuildersAgainstRules:
    """The one builder, at both ends of the chain/order split, against the plain row rules."""

    @staticmethod
    def check(mp):
        order, chain = order_hrep_by_rule(mp), chain_hrep_by_rule(mp)
        assert build_order_hrep(mp) == order
        assert build_chain_order_hrep(mp, ChainOrderPartition.of(mp, ())) == order
        assert build_chain_hrep(mp) == chain
        assert build_chain_order_hrep(mp, ChainOrderPartition.of(mp, mp.unmarked)) == chain
        for h in (build_order_hrep(mp), build_chain_hrep(mp)):
            for row in h.inequalities:
                assert all(type(a) is int for a in row.coeffs.values())
                assert type(row.rhs) is Fraction

    def test_seeded_corpus(self):
        for mp in corpus(20250808, trials=200, max_unmarked=7):
            self.check(mp)

    def test_seeded_corpus_rational_marks(self):
        for mp in corpus(20250808, trials=200, max_unmarked=7):
            self.check(rational_marks(mp))

    def test_large_shapes(self):
        for mp in large_shapes(200):
            self.check(mp)
            self.check(rational_marks(mp))


def fresh_ids(mp, rng):
    """``mp`` under shuffled ids, so that id order follows neither the covers nor the chains."""
    names = [f"e{i:04d}" for i in range(len(mp.poset.elements))]
    rng.shuffle(names)
    new = dict(zip(mp.poset.elements, names))
    return MarkedPoset(Poset(names, [(new[p], new[q]) for p, q in mp.poset.covers]),
                       {new[a]: v for a, v in mp.marking.items()})


class TestNormalRows:
    """The rows ``_hrep`` builds normal against ``LinearInequality``'s normalisation, their oracle."""

    @staticmethod
    def check(mp, rng):
        part = ChainOrderPartition.of(mp, [p for p in mp.unmarked if rng.random() < 0.5])
        for h in (build_order_hrep(mp), build_chain_hrep(mp), build_chain_order_hrep(mp, part)):
            assert h._id_ordered
            for row in h.inequalities:
                for built in (row, row.negated()):
                    oracle = LinearInequality(dict(built.coeffs), built.rhs)
                    assert list(built.coeffs.items()) == list(oracle.coeffs.items())
                    assert type(built.rhs) is Fraction and built.rhs == oracle.rhs

    def test_seeded_corpus(self):
        rng = random.Random(1)
        for mp in corpus(20250808, 200, max_unmarked=6):
            self.check(mp, rng)
            self.check(rational_marks(mp), rng)

    def test_large_shapes(self):
        rng = random.Random(2)
        _, antichain, fence, _ = large_shapes(902)
        for mp in (long_chain(1500), antichain, fence):  # chain-1500, antichain-900, fence-900
            self.check(fresh_ids(mp, rng), rng)


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


def face_partition_by_block_graph(mp, fp):
    """The block-graph decision that ``is_face_partition`` made before it built the quotient.

    Its own closure walk over the block relation and its own mark loops; the
    partition must be valid.
    """
    block_of = {e: i for i, block in enumerate(fp.blocks) for e in block}
    poset = mp.poset
    inside = [(e, f) for block in fp.blocks for e in block for f in block
              if e < f and poset.comparable(e, f)]
    if len(_components(poset.elements, inside)) != len(fp.blocks):
        return False
    k = len(fp.blocks)
    succ = {i: set() for i in range(k)}
    for p, q in poset.covers:
        if block_of[p] != block_of[q]:
            succ[block_of[p]].add(block_of[q])
    try:
        order, above, _ = _up_sets(range(k), succ)
    except ValueError:
        return False
    block_marks = [set() for _ in range(k)]
    for a in mp.marked:
        block_marks[block_of[a]].add(mp.value(a))
    if any(len(marks) > 1 for marks in block_marks):
        return False
    for i, reach in zip(order, above):
        for j in _members(reach, order):
            if block_marks[i] and block_marks[j] and min(block_marks[i]) >= min(block_marks[j]):
                return False
    return True


def random_partition(rng, mp):
    """Blocks glued along random covers (connected, often a face), or random labels (rarely)."""
    elements = mp.poset.elements
    if rng.random() < 0.5:
        return FacePartition.of(mp, _components(elements, [c for c in mp.poset.covers
                                                           if rng.random() < 0.3]))
    label = {e: rng.randrange(rng.randint(1, len(elements))) for e in elements}
    return FacePartition.of(mp, [{e for e in elements if label[e] == i} for i in set(label.values())])


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

    def test_marked_blocks_must_increase_strictly(self):
        # a < x < b with a and b both marked 1: the block {a} lies below {b}
        mp = MarkedPoset(Poset(["a", "x", "b"], [("a", "x"), ("x", "b")]), {"a": 1, "b": 1})
        assert not is_face_partition(mp, FacePartition.of(mp, [{"a"}, {"x"}, {"b"}]))

    def test_marks_decreasing_between_blocks_rejected(self):
        # c < x with c marked 3 and x glued to a, marked 0: the quotient's marks
        # decrease along {c} < {a, x}, which MarkedPoset refuses
        mp = MarkedPoset(Poset(["a", "b", "c", "x"], [("a", "x"), ("c", "x"), ("x", "b")]),
                         {"a": 0, "c": 3, "b": 5})
        assert not is_face_partition(mp, FacePartition.of(mp, [{"a", "x"}, {"c"}, {"b"}]))
        assert is_face_partition(mp, FacePartition.of(mp, [{"a"}, {"c", "x"}, {"b"}]))

    def test_agrees_with_block_graph_decision(self):
        # corpus posets (strict regular) and raw draws (irregular), each also
        # with its marks halved (order-preserving, often not strict)
        posets = [mp for seed in (20250808, 3, 7) for mp in corpus(seed, 20)]
        rng = random.Random(11)
        draws = (_draw(rng, 5, 0, 4, 1) for _ in range(120))
        posets += [mp for mp in draws if mp is not None]
        posets += [MarkedPoset(mp.poset, {a: v // 2 for a, v in mp.marking.items()}) for mp in posets]
        rng = random.Random(12)
        outcomes = []
        for mp in posets:
            for _ in range(20):
                fp = random_partition(rng, mp)
                outcomes.append(is_face_partition(mp, fp))
                assert outcomes[-1] == face_partition_by_block_graph(mp, fp), fp
        assert 0.05 < sum(outcomes) / len(outcomes) < 0.95

    def test_not_a_partition_raises(self, segment):
        with pytest.raises(ValueError):
            is_face_partition(segment, FacePartition.of(segment, [{"a", "x"}]))
        # FacePartition.of takes min() of every block, so build the empty block directly
        with pytest.raises(ValueError, match="empty block"):
            is_face_partition(segment, FacePartition((frozenset(), frozenset("abx")), ()))
        with pytest.raises(ValueError, match="element 'x' appears in two blocks"):
            is_face_partition(segment, FacePartition.of(segment, [{"a", "x"}, {"x", "b"}]))
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
        from markedposets import VRepresentation

        rng = random.Random(9)
        for _ in range(12):
            mp = random_marked_poset(rng, max_unmarked=4)
            v = enumerate_vertices(build_order_hrep(mp))
            for point in random_convex_points(rng, v, 3):
                fp = face_partition_of_point(mp, point)
                face_vertices = []
                for x in v.vertices:
                    vertex = dict(zip(v.coordinates, x))
                    full = {a: mp.value(a) for a in mp.marked} | vertex
                    if all(len({full[e] for e in block}) == 1 for block in fp.blocks):
                        face_vertices.append(tuple(vertex[c] for c in v.coordinates))
                assert VRepresentation.from_points(v.coordinates, face_vertices).dimension == len(fp.free_blocks)


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
            for x in v.vertices:
                assert face_partition_of_point(mp, dict(zip(v.coordinates, x))).free_blocks == ()


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


def document(mp, part):
    """The JSON document of ``mp`` with the chain-order partition ``part``."""
    return {"elements": list(mp.poset.elements), "covers": [list(c) for c in mp.poset.covers],
            "marked": {a: int(v) for a, v in mp.marking.items()},
            "partition": {"chain": sorted(part.chain), "order": sorted(part.order)}}


def cli_json(doc, *argv):
    """The parsed ``--json`` answer of one in-process ``mpp`` command on ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poset.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([argv[0], str(path), *argv[1:], "--json"])
    assert code == 0
    return json.loads(out.getvalue())


def family_hreps(mp, part):
    """The three families' H-representations, by CLI family name."""
    return {"order": build_order_hrep(mp), "chain": build_chain_hrep(mp),
            "chain-order": build_chain_order_hrep(mp, part)}


class TestFacetsFromThePoset:
    """On strict regular input every built row is a facet (``polytopes._facets``); elsewhere the DD decides."""

    @pytest.mark.parametrize("seed", [20250808, 3, 7])
    def test_every_built_row_is_a_facet(self, seed):
        for mp in corpus(seed, 200, max_unmarked=5):
            for part in all_chain_order_partitions(mp):
                h = build_chain_order_hrep(mp, part)
                assert irredundant(h) == h

    @pytest.mark.parametrize("seed", [20250808, 3, 7])
    def test_cli_facets_match_the_irredundant_route(self, seed):
        for mp in corpus(seed, 200, max_unmarked=5)[::20]:
            parts = list(all_chain_order_partitions(mp))
            part = parts[len(parts) // 2]
            for family, h in family_hreps(mp, part).items():
                answer = cli_json(document(mp, part), "polytope", "--family", family,
                                  "--emit", "facets")
                assert answer["result"] == cli._hrep_payload(irredundant(h))

    def test_irregular_input_drops_every_redundant_row(self):
        # strict irregular draws: the built rows may be redundant, and the
        # facets must still come from the vertices
        redundant = dict.fromkeys(["order", "chain", "chain-order"], 0)
        for seed in (11, 12, 13, 14):
            rng = random.Random(seed)
            for _ in range(40):
                mp = _draw(rng, 6, 0, 4, 1)
                if mp is None:
                    continue
                report = validate_marked(mp)
                if not report.strict or report.regular:
                    continue
                part = ChainOrderPartition.of(mp, mp.unmarked[::2])
                for family, h in family_hreps(mp, part).items():
                    answer = cli_json(document(mp, part), "polytope", "--family", family,
                                      "--emit", "facets")
                    assert answer["result"] == cli._hrep_payload(irredundant(h))
                    redundant[family] += len(answer["result"]["inequalities"]) < len(h.inequalities)
        # 47 of the 66 strict irregular draws, in each family
        assert min(redundant.values()) >= 40


def contracted_point(mp, s, t, eps):
    """A point of the order polytope with x_s = x_t that increases strictly on every other cover.

    On the Hasse diagram with the cover s < t contracted, x_e is the largest
    mark(u) + eps * (longest path from u to e) over the marked u below e.
    """
    rep = {e: s if e == t else e for e in mp.poset.elements}
    succ = {e: set() for e in set(rep.values())}
    for p, q in mp.poset.covers:
        if (p, q) != (s, t):
            succ[rep[p]].add(rep[q])
    order = _topological_order(succ, succ)
    x = {}
    for u in mp.marked:
        length = {rep[u]: 0}
        for e in order:
            for f in succ[e] if e in length else ():
                length[f] = max(length.get(f, 0), length[e] + 1)
        for e, n in length.items():
            x[e] = max(x.get(e, n * eps + mp.value(u)), n * eps + mp.value(u))
    return {e: x[rep[e]] for e in mp.poset.elements}


def transfer(mp, chain, x):
    """phi(x): x_p less the largest x over the lower covers of p on the chain part, x elsewhere."""
    return {p: x[p] - max(x[r] for r in mp.poset.lower_covers(p)) if p in chain else x[p]
            for p in mp.unmarked}


def facet_witnesses(mp, chain):
    """The points that ``polytopes._facets``' proof builds, one per row of ``_hrep(mp, chain)``."""
    poset, n = mp.poset, len(mp.poset.elements)
    eps = Fraction(1, 2 * n + 2)
    t = eps / (4 * (max(mp.marking.values()) - min(mp.marking.values()) + 2))
    lo = {e: max(mp.value(a) for a in mp.marked if poset.leq(a, e)) for e in poset.elements}
    hi = {e: min(mp.value(a) for a in mp.marked if poset.leq(e, a)) for e in poset.elements}
    for p in sorted(chain):
        yield transfer(mp, chain, contracted_point(mp, poset.lower_covers(p)[0], p, eps))
    for a, interior, b in _saturated_chains(poset, frozenset(poset.elements) - chain):
        if not interior:
            if not {a, b} <= mp.marked:
                yield transfer(mp, chain, contracted_point(mp, a, b, eps))
            continue
        path, k = (a, *interior), len(interior)
        x = {}
        for e in poset.elements:
            j = max((j for j, p in enumerate(path) if poset.leq(p, e)), default=None)
            g = lo[e] if j is None else hi[path[j]] - (k - j) * eps
            x[e] = max(lo[e], min(hi[e], g))
        tight = contracted_point(mp, interior[-1], b, eps)
        yield transfer(mp, chain, {e: (1 - t) * x[e] + t * tight[e] for e in x})


class TestFacetWitnesses:
    """The proof in ``polytopes._facets``, run: each of its points is tight on one row, a different one each."""

    @pytest.mark.parametrize("seed", [20250808, 3, 7])
    def test_each_row_has_its_point(self, seed):
        for mp in corpus(seed, 60, max_unmarked=5):
            for part in all_chain_order_partitions(mp):
                h = build_chain_order_hrep(mp, part)
                tight_rows = []
                for y in facet_witnesses(mp, part.chain):
                    slack = [row.rhs - row.evaluate(y) for row in h.inequalities]
                    assert min(slack) == 0 and slack.count(0) == 1
                    tight_rows.append(slack.index(0))
                assert sorted(tight_rows) == list(range(len(h.inequalities)))


class TestOnePolytopePerCommand:
    """Each command runs the double description (DD) on each polytope at most once."""

    @pytest.fixture
    def dd_calls(self, monkeypatch):
        calls = []
        dd = geometry._double_description

        def spy(h):
            calls.append(h)
            return dd(h)

        monkeypatch.setattr(geometry, "_double_description", spy)
        return calls

    @pytest.mark.parametrize("family", ["order", "chain", "chain-order"])
    def test_two_level_both_runs_one_double_description(self, dd_calls, ladder, family):
        mp = ladder(3)
        part = ChainOrderPartition.of(mp, ["x1", "y0", "y2"])
        answer = cli_json(document(mp, part), "two-level", "--family", family, "--method", "both")
        assert answer["result"]["agree"] is True
        assert len(dd_calls) == 1

    @pytest.mark.parametrize("family", ["order", "chain", "chain-order"])
    def test_facets_of_strict_regular_input_run_none(self, dd_calls, ladder, family):
        mp = ladder(3)
        part = ChainOrderPartition.of(mp, ["x1", "y0", "y2"])
        answer = cli_json(document(mp, part), "polytope", "--family", family, "--emit", "facets")
        assert answer["result"] == cli._hrep_payload(family_hreps(mp, part)[family])
        assert dd_calls == []

    def test_facets_of_irregular_input_run_one(self, dd_calls, capsys):
        assert cli.main(["polytope", "--builtin", "figure1", "--family", "chain",
                         "--emit", "facets"]) == 0
        assert len(dd_calls) == 1

    def test_facets_of_strict_regular_input_pass_any_work_cap(self, monkeypatch, capsys):
        # a cap too small for the DD stops the vertices, not the facets
        monkeypatch.setenv("MPP_WORK_CAP", "1")
        argv = ["polytope", "--builtin", "diamond:0,2", "--family", "chain", "--emit"]
        assert cli.main(argv + ["vertices"]) == 1
        assert "exceed the work cap 1" in capsys.readouterr().err
        assert cli.main(argv + ["facets"]) == 0


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
