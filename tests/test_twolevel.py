"""2-levelness: direct test, the three criteria, and their agreement."""

import random
from fractions import Fraction

import pytest

from markedposets import (
    ChainOrderPartition,
    ChainTwoLevelResult,
    HRepresentation,
    LinearInequality,
    MarkedPoset,
    Poset,
    PreconditionViolated,
    build_chain_hrep,
    build_chain_order_hrep,
    build_order_hrep,
    chain_order_two_level_criterion,
    chain_two_level_criterion,
    enumerate_vertices,
    is_two_level_direct,
    order_two_level_criterion,
    order_vertices_combinatorial,
    validate_marked,
)
from markedposets.corpus import _draw, corpus, random_marked_poset
from markedposets.posets import _regularize, restrict_marked
from markedposets.twolevel import _chain_spans
from helpers import affine_image, all_chain_order_partitions, random_unimodular_map


def hrep2(rows):
    return HRepresentation(
        ["x", "y"], [LinearInequality({"x": ax, "y": ay}, b) for ax, ay, b in rows])


UNIT_SQUARE = [(-1, 0, 0), (0, -1, 0), (1, 0, 1), (0, 1, 1)]
SIMPLEX = [(-1, 0, 0), (0, -1, 0), (1, 1, 1)]
TRAPEZOID = [(-1, 0, 0), (1, 0, 2), (1, -1, 0), (0, 1, 2), (0, -1, -1)]


class TestDirect:
    def test_unit_square(self):
        assert is_two_level_direct(hrep2(UNIT_SQUARE)).two_level

    def test_simplex(self):
        assert is_two_level_direct(hrep2(SIMPLEX)).two_level

    def test_trapezoid_with_witness(self):
        result = is_two_level_direct(hrep2(TRAPEZOID))
        assert not result.two_level
        # both three-valued facets (x >= 0 and x <= y) share this value set;
        # the witness is the first in canonical facet order
        assert result.witness.values == (-2, -1, 0)
        assert result.witness.facet in (
            LinearInequality({"x": -1}, 0), LinearInequality({"x": 1, "y": -1}, 0))

    def test_segment_trivially_two_level(self):
        h = HRepresentation(
            ["x"], [LinearInequality({"x": -1}, 0), LinearInequality({"x": 1}, 7)])
        assert is_two_level_direct(h).two_level


class TestOrderCriterion:
    def test_diamond(self, diamond_02):
        assert order_two_level_criterion(diamond_02)

    def test_trapezoid_poset(self, trapezoid_poset):
        assert not order_two_level_criterion(trapezoid_poset)
        assert not is_two_level_direct(build_order_hrep(trapezoid_poset)).two_level

    def test_two_disjoint_diamonds(self):
        p = Poset(
            ["a", "x", "y", "b", "c", "u", "v", "d"],
            [("a", "x"), ("a", "y"), ("x", "b"), ("y", "b"),
             ("c", "u"), ("c", "v"), ("u", "d"), ("v", "d")],
        )
        mp = MarkedPoset(p, {"a": 0, "b": 2, "c": 1, "d": 4})
        assert order_two_level_criterion(mp)
        assert is_two_level_direct(build_order_hrep(mp)).two_level

    def test_pieces_coupled_through_marked_element_factor_apart(self):
        # one Hasse component, two minimal elements, yet a product of
        # segments: [3,4] x [1,4]
        p = Poset(["e0", "e1", "e2", "e3", "e4"],
                  [("e0", "e2"), ("e1", "e3"), ("e3", "e2"), ("e4", "e0")])
        mp = MarkedPoset(p, {"e1": 1, "e2": 4, "e4": 3})
        assert order_two_level_criterion(mp)
        assert is_two_level_direct(build_order_hrep(mp)).two_level

    def test_equal_boundary_marks_merge(self):
        # two legs entering from marks 2 and 2: bounds agree, still 2-level
        p = Poset(["e0", "e1", "e2", "e3", "e4", "e5"],
                  [("e0", "e3"), ("e1", "e4"), ("e3", "e2"), ("e4", "e2"), ("e2", "e5")])
        mp = MarkedPoset(p, {"e0": 2, "e1": 2, "e5": 4})
        assert order_two_level_criterion(mp)
        assert is_two_level_direct(build_order_hrep(mp)).two_level

    def test_wide_antichain(self):
        # the 900-dimensional unit cube: 900 one-element pieces between marks 0 and 1
        xs = [f"x{i:03d}" for i in range(900)]
        p = Poset(["a", "b", *xs], [("a", x) for x in xs] + [(x, "b") for x in xs])
        assert order_two_level_criterion(MarkedPoset(p, {"a": 0, "b": 1}))

    @pytest.mark.parametrize("singletons", [3, 300])
    def test_one_disagreeing_piece_among_many(self, singletons):
        # one-element pieces between marks 0 and 2, and one trapezoid piece
        # u < v entered from below by marks 0 and 1, its ids sorted among theirs
        xs = [f"x{i:03d}" for i in range(singletons)]
        u, v = f"x{singletons // 2:03d}u", f"x{singletons // 2:03d}v"
        covers = [("a", x) for x in xs] + [(x, "b") for x in xs]
        covers += [("a", u), (u, v), (v, "b")]
        marks = {"a": 0, "m": 1, "b": 2}
        agreeing = MarkedPoset(Poset(["a", "m", "b", u, v, *xs], covers), marks)
        mp = MarkedPoset(Poset(["a", "m", "b", u, v, *xs], covers + [("m", v)]), marks)
        assert order_two_level_criterion(agreeing)
        assert not order_two_level_criterion(mp)
        if singletons < 5:
            assert is_two_level_direct(build_order_hrep(agreeing)).two_level
            assert not is_two_level_direct(build_order_hrep(mp)).two_level

    def test_requires_regularity(self):
        p = Poset(["a", "m", "p", "t"], [("a", "p"), ("m", "p"), ("p", "t")])
        mp = MarkedPoset(p, {"a": 0, "m": 1, "t": 2})
        with pytest.raises(PreconditionViolated):
            order_two_level_criterion(mp)

    def test_zero_one_marks_agreement(self):
        rng = random.Random(31)
        for _ in range(10):
            mp = random_marked_poset(rng, max_unmarked=4, mark_lo=0, mark_hi=1)
            direct = is_two_level_direct(build_order_hrep(mp)).two_level
            assert order_two_level_criterion(mp) == direct


class TestChainCriterion:
    def test_spans_reject_a_facet_with_two_gaps(self):
        # the segment from (0, 0) to (1, 1): x and y take {0, 1}, and the facet
        # -x + 2y <= 1 has gaps {1, 2}; values {0, 1} match the rhs for gap 1 only
        h = hrep2([(-1, 0, 0), (0, -1, 0), (1, -1, 0), (-1, 1, 0), (-1, 2, 1)])
        assert enumerate_vertices(h).vertices == ((0, 0), (1, 1))
        assert _chain_spans(h, ["x", "y"]) is None

    def test_figure_one(self, figure_one):
        result = chain_two_level_criterion(figure_one)
        assert result.two_level
        assert result.scaling == {"x1": Fraction(1), "x2": Fraction(1)}

    def test_single_chain_scaled_simplex(self):
        p = Poset(["a", "x", "y", "b"], [("a", "x"), ("x", "y"), ("y", "b")])
        mp = MarkedPoset(p, {"a": 0, "b": 3})
        result = chain_two_level_criterion(mp)
        assert result.two_level
        assert result.scaling == {"x": Fraction(1, 3), "y": Fraction(1, 3)}

    @pytest.mark.parametrize("poset", [
        Poset(["a", "b"], [("a", "b")]),
        Poset(["a", "b", "c"], []),
    ])
    def test_no_unmarked_elements(self, poset):
        mp = MarkedPoset(poset, {e: i for i, e in enumerate(poset.elements)})
        assert chain_two_level_criterion(mp) == ChainTwoLevelResult(True, {})
        assert is_two_level_direct(build_chain_hrep(mp)).two_level

    def test_requires_strictness(self):
        mp = MarkedPoset(Poset(["a", "x", "b"], [("a", "x"), ("x", "b")]), {"a": 1, "b": 1})
        with pytest.raises(PreconditionViolated, match="requires a strict marking"):
            chain_two_level_criterion(mp)

    def test_two_chain_counterexample(self):
        p = Poset(["a", "m", "b", "x", "y"],
                  [("a", "x"), ("x", "m"), ("x", "y"), ("y", "b")])
        mp = MarkedPoset(p, {"a": 0, "m": 2, "b": 3})
        result = chain_two_level_criterion(mp)
        assert not result.two_level
        assert result.scaling is None
        h = build_chain_hrep(mp)
        direct = is_two_level_direct(h)
        assert not direct.two_level
        # the chain-sum facet x+y <= 3 takes {0, 2, 3}; the reported witness
        # is the first violating facet in canonical order (-y <= 0 here)
        assert len(direct.witness.values) == 3
        from markedposets import LinearInequality, enumerate_vertices
        from markedposets.geometry import _scaled_values
        v = enumerate_vertices(h)
        sum_values = _scaled_values(v, LinearInequality({"x": 1, "y": 1}, 3))
        assert sorted({Fraction(s, v.scale) for s in sum_values}) == [0, 2, 3]

    def test_zero_one_marked_chain_polytopes(self):
        # all marks 0/1 with one global min and max: plain chain polytope
        p = Poset(["a", "x", "y", "z", "b"],
                  [("a", "x"), ("a", "y"), ("x", "z"), ("y", "z"), ("z", "b")])
        mp = MarkedPoset(p, {"a": 0, "b": 1})
        assert chain_two_level_criterion(mp).two_level
        assert order_two_level_criterion(mp)

    def test_plain_poset_polytopes_are_two_level(self):
        # random posets with a single 0-bottom and 1-top: the classical case
        rng = random.Random(45)
        for _ in range(12):
            n = rng.randint(1, 4)
            names = [f"v{i}" for i in range(n)]
            order = names[:]
            rng.shuffle(order)
            edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            inner = Poset.from_relations(names, edges)
            covers = list(inner.covers)
            covers += [("bot", e) for e in inner.minimals()]
            covers += [(e, "top") for e in inner.maximals()]
            mp = MarkedPoset(Poset(["bot", "top"] + names, covers), {"bot": 0, "top": 1})
            assert order_two_level_criterion(mp)
            assert chain_two_level_criterion(mp).two_level
            assert is_two_level_direct(build_order_hrep(mp)).two_level
            assert is_two_level_direct(build_chain_hrep(mp)).two_level


class TestChainOrderCriterion:
    def test_all_order_column_reduces_to_order_criterion(self, trapezoid_poset, diamond_02):
        for mp in (trapezoid_poset, diamond_02):
            part = ChainOrderPartition.of(mp, ())
            assert chain_order_two_level_criterion(mp, part) == order_two_level_criterion(mp)

    def test_all_chain_column_reduces_to_chain_criterion(self, figure_one, trapezoid_poset):
        for mp in (figure_one, trapezoid_poset):
            part = ChainOrderPartition.of(mp, mp.unmarked)
            assert (chain_order_two_level_criterion(mp, part)
                    == chain_two_level_criterion(mp).two_level)

    def test_requires_strictness(self):
        mp = MarkedPoset(Poset(["a", "x", "b"], [("a", "x"), ("x", "b")]), {"a": 1, "b": 1})
        part = ChainOrderPartition(frozenset({"x"}), frozenset())
        with pytest.raises(PreconditionViolated, match="requires a strict marking"):
            chain_order_two_level_criterion(mp, part)

    def test_triangle_example_agrees_with_direct(self):
        p = Poset(["a", "c", "p", "b"], [("a", "c"), ("c", "p"), ("p", "b")])
        mp = MarkedPoset(p, {"a": 0, "b": 2})
        part = ChainOrderPartition.of(mp, ["c"])
        direct = is_two_level_direct(build_chain_order_hrep(mp, part)).two_level
        assert direct
        assert chain_order_two_level_criterion(mp, part) == direct

    def test_agreement_over_all_partitions(self):
        rng = random.Random(41)
        for _ in range(30):
            mp = random_marked_poset(rng, max_unmarked=4)
            for part in all_chain_order_partitions(mp):
                direct = is_two_level_direct(build_chain_order_hrep(mp, part)).two_level
                assert chain_order_two_level_criterion(mp, part) == direct

    def test_agreement_on_strict_irregular_inputs(self):
        # the criterion asks only for strictness; no other test gives it an
        # irregular input with a non-empty order part
        rng = random.Random(11)
        irregular = 0
        for _ in range(400):
            mp = _draw(rng, 4, 0, 4, 1)
            if mp is None:
                continue
            report = validate_marked(mp)
            if not report.strict or report.regular:
                continue
            irregular += 1
            for part in all_chain_order_partitions(mp):
                direct = is_two_level_direct(build_chain_order_hrep(mp, part)).two_level
                assert chain_order_two_level_criterion(mp, part) == direct
        assert irregular >= 100


def is_strict_regular(mp):
    report = validate_marked(mp)
    return report.strict and report.regular


def regularized(mp):
    """``_regularize(mp)``, checked strict regular with the same order-polytope vertices."""
    regular = _regularize(mp)
    assert is_strict_regular(regular)
    assert enumerate_vertices(build_order_hrep(regular)) == enumerate_vertices(build_order_hrep(mp))
    return regular


class TestRegularize:
    def test_marked_covers_are_dropped(self):
        p = Poset(["a", "m", "t", "x"], [("a", "m"), ("a", "x"), ("m", "t"), ("x", "t")])
        mp = MarkedPoset(p, {"a": 0, "m": 1, "t": 2})
        assert sorted(regularized(mp).poset.covers) == [("a", "x"), ("x", "t")]

    def test_violating_cover_is_dropped(self):
        # e1(1) < e2 next to e4(2) < e2: x_e2 >= 1 follows from x_e2 >= 2
        p = Poset(["e1", "e2", "e3", "e4"], [("e1", "e2"), ("e2", "e3"), ("e4", "e2")])
        mp = MarkedPoset(p, {"e1": 1, "e3": 3, "e4": 2})
        assert not is_strict_regular(mp)
        assert sorted(regularized(mp).poset.covers) == [("e2", "e3"), ("e4", "e2")]

    def test_irregular_restrictions_of_seeded_corpora(self):
        cut = 0
        for seed in (20250808, 3, 7):
            for mp in corpus(seed, 200, max_unmarked=5):
                for part in all_chain_order_partitions(mp):
                    restricted = restrict_marked(mp, part.order | mp.marked)
                    if not is_strict_regular(restricted):
                        cut += 1
                        regularized(restricted)
        assert cut == 1759


class TestAgreementSuites:
    def test_order_criterion_matches_direct(self):
        rng = random.Random(42)
        for trial in range(60):
            mp = random_marked_poset(rng, max_unmarked=6,
                                     min_unmarked=6 if trial < 10 else 1)
            direct = is_two_level_direct(build_order_hrep(mp)).two_level
            assert order_two_level_criterion(mp) == direct

    def test_chain_criterion_matches_direct(self):
        rng = random.Random(43)
        for trial in range(60):
            mp = random_marked_poset(rng, max_unmarked=6,
                                     min_unmarked=6 if trial < 10 else 1)
            direct = is_two_level_direct(build_chain_hrep(mp)).two_level
            assert chain_two_level_criterion(mp).two_level == direct

    def test_chain_criterion_on_strict_irregular_inputs(self, figure_one):
        # regularity is not required on the chain side; the crossing-chains
        # poset is strict but irregular and must still be decided correctly
        assert chain_two_level_criterion(figure_one).two_level
        assert is_two_level_direct(build_chain_hrep(figure_one)).two_level


class TestReach:
    def test_ladder_seven(self, ladder):
        # dimension 14 from 21 order rows: C(21, 14) = 116,280 row subsets for 36 vertices
        mp = ladder(7)
        order, chain = build_order_hrep(mp), build_chain_hrep(mp)
        assert enumerate_vertices(order) == order_vertices_combinatorial(mp)
        assert len(enumerate_vertices(order)) == len(enumerate_vertices(chain)) == 36
        # both families are 2-level here, and the criteria say so
        assert order_two_level_criterion(mp) and is_two_level_direct(order).two_level
        assert chain_two_level_criterion(mp).two_level and is_two_level_direct(chain).two_level


class TestAffineInvariance:
    def test_direct_verdict_invariant_under_rational_maps(self):
        h = hrep2(TRAPEZOID)
        base = is_two_level_direct(h).two_level
        image = affine_image(h, [[Fraction(1, 2), 1], [0, 3]], [Fraction(5, 7), -1])
        assert is_two_level_direct(image).two_level == base

    def test_direct_verdict_invariant_under_unimodular_maps(self):
        rng = random.Random(44)
        for rows in (UNIT_SQUARE, SIMPLEX, TRAPEZOID):
            h = hrep2(rows)
            base = is_two_level_direct(h).two_level
            for _ in range(4):
                matrix, shift = random_unimodular_map(rng, 2)
                assert is_two_level_direct(affine_image(h, matrix, shift)).two_level == base
