"""Ehrhart polynomials: the counting oracle, the extension formula, the family."""

import contextlib
import io
import json
import math
import random
import re
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markedposets.ehrhart as ehrhart_module
from markedposets import (
    ChainOrderPartition,
    ExtensionExplosion,
    HRepresentation,
    LinearInequality,
    MarkedPoset,
    NonIntegralVertices,
    Poset,
    PreconditionViolated,
    build_chain_hrep,
    build_chain_order_hrep,
    build_order_hrep,
    count_lattice_points,
    count_restricted_extensions,
    ehrhart_by_counting,
    ehrhart_formula_marked_order,
    linear_extensions,
    pm_closed_form,
    pm_family,
    polynomial,
    restricted_linear_extensions,
    validate_marked,
)
from markedposets.cli import main
from markedposets.corpus import corpus, random_marked_poset
from markedposets.ehrhart import _power, _segment_factor, _signature_sum
from markedposets.errors import VerificationFailed
from markedposets.geometry import _convolve, _count_points, enumerate_vertices
from markedposets.posets import _pieces
from helpers import all_chain_order_partitions, augment_marked_order, reference_linear_extensions, ungrouped_formula
from test_geometry import fraction_lagrange

ORACLE_SEEDS = (20250808, 3, 7)


def random_natural_labeling(rng, poset):
    indeg = {e: len(poset.lower_covers(e)) for e in poset.elements}
    avail = [e for e in poset.elements if indeg[e] == 0]
    labeling = {}
    i = 1
    while avail:
        e = avail.pop(rng.randrange(len(avail)))
        labeling[e] = i
        i += 1
        for q in poset.upper_covers(e):
            indeg[q] -= 1
            if indeg[q] == 0:
                avail.append(q)
    return labeling


def fraction_segment_factor(delta, descents, k):
    """C(n*delta - descents + k, k): its k linear factors multiplied in Fractions, over k!."""
    result = polynomial([1])
    for j in range(k):
        result = result * polynomial([k - descents - j, delta])
    return result * Fraction(1, math.factorial(k))


def per_word_formula(mp, labeling=None):
    """The extension formula summed word by word, each word's product expanded anew."""
    total = polynomial([])
    for ext in restricted_linear_extensions(mp, labeling):
        marked_at = [i for i, e in enumerate(ext.word) if e in mp.marked]
        term = polynomial([1])
        for s, t in zip(marked_at, marked_at[1:]):
            delta = mp.value(ext.word[t]) - mp.value(ext.word[s])
            term = term * fraction_segment_factor(delta, ext.segment_descents(s, t), t - s - 1)
        total = total + term
    return total


def word_signatures(mp, labeling=None):
    """The words of the restricted stream counted per sorted tuple of (mark gap, descents, length)."""
    signatures = Counter()
    for ext in restricted_linear_extensions(mp, labeling):
        marked_at = [i for i, e in enumerate(ext.word) if e in mp.marked]
        signatures[tuple(sorted(
            (int(mp.value(ext.word[t]) - mp.value(ext.word[s])), ext.segment_descents(s, t), t - s - 1)
            for s, t in zip(marked_at, marked_at[1:])))] += 1
    return signatures


def fraction_signature_sum(signatures):
    """Each signature's segment factors multiplied in Fraction polynomials, scaled by its words, summed."""
    total = polynomial([])
    for signature, words in signatures.items():
        term = polynomial([words])
        for triple in signature:
            term = term * fraction_segment_factor(*triple)
        total = total + term
    return total


def cube(k):
    """k unmarked elements in an antichain between marks 0 and 1: the unit k-cube."""
    xs = [f"x{i}" for i in range(k)]
    covers = [("bot", x) for x in xs] + [(x, "top") for x in xs]
    return MarkedPoset(Poset(["bot", *xs, "top"], covers), {"bot": 0, "top": 1})


def chain_poset(k):
    """k unmarked elements in a chain between marks 0 and 1: a unimodular k-simplex."""
    xs = [f"x{i:02d}" for i in range(k)]
    elements = ["bot", *xs, "top"]
    return MarkedPoset(Poset(elements, list(zip(elements, elements[1:]))), {"bot": 0, "top": 1})


def closed_dilation_route(h):
    """The counting route without reciprocity: closed counts at dilations 0..dim,
    Fraction Lagrange, and the probe at dim + 1."""
    dim = enumerate_vertices(h).dimension
    poly = fraction_lagrange([(n, count_lattice_points(h, n)) for n in range(dim + 1)])
    if poly.evaluate(dim + 1) != count_lattice_points(h, dim + 1):
        raise VerificationFailed(f"interpolated polynomial disagrees with the count at dilation {dim + 1}")
    return poly


def corpus_hreps(seed):
    """The order, chain and every chain-order H-rep of ``corpus(seed, 200, max_unmarked=5)``."""
    for mp in corpus(seed, 200, max_unmarked=5):
        yield build_order_hrep(mp)
        yield build_chain_hrep(mp)
        for part in all_chain_order_partitions(mp):
            yield build_chain_order_hrep(mp, part)


# wrong interior counts, each given the true count function and the dilation
INTERIOR_FAULTS = {
    "dropped point": lambda count, h, m: max(count(h, m, 1) - 1, 0),
    "no shrink": lambda count, h, m: count(h, m, 0),
    "shrink of 2": lambda count, h, m: count(h, m, 2),
    "sign (-1)^(dim+1)": lambda count, h, m: -count(h, m, 1),
}


def ehrhart_json(doc):
    """``mpp ehrhart <doc> --family order --method formula --json``: exit code and stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poset.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["ehrhart", str(path), "--family", "order", "--method", "formula", "--json"])
    return code, out.getvalue()


class TestCounting:
    def test_segment(self, segment):
        assert ehrhart_by_counting(build_order_hrep(segment)) == polynomial([1, 1])

    def test_dilated_square(self, diamond_02):
        # order polytope [0,2]^2 counts (2n+1)^2
        assert ehrhart_by_counting(build_order_hrep(diamond_02)) == polynomial([1, 4, 4])

    def test_figure_one_chain_polytope_is_unit_square(self, figure_one):
        assert ehrhart_by_counting(build_chain_hrep(figure_one)) == polynomial([1, 2, 1])

    def test_non_integral_vertices_refused(self):
        h = HRepresentation(
            ["x"], [LinearInequality({"x": -1}, 0), LinearInequality({"x": 2}, 1)])
        with pytest.raises(NonIntegralVertices,
                           match=re.escape("vertex (Fraction(1, 2),) is not integral")):
            ehrhart_by_counting(h)

    def test_non_integral_message_names_the_first_vertex(self):
        # vertices (0, 0) < (0, 1/3) < (1/2, 0): two are not integral, the first is named
        h = HRepresentation(["x", "y"], [LinearInequality({"x": -1}, 0), LinearInequality({"y": -1}, 0),
                                         LinearInequality({"x": 2, "y": 3}, 1)])
        with pytest.raises(NonIntegralVertices,
                           match=re.escape("vertex (Fraction(0, 1), Fraction(1, 3)) is not integral")):
            ehrhart_by_counting(h)

    def test_rows_tight_on_a_thin_polytope(self):
        # the unit cube in x, y, z at w = 0: an equality with a tight row beside it,
        # or an inequality pair; its interior count at m = 2 is the first nonzero one
        coords = ["x", "y", "z", "w"]
        box = [LinearInequality({c: s}, max(s, 0)) for c in coords[:3] for s in (-1, 1)]
        w_upper, w_lower = LinearInequality({"w": 1}, 0), LinearInequality({"w": -1}, 0)
        for h in (HRepresentation(coords, [*box, w_upper], [w_upper]),
                  HRepresentation(coords, [*box, w_upper, w_lower])):
            assert ehrhart_by_counting(h) == polynomial([1, 1]) ** 3


class TestReciprocityRoute:
    """Interior counts at -ceil(dim/2)..-1 against the closed-dilation route and faults."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_matches_closed_dilation_route(self, seed):
        for h in corpus_hreps(seed):
            assert ehrhart_by_counting(h) == closed_dilation_route(h)

    @pytest.mark.parametrize("fault", sorted(INTERIOR_FAULTS))
    def test_probe_catches_interior_count_fault(self, monkeypatch, fault):
        monkeypatch.setattr(ehrhart_module, "_count_points",
                            lambda h, m, shrink: INTERIOR_FAULTS[fault](_count_points, h, m))
        caught = 0
        for mp in corpus(ORACLE_SEEDS[0], 40, max_unmarked=5):
            try:
                ehrhart_by_counting(build_order_hrep(mp))
            except VerificationFailed:
                caught += 1
        assert caught

    def test_counts_no_dilation_above_half_the_dimension(self, monkeypatch):
        calls = []

        def closed(h, n):
            calls.append(("closed", n))
            return count_lattice_points(h, n)

        def interior(h, m, shrink):
            calls.append(("interior", m, shrink))
            return _count_points(h, m, shrink)

        monkeypatch.setattr(ehrhart_module, "count_lattice_points", closed)
        monkeypatch.setattr(ehrhart_module, "_count_points", interior)
        marked = [*corpus(ORACLE_SEEDS[1], 30, max_unmarked=5), cube(5), chain_poset(6)]
        for h in [build_order_hrep(mp) for mp in marked] + [build_chain_hrep(mp) for mp in marked]:
            calls.clear()
            dim = enumerate_vertices(h).dimension
            ehrhart_by_counting(h)
            assert sorted(calls) == sorted(
                [("closed", n) for n in range(dim // 2 + 2)]
                + [("interior", m, 1) for m in range(1, (dim + 1) // 2 + 1)])


class TestCountingReach:
    """Sizes the closed-dilation route took seconds to minutes on (its probe at dim + 1)."""

    def test_chain_of_twelve_is_a_binomial(self):
        assert ehrhart_by_counting(build_order_hrep(chain_poset(12))) == fraction_segment_factor(1, 0, 12)

    def test_cube_of_dimension_eight(self):
        assert ehrhart_by_counting(build_order_hrep(cube(8))) == polynomial([1, 1]) ** 8

    def test_ladder_of_four_rungs_matches_formula(self, ladder):
        mp = ladder(4)
        assert ehrhart_by_counting(build_order_hrep(mp)) == ehrhart_formula_marked_order(mp)


def two_chains():
    """a < x < b and c < y < d, marked 0, 2 and 1, 3: strict regular, a and c incomparable."""
    return MarkedPoset(Poset(["a", "x", "b", "c", "y", "d"],
                             [("a", "x"), ("x", "b"), ("c", "y"), ("y", "d")]),
                       {"a": 0, "b": 2, "c": 1, "d": 3})


# natural on two_chains(), not on its tie-break poset
TWO_CHAINS_LABELING = {"c": 1, "y": 2, "d": 3, "a": 4, "x": 5, "b": 6}


class TestFormula:
    def test_segment(self, segment):
        assert ehrhart_formula_marked_order(segment) == polynomial([1, 1])

    def test_pm3_is_cube_count(self):
        assert ehrhart_formula_marked_order(pm_family(3, 1)) == polynomial([1, 3, 3, 1])

    def test_diamond_descent_split(self, diamond_02):
        # two extensions: C(2n+2, 2) + C(2n+1, 2) = (2n+1)^2
        assert ehrhart_formula_marked_order(diamond_02) == polynomial([1, 4, 4])
        assert ehrhart_formula_marked_order(diamond_02) == ehrhart_by_counting(
            build_order_hrep(diamond_02))

    def test_extension_cap_counts_words(self, monkeypatch):
        # pm(4, 1) streams exactly 4 restricted extensions
        mp = pm_family(4, 1)
        monkeypatch.setenv("MPP_WORK_CAP", "4")
        assert ehrhart_formula_marked_order(mp) == pm_closed_form(4, 1)
        monkeypatch.setenv("MPP_WORK_CAP", "3")
        with pytest.raises(ExtensionExplosion, match="more than 3 restricted linear extensions"
                                                     "; set MPP_WORK_CAP to raise it"):
            ehrhart_formula_marked_order(mp)

    def test_requires_strict_regular(self):
        p = Poset(["a", "b"], [("a", "b")])
        with pytest.raises(PreconditionViolated):
            ehrhart_formula_marked_order(MarkedPoset(p, {"a": 0, "b": 0}))

    def test_requires_integral_marking(self, segment):
        mp = MarkedPoset(segment.poset, {"a": 0, "b": Fraction(3, 2)})
        with pytest.raises(PreconditionViolated):
            ehrhart_formula_marked_order(mp)

    def test_equal_marks_on_incomparable_marked_elements(self):
        p = Poset(["a", "b", "t", "x", "y"],
                  [("a", "x"), ("b", "y"), ("x", "t"), ("y", "t")])
        mp = MarkedPoset(p, {"a": 0, "b": 0, "t": 2})
        formula = ehrhart_formula_marked_order(mp)
        assert formula == ehrhart_by_counting(build_order_hrep(mp))

    def test_matches_counting_on_corpus(self):
        rng = random.Random(51)
        for trial in range(40):
            mp = random_marked_poset(rng, max_unmarked=6,
                                     min_unmarked=6 if trial < 6 else 1)
            assert ehrhart_formula_marked_order(mp) == ehrhart_by_counting(
                build_order_hrep(mp))

    def test_labeling_independence(self):
        rng = random.Random(52)
        for _ in range(12):
            mp = random_marked_poset(rng, max_unmarked=5)
            base = ehrhart_formula_marked_order(mp)
            augmented = augment_marked_order(mp)
            for _ in range(3):
                labeling = random_natural_labeling(rng, augmented)
                assert ehrhart_formula_marked_order(mp, labeling=labeling) == base

    def test_labeling_missing_key_rejected(self):
        mp = pm_family(3, 1)
        labeling = random_natural_labeling(random.Random(54), augment_marked_order(mp))
        del labeling[mp.unmarked[0]]
        with pytest.raises(ValueError, match="bijection"):
            ehrhart_formula_marked_order(mp, labeling=labeling)

    @pytest.mark.parametrize("labeling", [
        # without a marked element, which the tie-break sort reads
        {e: n for e, n in TWO_CHAINS_LABELING.items() if e != "a"},
        # with an id the poset does not have
        {**{e: n for e, n in TWO_CHAINS_LABELING.items() if e != "x"}, "q": 5},
        # with two elements labelled 2
        {**TWO_CHAINS_LABELING, "c": 2},
    ])
    def test_labeling_not_a_bijection_rejected(self, labeling):
        # the check on mp runs before the tie-break sort, so no KeyError escapes it
        for run in (ehrhart_formula_marked_order, restricted_linear_extensions):
            with pytest.raises(ValueError, match="^labeling is not a bijection onto 1..n$"):
                run(two_chains(), labeling=labeling)

    def test_labeling_natural_on_mp_only_rejected(self):
        # a < c in the tie-break poset (marks 0 < 1), but c is labelled before a
        mp = two_chains()
        assert validate_marked(mp).strict and validate_marked(mp).regular
        message = re.escape("labeling is not order-preserving on cover ('a', 'c')")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ehrhart_formula_marked_order(mp, labeling=TWO_CHAINS_LABELING)
        with pytest.raises(ValueError, match=f"^{message}$"):
            next(restricted_linear_extensions(mp, TWO_CHAINS_LABELING))
        assert str(ehrhart_formula_marked_order(mp)) == "1, 4, 4"

    def test_degree_and_constant_term(self):
        rng = random.Random(53)
        for _ in range(15):
            mp = random_marked_poset(rng, max_unmarked=4)
            poly = ehrhart_formula_marked_order(mp)
            assert poly.coefficients[0] == 1
            from markedposets import enumerate_vertices
            dim = enumerate_vertices(build_order_hrep(mp)).dimension
            assert poly.degree == dim


@st.composite
def signature_counters(draw):
    """Word counts per signature: up to 5 (gap, descents, length) triples, any k = 0, d = k or gap > 1."""
    def triple(gap_and_length):
        gap, k = gap_and_length
        return st.tuples(st.just(gap), st.integers(0, k), st.just(k))

    triples = st.tuples(st.integers(0, 4), st.integers(0, 6)).flatmap(triple)
    signatures = st.lists(triples, max_size=5).map(lambda t: tuple(sorted(t)))
    return Counter(draw(st.dictionaries(signatures, st.integers(1, 50), max_size=6)))


class TestSignatureGrouping:
    """The grouped formula against the per-word sum and known closed forms."""

    def test_matches_per_word_sum_on_corpora(self):
        for seed in ORACLE_SEEDS:
            for mp in corpus(seed, 150, max_unmarked=7):
                assert ehrhart_formula_marked_order(mp) == per_word_formula(mp)

    def test_matches_per_word_sum_under_random_labelings(self):
        rng = random.Random(56)
        for seed in ORACLE_SEEDS:
            for mp in corpus(seed, 150, max_unmarked=7)[:10]:
                augmented = augment_marked_order(mp)
                for _ in range(3):
                    labeling = random_natural_labeling(rng, augmented)
                    assert (ehrhart_formula_marked_order(mp, labeling=labeling)
                            == per_word_formula(mp, labeling))

    def test_cube_is_binomial_power(self):
        for k in range(1, 8):
            assert ehrhart_formula_marked_order(cube(k)) == polynomial([1, 1]) ** k

    def test_segment_factor_grid(self):
        for delta in range(4):
            for k in range(8):
                for descents in range(k + 1):
                    assert (polynomial(_segment_factor(delta, descents, k)) * Fraction(1, math.factorial(k))
                            == fraction_segment_factor(delta, descents, k))

    def test_segment_factor_guards(self):
        with pytest.raises(VerificationFailed, match="descent between adjacent marked elements"):
            _segment_factor(1, 1, 0)
        with pytest.raises(VerificationFailed, match="segment descent count exceeds its length"):
            _segment_factor(1, 3, 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), data=st.data())
    def test_relabelling_and_cover_order_are_invisible(self, seed, data):
        mp = random_marked_poset(random.Random(seed), max_unmarked=6)
        elements = list(mp.poset.elements)
        rename = dict(zip(elements, data.draw(st.permutations([f"v{i}" for i in range(len(elements))]))))
        covers = data.draw(st.permutations(sorted(mp.poset.covers)))
        relabelled = MarkedPoset(Poset([rename[e] for e in elements],
                                       [(rename[p], rename[q]) for p, q in covers]),
                                 {rename[a]: v for a, v in mp.marking.items()})
        assert ehrhart_formula_marked_order(relabelled) == ehrhart_formula_marked_order(mp)
        original, renamed = (ehrhart_json({
            "name": "poset", "elements": list(m.poset.elements),
            "covers": [list(c) for c in m.poset.covers],
            "marked": {a: int(v) for a, v in m.marking.items()}}) for m in (mp, relabelled))
        assert original[0] == 0 and renamed == original


class TestIntegerAssembly:
    """The integer signature sum over u! against the Fraction assembly per signature."""

    def test_pm_family(self):
        for m in range(3, 41):
            for c in (1, 2):
                mp = pm_family(m, c)
                assert ehrhart_formula_marked_order(mp) == fraction_signature_sum(word_signatures(mp))

    def test_cube(self):
        for mp in map(cube, range(1, 9)):
            assert ehrhart_formula_marked_order(mp) == fraction_signature_sum(word_signatures(mp))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_seeded_corpus(self, seed):
        rng = random.Random(seed)
        for mp in corpus(seed, 200, max_unmarked=7):
            labeling = random_natural_labeling(rng, augment_marked_order(mp))
            for lab in (None, labeling):
                assert (ehrhart_formula_marked_order(mp, labeling=lab)
                        == fraction_signature_sum(word_signatures(mp, lab)))

    @settings(max_examples=150, deadline=None)
    @given(signatures=signature_counters(), slack=st.integers(0, 2))
    @example(signatures=Counter({((0, 0, 0), (2, 3, 3), (3, 1, 2)): 4, ((1, 0, 5),): 2}), slack=0)
    def test_random_signatures(self, signatures, slack):
        unmarked = max((sum(k for _, _, k in sig) for sig in signatures), default=0) + slack
        assert _signature_sum([(signatures, unmarked, 1)]) == fraction_signature_sum(signatures)
        if has_constant_term(signatures):
            assert _signature_sum([(signatures, unmarked, 3)]) == fraction_signature_sum(signatures) ** 3


def has_constant_term(signatures):
    """Whether the signature sum has a nonzero constant term: some signature has no descent
    (a segment with d descents has the constant term 0 when d > 0, and k! when d = 0)."""
    return any(all(d == 0 for _, d, _ in signature) for signature in signatures)


def piece_marked_poset(mp, piece, covers):
    """The marked poset of one piece: the piece, its adjacent marks and the covers that touch it."""
    marks = {a: mp.value(a) for cover in covers for a in cover if a in mp.marked}
    return MarkedPoset(Poset([*piece, *marks], covers), marks)


# multi-piece instances measured in corpus(seed, size, max_unmarked=7), pinned as floors
MULTI_PIECE_FLOORS = {(150, 20250808): 26, (150, 3): 35, (150, 7): 31,
                      (200, 20250808): 36, (200, 3): 43, (200, 7): 42}


class TestPieceProduct:
    """The formula as a product over the pieces of the marked order polytope."""

    @pytest.mark.parametrize("size, seed", sorted(MULTI_PIECE_FLOORS))
    def test_corpus_pieces_are_the_factors(self, size, seed):
        # the corpora of TestSignatureGrouping (150) and TestIntegerAssembly (200)
        multi = [mp for mp in corpus(seed, size, max_unmarked=7) if len(_pieces(mp)) > 1]
        assert len(multi) >= MULTI_PIECE_FLOORS[size, seed]
        for mp in multi:
            rows = Counter(build_order_hrep(mp).inequalities)
            assert not build_order_hrep(mp).equalities
            factor_rows = Counter()
            for piece, covers, lower, upper in _pieces(mp):
                factor = piece_marked_poset(mp, piece, covers)
                assert factor.marking == {**lower, **upper}
                report = validate_marked(factor)
                assert report.strict and report.regular
                h = build_order_hrep(factor)
                assert not h.equalities and set(h.coordinates) == set(piece)
                assert Counter(h.inequalities) == Counter(
                    {row: n for row, n in rows.items() if row.coeffs.keys() <= set(piece)})
                factor_rows += Counter(h.inequalities)
            assert factor_rows == rows

    @pytest.mark.parametrize("k", [10, 20])
    def test_cube_past_the_shuffle_wall(self, k):
        assert ehrhart_formula_marked_order(cube(k)) == polynomial([1, 1]) ** k

    def test_cap_sums_the_pieces(self, monkeypatch):
        # twelve pairwise non-isomorphic pieces stream one word each
        mp = distinct_singletons(12)
        monkeypatch.setenv("MPP_WORK_CAP", "12")
        assert ehrhart_formula_marked_order(mp) == math.prod((polynomial([1, i]) for i in range(1, 13)),
                                                             start=polynomial([1]))
        monkeypatch.setenv("MPP_WORK_CAP", "11")
        with pytest.raises(ExtensionExplosion, match="^more than 11 restricted linear extensions"
                                                     "; set MPP_WORK_CAP to raise it$"):
            ehrhart_formula_marked_order(mp)
        # the 12-cube's pieces are isomorphic, so it streams one word
        monkeypatch.setenv("MPP_WORK_CAP", "1")
        assert ehrhart_formula_marked_order(cube(12)) == polynomial([1, 1]) ** 12

    def test_mark_off_every_piece_is_not_streamed(self, monkeypatch):
        # b sits between a and c in the whole tie-break chain, so x shuffles
        # against it there; x's piece, bounded by a and c, streams one word
        mp = MarkedPoset(Poset(["a", "b", "c", "x"], [("a", "x"), ("x", "c")]), {"a": 0, "b": 1, "c": 2})
        assert len(_pieces(mp)) == 1 and count_restricted_extensions(mp) == 2
        assert ehrhart_by_counting(build_order_hrep(mp)) == polynomial([1, 2])
        monkeypatch.setenv("MPP_WORK_CAP", "1")
        assert ehrhart_formula_marked_order(mp) == polynomial([1, 2])

    def test_mark_on_both_sides_of_a_piece_is_streamed_once(self, monkeypatch):
        # x1 < a2 < x3: a2 is a lower and an upper mark of the one piece
        mp = pm_family(3, 1)
        [(piece, _, lower, upper)] = _pieces(mp)
        assert piece == ("x1", "x2", "x3") and lower.keys() & upper.keys() == {"a2"}
        streamed = []

        def recording(poset, labeling=None):
            streamed.append(poset.elements)
            return linear_extensions(poset, labeling)

        monkeypatch.setattr(ehrhart_module, "linear_extensions", recording)
        assert ehrhart_formula_marked_order(mp) == pm_closed_form(3, 1)
        assert streamed == [("x1", "x2", "x3", "a1", "a2", "a3")]
        # the seeded corpora hold 7 such pieces; each streams its piece and its marks, each once
        both_sides = 0
        for seed in ORACLE_SEEDS:
            for mp in corpus(seed, 200, max_unmarked=7):
                pieces = _pieces(mp)
                doubled = sum(bool(lower.keys() & upper.keys()) for _, _, lower, upper in pieces)
                if doubled:
                    both_sides += doubled
                    streamed.clear()
                    assert ehrhart_formula_marked_order(mp) == ehrhart_by_counting(build_order_hrep(mp))
                    assert streamed == [(*piece, *{**lower, **upper}) for piece, _, lower, upper in pieces]
        assert both_sides == 7

    def test_labeled_equals_unlabeled_on_many_pieces(self):
        rng = random.Random(57)
        corpus_multi = [mp for mp in corpus(ORACLE_SEEDS[0], 150, max_unmarked=7) if len(_pieces(mp)) > 1]
        for mp in [cube(4), cube(6), pm_family(5, 1), pm_family(7, 2), *corpus_multi[:12]]:
            assert len(_pieces(mp)) > 1
            base = ehrhart_formula_marked_order(mp)
            for _ in range(3):
                labeling = random_natural_labeling(rng, augment_marked_order(mp))
                assert ehrhart_formula_marked_order(mp, labeling=labeling) == base

    @settings(max_examples=60, deadline=None)
    @given(first=signature_counters(), second=signature_counters())
    def test_signature_sum_multiplies_factors(self, first, second):
        def unmarked(signatures):
            return max((sum(k for _, _, k in sig) for sig in signatures), default=0)

        assert (_signature_sum([(first, unmarked(first), 1), (second, unmarked(second), 1)])
                == fraction_signature_sum(first) * fraction_signature_sum(second))
        if has_constant_term(second):
            assert (_signature_sum([(first, unmarked(first), 1), (second, unmarked(second), 2)])
                    == fraction_signature_sum(first) * fraction_signature_sum(second) ** 2)


def distinct_singletons(k):
    """x_i between its own marks b_i (0) and t_i (i), i = 1..k: k pieces, no two isomorphic.
    The i-th is the segment [0, i], so the polynomial is the product of the n*i + 1."""
    elements = [e for i in range(1, k + 1) for e in (f"b{i:02d}", f"x{i:02d}", f"t{i:02d}")]
    covers = [c for i in range(1, k + 1) for c in ((f"b{i:02d}", f"x{i:02d}"), (f"x{i:02d}", f"t{i:02d}"))]
    return MarkedPoset(Poset(elements, covers), {**{f"b{i:02d}": 0 for i in range(1, k + 1)},
                                                 **{f"t{i:02d}": i for i in range(1, k + 1)}})


def near_miss(covers, marks):
    """The marked poset on ``covers`` with ``marks``: two pieces whose keys differ in one part."""
    elements = sorted({e for cover in covers for e in cover})
    return MarkedPoset(Poset(elements, covers), marks)


NEAR_MISSES = {
    # x and y, each between b and its own top: one shape, mark gaps 1 and 2
    "same covers, other gaps": near_miss(
        [("b", "x"), ("x", "t1"), ("b", "y"), ("y", "t2")], {"b": 0, "t1": 1, "t2": 2}),
    # a 3-chain and a V between lo and hi: one gap, two shapes on five elements
    "same gaps, other shape": near_miss(
        [("lo", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "hi"),
         ("lo", "b1"), ("b1", "b2"), ("b1", "b3"), ("b2", "hi"), ("b3", "hi")], {"lo": 0, "hi": 1}),
    # x < y, x < z < w above lo: the short branch ends at mark 1 and the long one at 2, or the other way
    "a mark on the other end": near_miss(
        [(f"{p}{s}", f"{p}{t}") for p in "ab" for s, t in (("x", "y"), ("x", "z"), ("z", "w"))]
        + [("lo", "ax"), ("ay", "ahy"), ("aw", "ahw"), ("lo", "bx"), ("by", "bhy"), ("bw", "bhw")],
        {"lo": 0, "ahy": 1, "ahw": 2, "bhy": 2, "bhw": 1}),
}

# instances of corpus(seed, 200, max_unmarked=6) with two isomorphic pieces, pinned as floors
GROUPED_FLOORS = {20250808: 13, 3: 15, 7: 14}


@pytest.fixture
def streamed(monkeypatch):
    """The element tuples of the posets that ``ehrhart.linear_extensions`` streams, in call order."""
    posets = []

    def recording(poset, labeling=None):
        posets.append(poset.elements)
        return linear_extensions(poset, labeling)

    monkeypatch.setattr(ehrhart_module, "linear_extensions", recording)
    return posets


class TestDistinctPieces:
    """One stream per distinct piece, its factor raised to the piece's multiplicity, against the
    ungrouped product that streams every piece."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_seeded_corpus(self, seed, streamed):
        grouped = 0
        for mp in corpus(seed, 200, max_unmarked=6):
            streamed.clear()
            formula = ehrhart_formula_marked_order(mp)
            grouped += len(streamed) < len(_pieces(mp))
            assert formula == ungrouped_formula(mp)
        assert grouped >= GROUPED_FLOORS[seed]

    def test_pm_family(self):
        for m in range(3, 61):
            for c in (1, 2, 3):
                mp = pm_family(m, c)
                assert ehrhart_formula_marked_order(mp) == ungrouped_formula(mp) == pm_closed_form(m, c)

    def test_labeled_multi_piece(self):
        rng = random.Random(58)
        multi = [mp for mp in corpus(ORACLE_SEEDS[1], 200, max_unmarked=6) if len(_pieces(mp)) > 1][:10]
        for mp in [cube(5), pm_family(9, 2), NEAR_MISSES["a mark on the other end"], *multi]:
            base = ehrhart_formula_marked_order(mp)
            for _ in range(3):
                labeling = random_natural_labeling(rng, augment_marked_order(mp))
                assert ehrhart_formula_marked_order(mp, labeling=labeling) == ungrouped_formula(mp, labeling) == base

    def test_pm_streams_two_pieces(self, monkeypatch, streamed):
        # the piece {x1, x2, x40} streams 3 words; x3..x39, each between two marks 1 apart, are one
        # piece shifted by its marks, streamed once as the first of them by least id
        monkeypatch.setenv("MPP_WORK_CAP", "4")
        assert ehrhart_formula_marked_order(pm_family(40, 1)) == pm_closed_form(40, 1)
        assert streamed == [("x1", "x2", "x40", "a1", "a39", "a2", "a40"), ("x10", "a9", "a10")]

    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_near_misses_stream_both_pieces(self, name, streamed):
        mp = NEAR_MISSES[name]
        assert len(_pieces(mp)) == 2
        assert ehrhart_formula_marked_order(mp) == ehrhart_by_counting(build_order_hrep(mp))
        assert len(streamed) == 2

    @settings(max_examples=100, deadline=None)
    @given(constant=st.integers(-20, 20).filter(bool), rest=st.lists(st.integers(-20, 20), max_size=5),
           exponent=st.integers(2, 9))
    def test_power_is_repeated_convolution(self, constant, rest, exponent):
        coefficients = [constant, *rest]
        expected = coefficients
        for _ in range(exponent - 1):
            expected = _convolve(expected, coefficients)
        assert _power(coefficients, exponent) == expected


class TestReferenceWalk:
    """The bitmask walk of ``linear_extensions`` against the sorted-level walk it replaced
    (``helpers.reference_linear_extensions``), on every tie-break poset that
    ``_tie_break_extensions`` builds for the formula and the whole restricted stream: the same
    words, in the same order, with the same descent prefixes."""

    @staticmethod
    def check(monkeypatch, instances):
        """Each instance canonically, then under three natural labelings drawn as
        ``TestSignatureGrouping`` draws them."""
        calls = []

        def recording(poset, labeling=None):
            calls.append((poset, labeling))
            return linear_extensions(poset, labeling)

        monkeypatch.setattr(ehrhart_module, "linear_extensions", recording)
        rng = random.Random(56)
        for mp in instances:
            restricted_linear_extensions(mp)
            ehrhart_formula_marked_order(mp)
            for _ in range(3):
                # the formula streams the whole tie-break poset's first word too, to check the labeling
                ehrhart_formula_marked_order(mp, labeling=random_natural_labeling(rng, augment_marked_order(mp)))
        for poset, labeling in calls:
            assert list(linear_extensions(poset, labeling)) == list(reference_linear_extensions(poset, labeling))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_seeded_corpus(self, monkeypatch, seed):
        self.check(monkeypatch, corpus(seed, 200, max_unmarked=6))

    def test_families(self, monkeypatch, ladder):
        self.check(monkeypatch, [*map(ladder, range(2, 8)), *map(cube, range(1, 7)),
                                 *(pm_family(m, 1) for m in range(3, 11))])


class TestFamilyEquality:
    def test_order_equals_chain_on_corpus(self):
        rng = random.Random(54)
        for _ in range(30):
            mp = random_marked_poset(rng, max_unmarked=5)
            assert (ehrhart_by_counting(build_order_hrep(mp))
                    == ehrhart_by_counting(build_chain_hrep(mp)))

    def test_all_partitions_share_one_polynomial(self):
        rng = random.Random(55)
        for _ in range(10):
            mp = random_marked_poset(rng, max_unmarked=4)
            base = ehrhart_by_counting(build_order_hrep(mp))
            for part in all_chain_order_partitions(mp):
                h = build_chain_order_hrep(mp, part)
                assert ehrhart_by_counting(h) == base


def dilate_points(mp, h, n):
    """The lattice points of the n-th dilate of ``h``, a polytope of ``mp``, sorted, as tuples.

    A depth-first scan in coordinate order: each row bounds its last coordinate
    once the ones before it are set.  Every coordinate also lies in the box
    [n min(0, m), n (M - min(0, m))], m and M the least and greatest marks: an
    order coordinate lies between two marks, a chain coordinate between 0 and
    a difference of two marks.
    """
    marks = [int(mp.value(a)) for a in mp.marked]
    lo, hi = n * min(0, *marks), n * (max(marks) - min(0, *marks))
    closing = [[] for _ in h.coordinates]  # (earlier terms, own coefficient, n * rhs) per row
    for row in h.inequalities:
        *rest, (last, a) = sorted((h._column[c], a) for c, a in row.coeffs.items())
        assert (n * row.rhs).denominator == 1
        closing[last].append((rest, a, int(n * row.rhs)))
    points = []

    def scan(j, x):
        low, high = lo, hi
        for rest, a, b in closing[j]:
            slack = b - sum(c * x[k] for k, c in rest)
            if a > 0:
                high = min(high, slack // a)
            else:
                low = max(low, -(slack // -a))
        if j == len(closing) - 1:
            points.extend(x + (v,) for v in range(low, high + 1))
        else:
            for v in range(low, high + 1):
                scan(j + 1, x + (v,))

    scan(0, ())
    return points


def transfer_maps(mp, chain, n):
    """The transfer map phi of nO(P, lambda) to the chain-order dilate, and its inverse psi.

    Both act on tuples over ``mp.unmarked``.  phi: y_p = x_p - max{x_q : q covered
    by p} for p in ``chain`` (a marked q counts as n lambda(q)), y_p = x_p
    elsewhere.  psi adds the maximum back, in topological order, so that the x
    of every lower cover is known by then.
    """
    marked = sorted(mp.marked)
    index = {p: j for j, p in enumerate((*mp.unmarked, *marked))}
    tail = tuple(int(n * mp.value(a)) for a in marked)
    below = [(index[p], [index[q] for q in mp.poset.lower_covers(p)])
             for p in mp.poset.topological_order() if p in chain]

    def phi(x):
        full, y = x + tail, list(x)
        for j, covered in below:
            y[j] -= max(map(full.__getitem__, covered))
        return tuple(y)

    def psi(y):
        x = list(y + tail)
        for j, covered in below:
            x[j] += max(map(x.__getitem__, covered))
        return tuple(x[:len(y)])

    return phi, psi


def check_transfer(mp, part, n, order_points):
    """phi sends the points of nO one to one onto the scanned points of the chain-order
    dilate, and psi sends them back; returns the latter."""
    points = dilate_points(mp, build_chain_order_hrep(mp, part), n)
    phi, psi = transfer_maps(mp, part.chain, n)
    image = list(map(phi, order_points))
    assert sorted(image) == points  # the scan lists each point once, so phi is one to one
    assert list(map(psi, image)) == order_points
    return points


class TestTransferMap:
    """The families share one Ehrhart polynomial because the transfer map is a bijection
    on the lattice points of every dilate: checked point by point, for the order and
    chain families and every chain-order partition."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_seeded_corpus(self, seed):
        for mp in corpus(seed, 60, max_unmarked=4):
            for n in (1, 2, 3):
                order_points = dilate_points(mp, build_order_hrep(mp), n)
                for part in all_chain_order_partitions(mp):
                    check_transfer(mp, part, n, order_points)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 3), data=st.data())
    def test_relabelling(self, seed, n, data):
        mp = random_marked_poset(random.Random(seed), max_unmarked=4)
        elements = list(mp.poset.elements)
        rename = dict(zip(elements, data.draw(st.permutations([f"v{i}" for i in range(len(elements))]))))
        relabelled = MarkedPoset(Poset([rename[e] for e in elements],
                                       [(rename[p], rename[q]) for p, q in mp.poset.covers]),
                                 {rename[a]: v for a, v in mp.marking.items()})
        chain = data.draw(st.sets(st.sampled_from(mp.unmarked)))
        named = []
        for m, part in ((mp, ChainOrderPartition.of(mp, chain)),
                        (relabelled, ChainOrderPartition.of(relabelled, {rename[p] for p in chain}))):
            points = check_transfer(m, part, n, dilate_points(m, build_order_hrep(m), n))
            names = m.unmarked if m is relabelled else [rename[p] for p in m.unmarked]
            named.append({frozenset(zip(names, y)) for y in points})
        assert named[0] == named[1]


class TestPmFamily:
    def test_pm3_shape_matches_diagram(self):
        mp = pm_family(3, 1)
        assert sorted(mp.poset.covers) == [
            ("a1", "x1"), ("a2", "x3"), ("x1", "a2"),
            ("x1", "x2"), ("x2", "x3"), ("x3", "a3"),
        ]
        assert mp.marking == {"a1": 0, "a2": 1, "a3": 2}

    def test_pm6_shape(self):
        mp = pm_family(6, 1)
        covers = set(mp.poset.covers)
        assert ("x1", "x2") in covers and ("x2", "x6") in covers
        for i in range(2, 6):
            assert (f"a{i}", f"x{i + 1}") in covers
        for i in range(3, 7):
            assert (f"x{i}", f"a{i}") in covers
        assert mp.marking["a6"] == 5

    def test_remarked_pm3(self):
        assert pm_family(3, 2).marking == {"a1": 0, "a2": 2, "a3": 4}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pm_family(2, 1)
        with pytest.raises(ValueError):
            pm_family(3, 0)
        with pytest.raises(ValueError):
            pm_closed_form(2, 1)

    def test_closed_form_expansions(self):
        assert pm_closed_form(3, 1) == polynomial([1, 3, 3, 1])
        # 2n(n+1)^3 + (n+1)^3
        assert pm_closed_form(4, 1) == polynomial([1, 5, 9, 7, 2])
        # (2n+1)^3
        assert pm_closed_form(3, 2) == polynomial([1, 6, 12, 8])

    def test_formula_matches_closed_form(self):
        for m in range(3, 41):
            for c in (1, 2):
                assert ehrhart_formula_marked_order(pm_family(m, c)) == pm_closed_form(m, c)

    def test_extension_census(self):
        for m in (3, 4, 5, 6):
            assert count_restricted_extensions(pm_family(m, 1)) == 2 * m - 4

    def test_extension_words_are_augmented_extensions(self):
        mp = pm_family(3, 1)
        words = [w.word for w in restricted_linear_extensions(mp)]
        assert words == [
            ("a1", "x1", "a2", "x2", "x3", "a3"),
            ("a1", "x1", "x2", "a2", "x3", "a3"),
        ]
