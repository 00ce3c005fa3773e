"""Poset core: construction, validation, chains, extensions."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markedposets import (
    ChainOrderPartition,
    ExtensionWord,
    MarkedPoset,
    Poset,
    PreconditionViolated,
    canonical_labeling,
    chain_order_two_level_criterion,
    linear_extensions,
    validate_marked,
)
from markedposets import posets
from markedposets.corpus import _draw, corpus, random_marked_poset
from markedposets.ehrhart import pm_family
from markedposets.posets import (_components, _members, _pieces, _saturated_chains, _topological_order,
                                 _up_sets, induced_subposet, require_strict)
from helpers import augment_marked_order

ORACLE_SEEDS = (20250808, 3, 7)


def brute_closure(elements, covers):
    """Independent transitive closure by fixpoint over pairs."""
    rel = {(p, p) for p in elements} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def frozen_up_sets(nodes, succ):
    """The frozenset form of ``_up_sets``: each node's strict up-set, and the implied edges."""
    above, implied = {}, set()
    for v in reversed(_topological_order(nodes, succ)):
        acc = set()
        for w in succ[v]:
            acc |= above[w]
        implied.update((v, w) for w in succ[v] if w in acc)
        acc.update(succ[v])
        above[v] = frozenset(acc)
    return above, implied


def all_pairs_augment(mp):
    """``augment_marked_order`` adding every marked pair with increasing marks."""
    marked = sorted(mp.marked)
    relations = list(mp.poset.covers)
    relations += [(a, b) for a in marked for b in marked if mp.value(a) < mp.value(b)]
    return Poset.from_relations(mp.poset.elements, relations)


def fraction_validate_marked(mp):
    """``validate_marked`` with ``leq``/``less`` calls and ``Fraction`` mark comparisons."""
    poset, marked = mp.poset, sorted(mp.marked)
    strict = [("strict", a, b) for a in marked for b in marked
              if poset.less(a, b) and mp.value(a) >= mp.value(b)]
    regular = []
    for p, q in sorted(poset.covers):
        below_q = [a for a in marked if poset.leq(a, q)]
        above_p = [b for b in marked if poset.leq(p, b)]
        regular += [("regular", (p, q), a, b) for a in below_q for b in above_p
                    if a != b and mp.value(a) >= mp.value(b)]
    return not strict, not regular, tuple(strict + regular)


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"v{i}" for i in range(n)]
    perm = draw(st.permutations(names))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((perm[i], perm[j]))
    return Poset.from_relations(names, edges), edges


@st.composite
def marked_small_posets(draw):
    """A small poset with its extremes and some other elements marked by integers 0..3."""
    poset, _ = draw(small_posets())
    extremes = set(poset.minimals()) | set(poset.maximals())
    marked = [e for e in sorted(poset.elements) if e in extremes or draw(st.booleans())]
    return poset, {a: draw(st.integers(min_value=0, max_value=3)) for a in marked}


def marked_chain(n, step):
    """An n-element chain with every ``step``-th element and the top marked i // 2."""
    ids = [f"c{i:04d}" for i in range(n)]
    marks = {ids[i]: i // 2 for i in range(n) if i % step == 0 or i == n - 1}
    return MarkedPoset(Poset(ids, [(ids[i], ids[i + 1]) for i in range(n - 1)]), marks)


def two_mark_shape(shape, n):
    """The large-poset shapes, marked only at their ends: an n-chain (marks 0, 1), n incomparable
    elements between bot (0) and top (1), or a zigzag fence of n elements between bot (0) and top (3)."""
    if shape == "chain":
        c = [f"c{i}" for i in range(n)]
        return MarkedPoset(Poset(c, [(c[i], c[i + 1]) for i in range(n - 1)]), {c[0]: 0, c[-1]: 1})
    u = [f"u{i}" for i in range(n)]
    if shape == "antichain":
        return MarkedPoset(Poset(["bot", "top", *u], [("bot", e) for e in u] + [(e, "top") for e in u]),
                           {"bot": 0, "top": 1})
    covers = [("bot", u[i]) if i % 2 == 0 else (u[i], "top") for i in range(n)]
    covers += [(u[i], u[i + 1]) if i % 2 == 0 else (u[i + 1], u[i]) for i in range(n - 1)]
    return MarkedPoset(Poset(["bot", "top", *u], covers), {"bot": 0, "top": 3})


def shifted(mp, shift):
    """mp with every mark raised by shift: no rank, tie or verdict moves."""
    return MarkedPoset(mp.poset, {a: v + shift for a, v in mp.marking.items()})


def first_decreasing_pair(poset, marking):
    """The first comparable marked pair a < b, in id order, with marking(a) > marking(b), or None."""
    marked = sorted(marking)
    return next(((a, b) for a in marked for b in marked
                 if poset.less(a, b) and marking[a] > marking[b]), None)


def witnessed_covers(mp):
    """The covers that ``fraction_validate_marked`` lists regularity witnesses for."""
    return {w[1] for w in fraction_validate_marked(mp)[2] if w[0] == "regular"}


@pytest.fixture
def scanned_covers(monkeypatch):
    """The covers that ``posets._cover_witnesses`` runs on, in call order."""
    covers = []
    witnesses = posets._cover_witnesses

    def spy(mp, given):
        given = list(given)
        covers.extend(given)
        return witnesses(mp, given)

    monkeypatch.setattr(posets, "_cover_witnesses", spy)
    return covers


class TestPoset:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_redundant_cover(self):
        with pytest.raises(ValueError, match="implied"):
            Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        # two implied covers: the message names the first in covers order
        with pytest.raises(ValueError, match=r"cover \('b', 'd'\) is implied"):
            Poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"), ("a", "c")])

    def test_rejects_repeated_cover(self):
        with pytest.raises(ValueError, match=r"cover \('a', 'x'\) is repeated"):
            Poset(["a", "x", "b"], [("a", "x"), ("a", "x"), ("x", "b")])

    def test_from_relations_skips_repeated_relation(self):
        # the pairs that Poset refuses as a repeated cover give one cover here
        p = Poset.from_relations(["a", "x", "b"], [("a", "x"), ("a", "x"), ("x", "b")])
        assert p.covers == (("a", "x"), ("x", "b"))
        assert p.upper_covers("a") == ("x",) and p.lower_covers("x") == ("a",)
        assert p == Poset(["a", "x", "b"], [("a", "x"), ("x", "b")])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Poset(["a", "a"], [])

    def test_from_relations_reduces(self):
        p = Poset.from_relations(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert sorted(p.covers) == [("a", "b"), ("b", "c")]

    @pytest.mark.parametrize("relations", [
        [("a", "b"), ("b", "a")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    ])
    def test_from_relations_rejects_cycle(self, relations):
        with pytest.raises(ValueError, match="cycle"):
            Poset.from_relations(["a", "b", "c"], relations)

    @pytest.mark.parametrize("relations, message", [
        ([("a", "b"), ("b", "z")], r"relation \('b', 'z'\) references unknown element"),
        ([("a", "b"), ("b", "b")], r"relation \('b', 'b'\) is a loop"),
    ])
    def test_from_relations_rejects_bad_relation(self, relations, message):
        with pytest.raises(ValueError, match=message):
            Poset.from_relations(["a", "b", "c"], relations)

    def test_leq_chain(self):
        p = Poset(["a", "x", "b"], [("a", "x"), ("x", "b")])
        assert p.leq("a", "b")
        assert not p.leq("b", "a")

    def test_leq_antichain(self):
        p = Poset(["x", "y"], [])
        assert not p.leq("x", "y")
        assert p.leq("x", "x")

    def test_unknown_element(self):
        p = Poset(["x"], [])
        with pytest.raises(KeyError):
            p.leq("x", "zz")

    def test_topological_order_takes_smallest_available(self):
        p = Poset(["c", "a", "b", "d"], [("c", "a")])
        assert p.topological_order() == ["b", "c", "a", "d"]

    @settings(max_examples=60, deadline=None)
    @given(small_posets())
    def test_partial_order_laws(self, poset_and_edges):
        poset, edges = poset_and_edges
        oracle = brute_closure(poset.elements, edges)
        for p in poset.elements:
            assert poset.leq(p, p)
            for q in poset.elements:
                assert poset.leq(p, q) == ((p, q) in oracle)
                if p != q and poset.leq(p, q):
                    assert not poset.leq(q, p)
                for r in poset.elements:
                    if poset.leq(p, q) and poset.leq(q, r):
                        assert poset.leq(p, r)
        hasse = sorted((p, q) for p, q in oracle if p != q and not any(
            (p, r) in oracle and (r, q) in oracle for r in poset.elements if r not in (p, q)))
        assert sorted(poset.covers) == hasse
        for p, q in oracle:
            if p != q and (p, q) not in hasse:
                with pytest.raises(ValueError, match="implied"):
                    Poset(poset.elements, list(poset.covers) + [(p, q)])


class TestBitmaskClosure:
    """The bitmask up-sets against the frozenset closure they replaced."""

    @staticmethod
    def check(poset, relations):
        # the cover graph and the relation graph share one closure and one order
        for succ in ({e: poset.upper_covers(e) for e in poset.elements},
                     {e: {q for p, q in relations if p == e} for e in poset.elements}):
            order, above, implied = _up_sets(poset.elements, succ)
            oracle_above, oracle_implied = frozen_up_sets(poset.elements, succ)
            assert implied == oracle_implied
            assert order == poset.topological_order() == _topological_order(poset.elements, succ)
            assert {v: frozenset(_members(m, order)) for v, m in zip(order, above)} == oracle_above
        for p in poset.elements:
            assert {q for q in poset.elements if poset.less(p, q)} == oracle_above[p]
        rng = random.Random(len(poset.elements))
        for _ in range(3):
            keep = [e for e in poset.elements if rng.random() < 0.6]
            oracle = Poset.from_relations(
                keep, [(p, q) for p in keep for q in oracle_above[p] if q in keep])
            induced = induced_subposet(poset, keep)
            assert induced.elements == oracle.elements and induced.covers == oracle.covers

    def test_seeded_corpora(self):
        for seed in ORACLE_SEEDS:
            for mp in corpus(seed, 200, max_unmarked=6):
                self.check(mp.poset, mp.poset.covers)

    @settings(max_examples=60, deadline=None)
    @given(small_posets())
    def test_small_posets(self, poset_and_edges):
        self.check(*poset_and_edges)


class TestInducedSubposet:
    def test_chain_hands_over_its_covers_only(self, monkeypatch):
        # every second element of a 300-chain: 149 covers, out of 150 * 149 / 2 comparable pairs
        chain = [f"c{i:03d}" for i in range(300)]
        poset = Poset(chain, list(zip(chain, chain[1:])))
        handed = []
        build = Poset.from_relations.__func__
        monkeypatch.setattr(Poset, "from_relations", classmethod(
            lambda cls, elements, relations: handed.append(list(relations)) or build(cls, elements, relations)))
        keep = chain[::2]
        induced = induced_subposet(poset, keep)
        assert [len(relations) for relations in handed] == [149]
        assert induced.elements == tuple(keep) and induced.covers == tuple(zip(keep, keep[1:]))

    def test_relation_past_a_kept_element_is_dropped(self):
        # p < x < q and p < r < q with x dropped: the walk from p meets q past x and r,
        # and the reduction drops p < q, implied through r
        poset = Poset(["p", "q", "r", "x"], [("p", "x"), ("x", "q"), ("p", "r"), ("r", "q")])
        induced = induced_subposet(poset, ["p", "q", "r"])
        assert induced.covers == (("p", "r"), ("r", "q"))


class TestFromRelations:
    """``Poset.from_relations`` hands its one closure to the poset it builds: every attribute
    equals that of the poset built from its covers, which runs the closure on the covers."""

    ATTRIBUTES = ("elements", "covers", "_up_covers", "_down_covers", "_order", "_above", "_index")

    def check(self, elements, relations):
        built = Poset.from_relations(elements, relations)
        oracle = Poset(elements, built.covers)
        for name in self.ATTRIBUTES:
            assert getattr(built, name) == getattr(oracle, name), name

    def test_seeded_corpora(self):
        for seed in ORACLE_SEEDS:
            for mp in corpus(seed, 200, max_unmarked=6):
                poset = mp.poset
                order = [(p, q) for p in poset.elements
                         for q in _members(poset._above[poset._index[p]], poset._order)]
                for relations in (poset.covers, order, augment_marked_order(mp).covers):
                    self.check(poset.elements, relations)

    @settings(max_examples=60, deadline=None)
    @given(small_posets(), st.randoms(use_true_random=False))
    def test_small_posets(self, poset_and_edges, rng):
        poset, edges = poset_and_edges
        elements = list(poset.elements)
        rng.shuffle(elements)
        self.check(elements, rng.sample(edges, len(edges)))

    def test_one_closure_per_call(self, monkeypatch):
        calls = []

        def spy(nodes, succ):
            calls.append(nodes)
            return _up_sets(nodes, succ)

        monkeypatch.setattr(posets, "_up_sets", spy)
        Poset.from_relations(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
        assert len(calls) == 1
        pm_family(12, 1)
        assert len(calls) == 2

    @pytest.mark.parametrize("elements, relations, message", [
        (["a", "b", "c"], [("a", "b"), ("b", "z")], "relation ('b', 'z') references unknown element"),
        (["a", "b", "c"], [("a", "b"), ("b", "b")], "relation ('b', 'b') is a loop"),
        (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], "cover relation contains a cycle"),
        (["a", "b", "a"], [("a", "b")], "duplicate element ids"),
    ])
    def test_messages(self, elements, relations, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Poset.from_relations(elements, relations)


class TestMarkedPoset:
    def test_requires_marked_extremes(self):
        with pytest.raises(ValueError, match="must be marked"):
            MarkedPoset(Poset(["a", "x"], [("a", "x")]), {"a": 0})

    def test_requires_order_preserving_marks(self):
        p = Poset(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="order-preserving"):
            MarkedPoset(p, {"a": 1, "b": 0})

    def test_unknown_ids_name_the_least(self):
        # the message does not depend on string hashing, which varies per process
        p = Poset(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="marked element 'q' is not in the poset"):
            MarkedPoset(p, {"a": 0, "b": 1, "r": 3, "q": 2, "s": 4})
        with pytest.raises(KeyError, match="unknown element id 'q'"):
            induced_subposet(p, ["a", "r", "q", "s"])

    def test_validate_single_chain(self, segment):
        report = validate_marked(segment)
        assert report.strict and report.regular and not report.violations

    def test_validate_regularity_witness(self):
        # a(0) and m(1) both below marked y(2): the (m, a) pair breaks regularity
        p = Poset(["a", "m", "y"], [("a", "y"), ("m", "y")])
        report = validate_marked(MarkedPoset(p, {"a": 0, "m": 1, "y": 2}))
        assert report.strict
        assert not report.regular
        assert ("regular", ("a", "y"), "m", "a") in report.violations

    def test_cover_between_marks_is_irregular(self):
        # no polytope row comes from a cover between two marks, yet it breaks
        # regularity; corpus draws are filtered by this definition
        report = validate_marked(MarkedPoset(Poset(["a", "b"], [("a", "b")]), {"a": 0, "b": 1}))
        assert report.strict and not report.regular
        assert report.violations == (("regular", ("a", "b"), "b", "a"),)

    def test_ranks_over_mixed_denominators(self):
        p = Poset(["a", "b", "c", "d", "e"], [("d", "b"), ("b", "a"), ("a", "e"), ("d", "c"), ("c", "e")])
        mp = MarkedPoset(p, {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(2, 4),
                             "d": Fraction(-5, 6), "e": 7})
        assert mp._rank == {"a": 2, "b": 1, "c": 2, "d": 0, "e": 3}
        # the constructor's integer marks, over the lcm of the denominators
        assert mp._scale == 6 and not mp.is_integral()
        assert list(mp._levels) == sorted(mp.marking)
        for a, v in mp.marking.items():
            assert Fraction(mp._levels[a], mp._scale) == v

    def test_integral_marks_have_scale_one(self):
        mp = corpus(20250808, 1)[0]
        assert mp._scale == 1 and mp.is_integral()
        assert mp._levels == {a: int(v) for a, v in sorted(mp.marking.items())}

    def test_validate_strictness(self):
        p = Poset(["a", "b"], [("a", "b")])
        report = validate_marked(MarkedPoset(p, {"a": 1, "b": 1}))
        assert not report.strict
        assert ("strict", "a", "b") in report.violations


class TestValidateAgainstOracle:
    """Integer ranks and up-set masks give the report of the leq/Fraction loops, witness for witness."""

    @staticmethod
    def check(mp):
        # ranks by the Fraction values, and ties by the pair scan
        values = sorted(set(mp.marking.values()))
        marked = sorted(mp.marked)
        assert mp._rank == {a: values.index(mp.value(a)) for a in marked}
        assert mp._ties == tuple(posets._scan_mark_pairs(mp.poset, mp.marking, marked))
        report = validate_marked(mp)
        assert (report.strict, report.regular, report.violations) == fraction_validate_marked(mp)
        return report

    def check_shifted(self, mp, shift):
        # the raised marks give the ranks, ties and report of the marks as given
        raised = shifted(mp, shift)
        report = self.check(raised)
        assert (raised._rank, raised._ties) == (mp._rank, mp._ties)
        assert (report.strict, report.regular, report.violations) == fraction_validate_marked(mp)
        return report

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_seeded_corpora(self, seed):
        for mp in corpus(seed, 200, max_unmarked=7):
            self.check(mp)

    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_random_draws(self, seed):
        # strict markings, often irregular; marks as drawn, scaled by 1/3,
        # and halved downwards, which ties comparable marks and breaks strictness
        rng = random.Random(seed)
        flagged = {"strict": 0, "regular": 0, "decreasing": 0}
        for _ in range(600):
            mp = _draw(rng, 5, 0, 4, 1)
            if mp is None:
                continue
            for scale in (lambda v: v, lambda v: v / 3, lambda v: v // 2):
                remarked = MarkedPoset(mp.poset, {a: scale(v) for a, v in mp.marking.items()})
                report = self.check(remarked)
                flagged["strict"] += not report.strict
                flagged["regular"] += not report.regular
            # negated marks decrease on every comparable marked pair; the marks
            # mod 3 on some pairs only: the constructor refuses the first
            # decreasing pair in id order, and takes a marking with none
            for scale in (lambda v: -v, lambda v: v % 3):
                remarking = {a: scale(v) for a, v in mp.marking.items()}
                marked = sorted(remarking)
                first = next(((a, b) for a in marked for b in marked
                              if mp.poset.less(a, b) and remarking[a] > remarking[b]), None)
                if first is None:
                    self.check(MarkedPoset(mp.poset, remarking))
                    continue
                flagged["decreasing"] += 1
                with pytest.raises(ValueError, match=re.escape(
                        f"marking is not order-preserving on {first[0]!r} < {first[1]!r}")):
                    MarkedPoset(mp.poset, remarking)
        assert flagged["strict"] >= 60 and flagged["regular"] >= 600
        assert flagged["decreasing"] >= 300

    # every mark raised by 0 (as given) or by 8
    @pytest.mark.parametrize("shift", (0, 8))
    def test_pm_family(self, shift):
        for m in range(3, 41):
            for c in (1, 2):
                report = self.check_shifted(pm_family(m, c), shift)
                assert report.strict and report.regular

    @pytest.mark.parametrize("shift", (0, 8))
    def test_chains_with_tied_marks(self, shift):
        # marks i // 2 tie neighbouring marks, and the top with the mark below it when n is even
        verdicts = set()
        for n in (2, 3, 9, 30, 31):
            for step in (1, 2, 3):
                report = self.check_shifted(marked_chain(n, step), shift)
                verdicts.add((report.strict, report.regular))
        assert verdicts == {(True, True), (False, False)}

    @pytest.mark.parametrize("shift", (0, 8))
    def test_covers_with_a_marked_end(self, shift):
        # the best mark below q and the best mark above p are one mark, p or q,
        # on these shapes: every marking by 0..2 that the constructor takes
        shapes = [
            (["a", "b"], [("a", "b")], ["a", "b"]),
            (["a", "m", "b"], [("a", "m"), ("m", "b")], ["a", "m", "b"]),
            (["p", "s", "q", "t"], [("p", "q"), ("s", "q"), ("q", "t")], ["p", "s", "t"]),
            (["b", "p", "q", "r", "t", "u"], [("b", "p"), ("p", "q"), ("p", "r"), ("q", "t"), ("r", "u")],
             ["b", "p", "t", "u"]),
            (["a", "x", "m", "y", "b", "c"], [("a", "x"), ("x", "m"), ("m", "y"), ("y", "b"), ("c", "y")],
             ["a", "m", "b", "c"]),
        ]
        checked = 0
        for elements, covers, marked in shapes:
            poset = Poset(elements, covers)
            for values in itertools.product(range(3), repeat=len(marked)):
                marking = dict(zip(marked, values))
                if first_decreasing_pair(poset, marking) is None:
                    self.check_shifted(MarkedPoset(poset, marking), shift)
                    checked += 1
        assert checked >= 60

    @settings(max_examples=150, deadline=None)
    @given(marked_small_posets(), st.randoms(use_true_random=False))
    def test_small_posets_with_integer_marks(self, drawn, rng):
        # the report is the oracle's; the constructor refuses exactly when a
        # decreasing pair exists, naming the first; relabelled ids and reversed
        # covers keep the verdicts and the witness count
        poset, marking = drawn
        first = first_decreasing_pair(poset, marking)
        shuffled = list(poset.elements)
        rng.shuffle(shuffled)
        rename = {e: f"r{f}" for e, f in zip(poset.elements, shuffled)}
        twin_poset = Poset([rename[e] for e in reversed(poset.elements)],
                           [(rename[p], rename[q]) for p, q in reversed(poset.covers)])
        twin_marking = {rename[a]: v for a, v in marking.items()}
        if first is not None:
            with pytest.raises(ValueError, match=re.escape(
                    f"marking is not order-preserving on {first[0]!r} < {first[1]!r}")):
                MarkedPoset(poset, marking)
            with pytest.raises(ValueError, match="marking is not order-preserving"):
                MarkedPoset(twin_poset, twin_marking)
            return
        report = self.check(MarkedPoset(poset, marking))
        twin = validate_marked(MarkedPoset(twin_poset, twin_marking))
        assert ((twin.strict, twin.regular, len(twin.violations))
                == (report.strict, report.regular, len(report.violations)))


class TestMarkCheckWork:
    """The screens bound the work: the pair scans run only where they find something."""

    @pytest.mark.parametrize("mp", [pm_family(40, 1), marked_chain(1501, 2)], ids=["pm-40", "chain-1501"])
    def test_no_cover_scanned_when_strict_regular(self, mp, scanned_covers):
        mp._report = None  # built at collection: drop a report another test made
        report = validate_marked(mp)
        assert report.strict and report.regular and scanned_covers == []

    def test_tied_antichain_scans_only_witnessed_covers(self, scanned_covers):
        # every cover of the tied antichain has a witness; the strict chain
        # lo < z < hi beside it has none
        x = [f"x{i}" for i in range(6)]
        covers = [("bot", e) for e in x] + [(e, "top") for e in x] + [("lo", "z"), ("z", "hi")]
        tied = MarkedPoset(Poset(["bot", "top", "lo", "hi", "z", *x], covers),
                           {"bot": 0, "top": 0, "lo": 1, "hi": 2})
        report = validate_marked(tied)
        assert len(report.violations) == 1 + 2 * len(x)
        assert sorted(scanned_covers) == sorted(witnessed_covers(tied))
        assert ("lo", "z") not in witnessed_covers(tied)

    @pytest.mark.parametrize("shape, n", [("chain", 1500), ("antichain", 900), ("fence", 900)])
    def test_two_mark_shapes_scan_no_cover(self, shape, n, scanned_covers):
        report = validate_marked(two_mark_shape(shape, n))
        assert report.strict and report.regular and scanned_covers == []
        for small in (2, 3, 4, 30):
            TestValidateAgainstOracle.check(two_mark_shape(shape, small))

    def test_constructor_never_falls_back_on_pm_320(self, monkeypatch):
        calls = []
        scan = posets._scan_mark_pairs
        monkeypatch.setattr(posets, "_scan_mark_pairs", lambda *args: calls.append(args) or scan(*args))
        assert len(pm_family(320, 1).marked) == 320 and calls == []
        # a decreasing pair among many marks: the rank masks find it, the scan names it
        mp = marked_chain(41, 2)
        with pytest.raises(ValueError, match="on 'c0000' < 'c0002'$"):
            MarkedPoset(mp.poset, {**mp.marking, "c0000": 100})
        assert len(calls) == 1


class TestValidateMemo:
    """``validate_marked`` scans each marked poset once and keeps the report on it."""

    def test_chain_order_criterion_scans_each_poset_once(self, monkeypatch):
        calls, scanned = [], []
        validate = posets.validate_marked

        def spy(mp):
            calls.append(mp)
            if mp._report is None:
                scanned.append(mp)
            return validate(mp)

        monkeypatch.setattr(posets, "validate_marked", spy)
        for mp in corpus(20250808, 20, max_unmarked=5):
            chain_order_two_level_criterion(mp, ChainOrderPartition.of(mp, mp.unmarked[:1]))
        # without the memo each call scanned: 41 scans for 20 criterion calls
        assert len(calls) == 41 and len(scanned) == 21
        assert len({id(mp) for mp in scanned}) == len(scanned)

    def test_report_is_kept(self, segment):
        assert validate_marked(segment) is validate_marked(segment)


class TestRequireStrict:
    """``require_strict`` reads the constructor's ties: it refuses exactly the markings that
    ``validate_marked`` reports not strict."""

    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_refuses_exactly_the_non_strict(self, seed):
        # marks as drawn, scaled by 1/3, and halved downwards, which ties comparable marks
        rng = random.Random(seed)
        refused = 0
        for _ in range(300):
            mp = _draw(rng, 5, 0, 4, 1)
            if mp is None:
                continue
            for scale in (lambda v: v, lambda v: v / 3, lambda v: v // 2):
                remarked = MarkedPoset(mp.poset, {a: scale(v) for a, v in mp.marking.items()})
                if validate_marked(remarked).strict:
                    require_strict(remarked, "the operation")
                    continue
                refused += 1
                with pytest.raises(PreconditionViolated, match="^the operation requires a strict marking$"):
                    require_strict(remarked, "the operation")
        assert refused >= 20


class TestDraw:
    """``_draw`` builds relations along one shuffled order and marks up a topological order,
    so neither ``Poset.from_relations`` nor ``MarkedPoset`` can reject what it builds."""

    @pytest.mark.parametrize("max_unmarked, lo, hi", [(5, 0, 4), (7, 0, 6), (3, 0, 1), (8, -2, 2)])
    def test_draws_are_strict_with_marked_extremes(self, max_unmarked, lo, hi):
        drawn = 0
        for seed in range(4):
            rng = random.Random(seed)
            for _ in range(250):
                mp = _draw(rng, max_unmarked, lo, hi, 1)
                if mp is None:
                    continue
                drawn += 1
                assert validate_marked(mp).strict
                assert set(mp.poset.minimals()) | set(mp.poset.maximals()) <= mp.marked
        assert drawn >= 100

    @pytest.mark.parametrize("lo, hi, min_unmarked", [(0, 0, 1), (3, 3, 2), (1, 0, 0), (4, -4, 1)])
    def test_mark_range_no_draw_fits_raises(self, lo, hi, min_unmarked):
        # an empty range, or one value where an element must stay unmarked: no draw fits
        with pytest.raises(ValueError, match="no draw fits"):
            random_marked_poset(random.Random(0), mark_lo=lo, mark_hi=hi, min_unmarked=min_unmarked)
        with pytest.raises(ValueError, match="no draw fits"):
            corpus(1, 1, mark_lo=lo, mark_hi=hi)

    def test_one_mark_value_without_unmarked_elements_draws(self):
        # marks of one value on an antichain of marked elements: some draw fits
        mp = random_marked_poset(random.Random(0), mark_lo=2, mark_hi=2, min_unmarked=0)
        assert set(mp.marking.values()) == {2}


class TestHasseComponents:
    """``_components`` on the covers: the connected pieces of the undirected Hasse diagram."""

    def test_two_chains(self):
        p = Poset(["a", "x", "b", "c", "y", "d"],
                  [("a", "x"), ("x", "b"), ("c", "y"), ("y", "d")])
        assert _components(p.elements, p.covers) == [("a", "b", "x"), ("c", "d", "y")]

    def test_diamond_connected(self, diamond_02):
        p = diamond_02.poset
        assert _components(p.elements, p.covers) == [("bot", "top", "x", "y")]

    def test_single_point(self):
        p = Poset(["a"], [])
        assert _components(p.elements, p.covers) == [("a",)]


class TestPieces:
    """``_pieces``: unmarked components under unmarked covers, each with the covers touching it
    and its lower and upper marks."""

    def test_two_chains_and_a_marked_cover(self):
        p = Poset(["a", "x", "b", "c", "y", "d"],
                  [("a", "x"), ("x", "b"), ("c", "y"), ("y", "d"), ("a", "d")])
        mp = MarkedPoset(p, {"a": 0, "b": 2, "c": 1, "d": 3})
        assert _pieces(mp) == [(("x",), [("a", "x"), ("x", "b")], {"a": 0}, {"b": 2}),
                               (("y",), [("c", "y"), ("y", "d")], {"c": 1}, {"d": 3})]

    def test_diamond_is_two_pieces(self, diamond_02):
        assert [piece for piece, *_ in _pieces(diamond_02)] == [("x",), ("y",)]

    def test_unmarked_cover_joins_a_piece(self):
        p = Poset(["a", "u", "v", "b"], [("a", "u"), ("u", "v"), ("v", "b")])
        assert _pieces(MarkedPoset(p, {"a": 0, "b": 1})) == [(("u", "v"), list(p.covers), {"a": 0}, {"b": 1})]

    def test_no_unmarked_elements(self):
        assert _pieces(MarkedPoset(Poset(["a", "b"], [("a", "b")]), {"a": 0, "b": 1})) == []

    def test_equal_bounds_keep_their_ids(self):
        # two lower marks of one value stay two marks; the criterion reads their values
        p = Poset(["a", "b", "x", "t"], [("a", "x"), ("b", "x"), ("x", "t")])
        assert _pieces(MarkedPoset(p, {"a": 0, "b": 0, "t": 1})) == [
            (("x",), [("a", "x"), ("b", "x"), ("x", "t")], {"a": 0, "b": 0}, {"t": 1})]

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_marks_are_the_covered_and_the_covering_marks(self, seed):
        # lower marks: marks that a piece element covers; upper: marks that cover one
        for mp in corpus(seed, 200, max_unmarked=7):
            pieces = _pieces(mp)
            assert sorted(e for piece, *_ in pieces for e in piece) == list(mp.unmarked)
            for piece, covers, lower, upper in pieces:
                below = {a for x in piece for a in mp.poset.lower_covers(x) if a in mp.marked}
                above = {b for x in piece for b in mp.poset.upper_covers(x) if b in mp.marked}
                assert lower == {a: mp.value(a) for a in below}
                assert upper == {b: mp.value(b) for b in above}
                # each kept in the order of the touching covers
                assert list(lower) == list(dict.fromkeys(p for p, _ in covers if p in mp.marked))
                assert list(upper) == list(dict.fromkeys(q for _, q in covers if q in mp.marked))


class TestMaximalMarkedChains:
    def test_figure_one(self, figure_one):
        assert _saturated_chains(figure_one.poset, figure_one.marked) == [
            ("bot", ("x1",), "right"),
            ("bot", ("x1", "x2"), "top"),
            ("left", ("x2",), "top"),
        ]

    def test_single_chain(self, segment):
        assert _saturated_chains(segment.poset, segment.marked) == [("a", ("x",), "b")]

    def test_marked_cover_is_empty_chain(self):
        mp = MarkedPoset(Poset(["a", "b"], [("a", "b")]), {"a": 0, "b": 1})
        assert _saturated_chains(mp.poset, mp.marked) == [("a", (), "b")]


class TestAugment:
    def test_incomparable_marked_get_ordered(self):
        mp = MarkedPoset(Poset(["a", "b"], []), {"a": 0, "b": 1})
        assert augment_marked_order(mp).covers == (("a", "b"),)

    def test_comparable_marked_unchanged(self):
        p = Poset(["a", "b"], [("a", "b")])
        mp = MarkedPoset(p, {"a": 0, "b": 1})
        assert augment_marked_order(mp) == p

    def test_three_marks_totally_ordered(self):
        mp = MarkedPoset(Poset(["a", "b", "c"], []), {"a": 0, "b": 1, "c": 2})
        aug = augment_marked_order(mp)
        assert sorted(aug.covers) == [("a", "b"), ("b", "c")]

    def test_matches_all_pairs_on_corpora(self):
        for seed in ORACLE_SEEDS:
            for mp in corpus(seed, 200, max_unmarked=6):
                augmented, oracle = augment_marked_order(mp), all_pairs_augment(mp)
                assert augmented.elements == oracle.elements and augmented.covers == oracle.covers

    def test_levels_with_ties(self):
        # two elements per mark level: only adjacent levels are joined
        mp = MarkedPoset(Poset(["a", "b", "c", "d", "e", "f"], []),
                         {"a": 0, "b": 0, "c": 1, "d": 1, "e": 2, "f": 2})
        augmented = augment_marked_order(mp)
        assert augmented.covers == all_pairs_augment(mp).covers
        assert sorted(augmented.covers) == [(p, q) for p, q in itertools.product("abcdef", repeat=2)
                                            if mp.value(q) - mp.value(p) == 1]

    def test_idempotent(self, figure_one):
        once = augment_marked_order(figure_one)
        again = augment_marked_order(MarkedPoset(once, figure_one.marking))
        assert once == again


class TestLinearExtensions:
    def test_diamond_descents(self):
        p = Poset(["a", "x", "y", "b"], [("a", "x"), ("a", "y"), ("x", "b"), ("y", "b")])
        labeling = {"a": 1, "x": 2, "y": 3, "b": 4}
        words = list(linear_extensions(p, labeling))
        assert [w.word for w in words] == [("a", "x", "y", "b"), ("a", "y", "x", "b")]
        assert words[0].descents == 0
        assert words[1].descents == 1
        assert words[1].descent_prefix == (0, 0, 1, 1)

    def test_chain_unique(self):
        p = Poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        words = list(linear_extensions(p))
        assert len(words) == 1
        assert words[0].descents == 0

    def test_antichain_counts_factorial(self):
        for n in range(6):
            p = Poset([f"v{i}" for i in range(n)], [])
            words = list(linear_extensions(p))
            assert len(words) == __import__("math").factorial(n)
            if n == 0:  # the empty poset has one extension, the empty word
                assert words == list(linear_extensions(p, {})) == [ExtensionWord((), ())]

    def test_rejects_non_natural_labeling(self):
        p = Poset(["a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="order-preserving"):
            list(linear_extensions(p, {"a": 2, "b": 1}))
        with pytest.raises(ValueError, match="bijection"):
            list(linear_extensions(p, {"a": 1}))

    @settings(max_examples=30, deadline=None)
    @given(small_posets())
    def test_matches_brute_force(self, poset_and_edges):
        # the stream is lexicographic in the canonical labels, which keeps
        # every report that lists words byte-stable
        poset, _ = poset_and_edges
        labeling = canonical_labeling(poset)
        words = [w.word for w in linear_extensions(poset)]
        brute = sorted(
            (perm for perm in itertools.permutations(poset.elements)
             if all(not poset.less(perm[j], perm[i])
                    for i in range(len(perm)) for j in range(i + 1, len(perm)))),
            key=lambda perm: [labeling[e] for e in perm])
        assert words == brute

    @settings(max_examples=40, deadline=None)
    @given(small_posets(), st.data())
    def test_renamed_ids_keep_the_stream(self, poset_and_edges, data):
        # the walk reads ids only through the labeling: renaming the ids and carrying the
        # labeling over renames the words and keeps their order and descent prefixes
        poset, _ = poset_and_edges
        rename = dict(zip(poset.elements, data.draw(st.permutations([f"w{i}" for i in range(len(poset.elements))]))))
        renamed = Poset([rename[e] for e in poset.elements], [(rename[p], rename[q]) for p, q in poset.covers])
        carried = {rename[e]: label for e, label in canonical_labeling(poset).items()}
        assert list(linear_extensions(renamed, carried)) == [
            ExtensionWord(tuple(rename[e] for e in w.word), w.descent_prefix) for w in linear_extensions(poset)]

    @settings(max_examples=40, deadline=None)
    @given(small_posets(), st.randoms(use_true_random=False))
    def test_cover_order_is_invisible(self, poset_and_edges, rng):
        poset, _ = poset_and_edges
        covers = list(poset.covers)
        rng.shuffle(covers)
        shuffled = Poset(poset.elements, covers)
        assert list(linear_extensions(shuffled)) == list(linear_extensions(poset))
        # any linear extension, read as positions, is a natural labeling
        word = rng.choice(list(linear_extensions(poset))).word
        labeling = {e: i for i, e in enumerate(word, 1)}
        assert list(linear_extensions(shuffled, labeling)) == list(linear_extensions(poset, labeling))

    def test_labeling_changes_descents_not_words(self):
        p = Poset(["a", "x", "y", "b"], [("a", "x"), ("a", "y"), ("x", "b"), ("y", "b")])
        base = {w.word for w in linear_extensions(p)}
        other = {w.word for w in linear_extensions(p, {"a": 1, "y": 2, "x": 3, "b": 4})}
        assert base == other

    def test_descent_prefix_consistency(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 6)
            names = [f"v{i}" for i in range(n)]
            order = names[:]
            rng.shuffle(order)
            edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            poset = Poset.from_relations(names, edges)
            labeling = canonical_labeling(poset)
            for w in linear_extensions(poset):
                assert w.descent_prefix[0] == 0
                for i in range(1, n):
                    step = w.descent_prefix[i] - w.descent_prefix[i - 1]
                    assert step == (1 if labeling[w.word[i - 1]] > labeling[w.word[i]] else 0)
