"""CLI surface: exit codes, canonical output, determinism, round-trips."""

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markedposets import MarkedPoset, Poset, cli, ehrhart, enumerate_vertices
from markedposets.cli import DocumentError, format_hrep, main
from markedposets.corpus import _draw, random_marked_poset
from markedposets.geometry import HRepresentation, LinearInequality
from markedposets.polytopes import build_chain_hrep, build_order_hrep
from helpers import polynomial


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_hrep_text(text: str) -> HRepresentation:
    """Read back the text that ``format_hrep`` writes."""
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines or not lines[0].startswith("coords"):
        raise DocumentError("hrep text must start with a coords line")
    coords = lines[0].split()[1:]
    ineqs, eqs = [], []
    for line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        if kind == "ineq":
            values, rhs = parts[1:-2], Fraction(parts[-1])
            ineqs.append(LinearInequality(dict(zip(coords, map(Fraction, values))), rhs))
        elif kind == "eq":
            values, rhs = parts[1:-2], Fraction(parts[-1])
            eqs.append(LinearInequality(dict(zip(coords, map(Fraction, values))), rhs))
        else:
            raise DocumentError(f"unexpected hrep line {line!r}")
    return HRepresentation(coords, ineqs, eqs)


def write_doc(tmp_path, payload, name="poset.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SEGMENT_DOC = {
    "name": "segment",
    "elements": ["a", "b", "x"],
    "covers": [["a", "x"], ["x", "b"]],
    "marked": {"a": 0, "b": 1},
}

MIXED_DOC = {
    "name": "mixed",
    "elements": ["a", "c", "p", "b"],
    "covers": [["a", "c"], ["c", "p"], ["p", "b"]],
    "marked": {"a": 0, "b": 2},
    "partition": {"chain": ["c"], "order": ["p"]},
}


class TestValidate:
    def test_builtin_pm_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--builtin", "pm:3,1")
        assert code == 0
        assert "strict: true" in out and "regular: true" in out

    def test_equal_marks_fail_strictness(self, capsys, tmp_path):
        doc = {
            "name": "flat",
            "elements": ["a", "b"],
            "covers": [["a", "b"]],
            "marked": {"a": 1, "b": 1},
        }
        code, out, _ = run_cli(capsys, "validate", write_doc(tmp_path, doc))
        assert code == 1
        assert "strict: false" in out

    def test_cover_between_marks_is_irregular(self, capsys, tmp_path):
        # a(0) < b(1), both marked: the cover breaks regularity although no
        # row of the order polytope comes from it, and counting still answers
        doc = {"elements": ["a", "b"], "covers": [["a", "b"]], "marked": {"a": 0, "b": 1}}
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 1
        assert "strict: true" in out and "regular: false" in out
        assert "violation: regular ('a', 'b') b a" in out
        code, out, _ = run_cli(capsys, "ehrhart", path, "--family", "order", "--method", "count")
        assert code == 0
        assert out.strip() == "count: 1"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        doc = dict(SEGMENT_DOC, surprise=1)
        code, _, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
        assert code == 2

    def test_repeated_cover_is_usage_error(self, capsys, tmp_path):
        doc = dict(SEGMENT_DOC, covers=[["a", "x"], ["a", "x"], ["x", "b"]])
        code, _, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
        assert code == 2
        assert "repeated" in err

    @pytest.mark.parametrize("doc, message", [
        (["a"], "document must be a JSON object"),
        ({k: v for k, v in SEGMENT_DOC.items() if k != "covers"}, "missing field: covers"),
        (dict(SEGMENT_DOC, name=3), "name must be a string"),
        (dict(SEGMENT_DOC, elements=["a", "b", 1]), "elements must be a list of strings"),
        (dict(SEGMENT_DOC, covers=[["a", "x", "b"]]), "covers must be a list of [p, q] pairs"),
        (dict(SEGMENT_DOC, partition=["x"]), "partition must be an object with keys chain, order"),
        (dict(SEGMENT_DOC, partition={"chain": ["x"], "order": ["x"]}),
         "chain and order parts overlap"),
        (dict(SEGMENT_DOC, partition={"chain": []}),
         "partition does not cover the unmarked elements"),
        (dict(SEGMENT_DOC, covers=[["a", "x"], ["x", "z"]]),
         "cover ('x', 'z') references unknown element"),
        (dict(SEGMENT_DOC, covers=[["a", "x"], ["x", "x"], ["x", "b"]]),
         "cover ('x', 'x') is a loop"),
        (dict(SEGMENT_DOC, marked={"a": 0, "b": 1, "z": 2}),
         "marked element 'z' is not in the poset"),
        (dict(SEGMENT_DOC, marked={"b": 1}), "minimal element 'a' must be marked"),
        # a cover whose second end is no string, and one that is a string, not a list
        (dict(SEGMENT_DOC, covers=[["a", 1]]), "covers must be a list of [p, q] pairs"),
        (dict(SEGMENT_DOC, covers=["ax"]), "covers must be a list of [p, q] pairs"),
        (dict(SEGMENT_DOC, covers=[["a", ["x"]]]), "covers must be a list of [p, q] pairs"),
    ])
    def test_document_error_is_usage_error(self, capsys, tmp_path, doc, message):
        code, out, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # every subcommand, each --emit and --method: (argv, its top-level keys, its result keys)
    JSON_REPORTS = [
        (["validate", "--builtin", "figure1"], "input", "regular strict violations"),
        *((["polytope", "--builtin", "figure1", "--family", "chain", "--emit", emit],
           "emit family input", keys)
          for emit, keys in [("hrep", "coordinates equalities inequalities"),
                             ("vertices", "coordinates vertices"),
                             ("facets", "coordinates equalities inequalities")]),
        (["two-level", "--builtin", "pm:3,1", "--family", "order", "--method", "direct"],
         "family input method", "direct witness"),
        (["two-level", "--builtin", "figure1", "--family", "chain", "--method", "criterion"],
         "family input method", "criterion scaling"),
        (["two-level", "--builtin", "pm:3,1", "--family", "order", "--method", "both"],
         "family input method", "agree criterion direct witness"),
        (["ehrhart", "--builtin", "pm:3,1", "--family", "order", "--method", "formula"],
         "family input method", "formula"),
        (["ehrhart", "--builtin", "pm:3,1", "--family", "order", "--method", "count"],
         "family input method", "count"),
        (["ehrhart", "--builtin", "pm:3,1", "--family", "chain", "--method", "both"],
         "family input method", "count formula match"),
        (["corpus", "--seed", "1", "--trials", "2", "--max-unmarked", "3"], "input",
         "passed trials"),
    ]

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--builtin", "figure1", "--json")
        payload = json.loads(out)
        assert payload["command"] == "validate"
        assert payload["result"]["strict"] is True
        assert payload["result"]["regular"] is False
        for argv, fields, result_keys in self.JSON_REPORTS:
            code, out, err = run_cli(capsys, *argv, "--json")
            assert code in (0, 1) and err == ""
            payload = json.loads(out)
            assert payload["command"] == argv[0]
            assert sorted(payload) == sorted(["command", "result", *fields.split()])
            assert sorted(payload["result"]) == result_keys.split()
            assert out == json.dumps(payload, sort_keys=True) + "\n"


class TestPolytope:
    def test_figure_one_chain_facets(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--builtin", "figure1",
                               "--family", "chain", "--emit", "facets")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("ineq")]
        assert len(rows) == 4

    def test_diamond_order_vertices(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--builtin", "diamond:0,2",
                               "--family", "order", "--emit", "vertices")
        assert code == 0
        assert out.strip().splitlines() == ["0 0", "0 2", "2 0", "2 2"]

    def test_chain_order_without_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "polytope", "--builtin", "figure1",
                               "--family", "chain-order", "--emit", "hrep")
        assert code == 2
        assert "partition" in err

    def test_chain_order_with_partition(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "polytope", write_doc(tmp_path, MIXED_DOC),
                               "--family", "chain-order", "--emit", "vertices")
        assert code == 0
        assert out.strip().splitlines() == ["0 0", "0 2", "2 2"]

    @pytest.mark.parametrize("partition", [
        {"chain": "x"}, {"chain": None}, {"order": 1}, {"chain": "x", "order": ""},
    ])
    def test_partition_part_not_a_list_is_usage_error(self, capsys, tmp_path, partition):
        doc = dict(SEGMENT_DOC, partition=partition)
        code, _, err = run_cli(capsys, "polytope", write_doc(tmp_path, doc),
                               "--family", "chain-order", "--emit", "hrep")
        assert code == 2
        assert "partition parts" in err

    def test_hrep_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "polytope", write_doc(tmp_path, SEGMENT_DOC),
                               "--family", "chain", "--emit", "hrep")
        assert code == 0
        mp = MarkedPoset(Poset(["a", "b", "x"], [("a", "x"), ("x", "b")]), {"a": 0, "b": 1})
        reparsed = parse_hrep_text(out)
        assert enumerate_vertices(reparsed) == enumerate_vertices(build_chain_hrep(mp))

    def test_equalities_in_text(self, capsys):
        # a chain member with equal marks pins both unmarked coordinates to 0
        code, out, _ = run_cli(capsys, "polytope", "--builtin", "diamond:1,1",
                               "--family", "chain", "--emit", "facets")
        assert code == 0
        assert out.splitlines() == ["coords x y", "eq 0 1 == 0", "eq 1 0 == 0"]

    def test_format_parse_identity(self, figure_one):
        for h in (build_chain_hrep(figure_one), build_order_hrep(figure_one)):
            assert parse_hrep_text(format_hrep(h)) == h

    def test_chain_longer_than_recursion_limit(self, capsys, tmp_path):
        # the chain polytope of a long chain is a simplex: nonnegativity on the
        # n - 2 unmarked elements plus one chain-sum row
        n = 1500
        assert n > sys.getrecursionlimit()
        elements = [f"e{i:04d}" for i in range(n)]
        covers = [[p, q] for p, q in zip(elements, elements[1:])]
        marked = {elements[0]: 0, elements[-1]: 1}
        mp = MarkedPoset(Poset(elements, covers), marked)
        assert len(build_chain_hrep(mp).inequalities) == n - 1
        doc = {"name": "long", "elements": elements, "covers": covers, "marked": marked}
        code, out, _ = run_cli(capsys, "polytope", write_doc(tmp_path, doc),
                               "--family", "chain", "--emit", "hrep", "--json")
        assert code == 0
        assert len(json.loads(out)["result"]["inequalities"]) == n - 1


class TestDocumentOrder:
    """Listing a document's elements and covers in another order changes no output byte."""

    @staticmethod
    def outputs(doc):
        results = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "poset.json"
            path.write_text(json.dumps(doc))
            for argv in (["validate"], ["polytope", "--family", "order", "--emit", "hrep"],
                         ["polytope", "--family", "chain", "--emit", "hrep"],
                         ["polytope", "--family", "chain-order", "--emit", "hrep"],
                         ["polytope", "--family", "order", "--emit", "facets"],
                         ["polytope", "--family", "chain", "--emit", "facets"],
                         ["polytope", "--family", "chain-order", "--emit", "facets"]):
                for mode in ([], ["--json"]):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([argv[0], str(path), *argv[1:], *mode])
                    results.append((code, out.getvalue(), err.getvalue()))
        return results

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), regular=st.booleans(), data=st.data())
    def test_shuffled_document(self, seed, regular, data):
        # regular or not: validate lists every violation it finds, and facets
        # come from the poset on strict regular draws, from the vertices else
        rng = random.Random(seed)
        mp = random_marked_poset(rng, max_unmarked=5) if regular else None
        while mp is None:
            mp = _draw(rng, 6, 0, 3, 1)
        chain = sorted(e for e in mp.unmarked if rng.random() < 0.5)
        doc = {"name": "poset", "elements": list(mp.poset.elements),
               "covers": [list(c) for c in mp.poset.covers],
               "marked": {a: int(v) for a, v in sorted(mp.marking.items())},
               "partition": {"chain": chain, "order": sorted(set(mp.unmarked) - set(chain))}}
        shuffled = dict(doc, elements=data.draw(st.permutations(doc["elements"])),
                        covers=data.draw(st.permutations(doc["covers"])),
                        marked=dict(data.draw(st.permutations(list(doc["marked"].items())))),
                        partition={part: data.draw(st.permutations(ids))
                                   for part, ids in doc["partition"].items()})
        original = self.outputs(doc)
        assert original[0][0] in (0, 1) and all(code == 0 for code, _, _ in original[2:])
        assert self.outputs(shuffled) == original


def relabelled(doc, rng, keep_order):
    """The document under fresh element ids, covers and elements in a new order, and the map back.

    With ``keep_order`` the new ids sort like the old ones, so the coordinate
    order is kept; otherwise it is shuffled too.
    """
    old = sorted(doc["elements"])
    new = sorted(f"n{i}" for i in rng.sample(range(100, 1000), len(old)))
    if not keep_order:
        rng.shuffle(new)
    to_new = dict(zip(old, new))
    covers = [[to_new[p], to_new[q]] for p, q in doc["covers"]]
    elements = [to_new[e] for e in doc["elements"]]
    rng.shuffle(covers)
    rng.shuffle(elements)
    moved = {"name": doc["name"], "elements": elements, "covers": covers,
             "marked": {to_new[a]: v for a, v in doc["marked"].items()}}
    return moved, {b: a for a, b in to_new.items()}


def mapped_back(obj, back):
    """A parsed JSON answer with every id (as a value or a key) mapped through ``back``."""
    if isinstance(obj, dict):
        return {back.get(k, k): mapped_back(v, back) for k, v in obj.items()}
    if isinstance(obj, list):
        return [mapped_back(x, back) for x in obj]
    return back.get(obj, obj) if isinstance(obj, str) else obj


class TestRelabelling:
    """Relabelling ids and permuting covers changes no verdict, no vertex and no facet."""

    COMMANDS = [["two-level", "--family", "order", "--method", "both"],
                ["two-level", "--family", "chain", "--method", "both"],
                ["polytope", "--family", "order", "--emit", "vertices"],
                ["polytope", "--family", "chain", "--emit", "vertices"],
                ["polytope", "--family", "order", "--emit", "facets"],
                ["polytope", "--family", "chain", "--emit", "facets"]]

    @staticmethod
    def answers(doc):
        results = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "poset.json"
            path.write_text(json.dumps(doc))
            for argv in TestRelabelling.COMMANDS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main([argv[0], str(path), *argv[1:], "--json"])
                assert code == 0
                results.append(json.loads(out.getvalue()))
        return results

    @staticmethod
    def as_sets(answer):
        """The parts of an answer that do not depend on the coordinate order."""
        result = answer["result"]
        if answer["command"] == "two-level":
            return {k: v for k, v in result.items() if k != "witness"}
        if answer["emit"] == "vertices":
            return {tuple(sorted(zip(result["coordinates"], v))) for v in result["vertices"]}
        return {(kind, tuple(sorted(row["coeffs"].items())), row["rhs"])
                for kind in ("inequalities", "equalities") for row in result[kind]}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), keep_order=st.booleans())
    def test_relabelled_document(self, seed, keep_order):
        rng = random.Random(seed)
        mp = random_marked_poset(rng, max_unmarked=4)
        doc = {"name": "poset", "elements": list(mp.poset.elements),
               "covers": [list(c) for c in mp.poset.covers],
               "marked": {a: int(v) for a, v in mp.marking.items()}}
        moved, back = relabelled(doc, rng, keep_order)
        original = self.answers(doc)
        answers = [mapped_back(a, back) for a in self.answers(moved)]
        assert [self.as_sets(a) for a in answers] == [self.as_sets(a) for a in original]
        if keep_order:
            # the same coordinate order: the same bytes, witnesses included
            assert ([json.dumps(a, sort_keys=True) for a in answers]
                    == [json.dumps(a, sort_keys=True) for a in original])


class TestParserReuse:
    """``main`` builds its parser once; later calls answer byte for byte like a fresh one."""

    COMMANDS = [
        ["two-level", "--builtin", "pm:3,1", "--family", "order", "--method", "both"],
        ["polytope", "--builtin", "figure1", "--emit", "hrep"],
        ["two-level", "--builtin", "figure1", "--family", "order", "--method", "criterion"],
        ["polytope", "--builtin", "figure1", "--family", "chain", "--emit", "facets", "--json"],
        ["validate", "--builtin", "pm:2,1"],
        ["ehrhart", "--builtin", "figure1", "--family", "order", "--method", "formula"],
        ["nonsense"],
        ["two-level", "--builtin", "figure1", "--family", "chain", "--method", "both", "--json"],
        ["ehrhart", "--builtin", "diamond:2,2", "--family", "order", "--method", "formula"],
        ["polytope", "--builtin", "figure1", "--family", "order", "--emit", "vertices"],
        ["corpus", "--trials", "-1"],
        ["validate", "--builtin", "figure1", "--json"],
    ]

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_interleaved_commands_match_a_fresh_parser(self):
        fresh = []
        for argv in self.COMMANDS:
            cli._parser.cache_clear()
            fresh.append(self.run(argv))
        assert {code for code, _, _ in fresh} == {0, 1, 2}
        parser = cli._parser()
        assert [self.run(argv) for argv in self.COMMANDS] == fresh
        assert cli._parser() is parser


class TestTwoLevel:
    def test_order_both_agree_true(self, capsys):
        code, out, _ = run_cli(capsys, "two-level", "--builtin", "pm:3,1",
                               "--family", "order", "--method", "both")
        assert code == 0
        assert "AGREE" in out
        assert "direct: false" in out and "criterion: false" in out

    def test_trapezoid_poset_disagrees_nowhere(self, capsys, tmp_path):
        doc = {
            "name": "trapezoid",
            "elements": ["a", "m", "b", "x", "y"],
            "covers": [["a", "x"], ["x", "y"], ["m", "y"], ["y", "b"]],
            "marked": {"a": 0, "m": 1, "b": 2},
        }
        code, out, _ = run_cli(capsys, "two-level", write_doc(tmp_path, doc),
                               "--family", "order", "--method", "both")
        assert code == 0
        assert "direct: false" in out and "criterion: false" in out and "AGREE" in out

    def test_chain_both_with_scaling(self, capsys):
        code, out, _ = run_cli(capsys, "two-level", "--builtin", "figure1",
                               "--family", "chain", "--method", "both")
        assert code == 0
        assert "direct: true" in out and "criterion: true" in out and "AGREE" in out
        assert "scaling: x1=1 x2=1" in out

    def test_criterion_hypothesis_failure_exits_one(self, capsys):
        # figure1 is strict but irregular: the order criterion refuses
        code, _, err = run_cli(capsys, "two-level", "--builtin", "figure1",
                               "--family", "order", "--method", "criterion")
        assert code == 1
        assert "regular" in err

    def test_chain_order_criterion(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "two-level", write_doc(tmp_path, MIXED_DOC),
                               "--family", "chain-order", "--method", "criterion")
        assert code == 0
        assert out == "criterion: true\n"
        code, out, err = run_cli(capsys, "two-level", "--builtin", "figure1",
                                 "--family", "chain-order", "--method", "criterion")
        assert code == 2
        assert out == ""
        assert err == "error: family chain-order requires a partition\n"


class TestEhrhart:
    def test_pm31_both_match(self, capsys):
        code, out, _ = run_cli(capsys, "ehrhart", "--builtin", "pm:3,1",
                               "--family", "order", "--method", "both")
        assert code == 0
        assert "formula: 1, 3, 3, 1" in out
        assert "count: 1, 3, 3, 1" in out
        assert "MATCH" in out

    def test_segment_count(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "ehrhart", write_doc(tmp_path, SEGMENT_DOC),
                               "--family", "order", "--method", "count")
        assert code == 0
        assert out.strip() == "count: 1, 1"

    def test_pm41_formula(self, capsys):
        code, out, _ = run_cli(capsys, "ehrhart", "--builtin", "pm:4,1",
                               "--family", "order", "--method", "formula")
        assert code == 0
        assert "formula: 1, 5, 9, 7, 2" in out

    def test_chain_family_notes_equivalence(self, capsys):
        code, out, _ = run_cli(capsys, "ehrhart", "--builtin", "pm:3,1",
                               "--family", "chain", "--method", "both")
        assert code == 0
        assert "note:" in out and "MATCH" in out

    def test_formula_needs_no_partition(self, capsys):
        # only the count builds the chain-order polytope, so only it needs a partition
        code, out, err = run_cli(capsys, "ehrhart", "--builtin", "diamond",
                                 "--family", "chain-order", "--method", "formula")
        assert code == 0 and err == ""
        assert out == ("note: formula computed on the order member; "
                       "the families share one Ehrhart polynomial\nformula: 1, 4, 4\n")
        code, out, err = run_cli(capsys, "ehrhart", "--builtin", "diamond",
                                 "--family", "chain-order", "--method", "count")
        assert code == 2 and out == ""
        assert err == "error: family chain-order requires a partition\n"

    def test_missing_partition_fails_before_the_formula(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "ehrhart_formula_marked_order", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(capsys, "ehrhart", "--builtin", "pm:9,1",
                                 "--family", "chain-order", "--method", "both")
        assert code == 2 and out == ""
        assert err == "error: family chain-order requires a partition\n"
        assert calls == []

    def test_non_integral_marking_count_fails(self, capsys, tmp_path):
        # marked values must be integers already at the document level
        doc = dict(SEGMENT_DOC, marked={"a": 0, "b": True})
        code, _, err = run_cli(capsys, "ehrhart", write_doc(tmp_path, doc),
                               "--family", "order", "--method", "count")
        assert code == 2

    def test_recursion_limit_is_one_error_line(self, capsys, monkeypatch):
        # a route that still recurses once per element must end in an error
        # line, not a traceback, when its input is deeper than the limit
        def deep(mp, depth=0):
            return deep(mp, depth + 1)

        monkeypatch.setattr(cli, "ehrhart_formula_marked_order", deep)
        code, out, err = run_cli(capsys, "ehrhart", "--builtin", "pm:3,1",
                                 "--family", "order", "--method", "formula")
        assert code == 1
        assert out == ""
        assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1

    def test_chain_longer_than_recursion_limit(self, capsys, tmp_path):
        # one word with one segment of k letters and no descents: C(n + k, k)
        k = 1200
        assert k > sys.getrecursionlimit()
        elements = ["a", *(f"x{i:04d}" for i in range(k)), "b"]
        doc = {"name": "long", "elements": elements,
               "covers": [[p, q] for p, q in zip(elements, elements[1:])],
               "marked": {"a": 0, "b": 1}}
        code, out, _ = run_cli(capsys, "ehrhart", write_doc(tmp_path, doc),
                               "--family", "order", "--method", "formula", "--json")
        assert code == 0
        formula = polynomial(Fraction(c) for c in json.loads(out)["result"]["formula"])
        assert formula.degree == k
        assert formula.coefficients[-1] == Fraction(1, math.factorial(k))
        for n in (0, 1, 2, 7):
            assert formula.evaluate(n) == math.comb(n + k, k)


class TestCorpus:
    def test_small_corpus_passes(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--seed", "1", "--trials", "5",
                               "--max-unmarked", "3")
        assert code == 0
        assert "5/5 pass" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "-1", "--trials must be at least 0, got -1"),
        ("--max-unmarked", "0", "--max-unmarked must be at least 1, got 0"),
    ])
    def test_out_of_range_count_is_usage_error(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "corpus", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_zero_trials_vacuous(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--trials", "0")
        assert code == 0
        assert "0/0 pass" in out

    def test_seed_repeat_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "corpus", "--seed", "7", "--trials", "4")
        _, second, _ = run_cli(capsys, "corpus", "--seed", "7", "--trials", "4")
        assert first == second


class TestWorkCap:
    def test_env_cap_limits_enumeration(self, capsys, monkeypatch):
        monkeypatch.setenv("MPP_WORK_CAP", "1")
        code, _, err = run_cli(capsys, "polytope", "--builtin", "figure1",
                               "--family", "chain", "--emit", "vertices")
        assert code == 1
        assert "cap" in err
        assert err.endswith("exceed the work cap 1; set MPP_WORK_CAP to raise it\n")

    def test_env_cap_limits_extension_stream(self, capsys, monkeypatch):
        monkeypatch.setenv("MPP_WORK_CAP", "1")
        code, _, err = run_cli(capsys, "ehrhart", "--builtin", "pm:4,1",
                               "--family", "order", "--method", "formula")
        assert code == 1
        assert err == ("error: more than 1 restricted linear extensions"
                       "; set MPP_WORK_CAP to raise it\n")

    def test_env_cap_limits_lattice_walk(self, capsys, monkeypatch, tmp_path):
        # the unit 9-cube: 512 vertices stay under the ray cap, its dilates not under the node cap
        xs = [f"x{i}" for i in range(9)]
        doc = {"name": "cube", "elements": ["bot", *xs, "top"],
               "covers": [["bot", x] for x in xs] + [[x, "top"] for x in xs],
               "marked": {"bot": 0, "top": 1}}
        monkeypatch.setenv("MPP_WORK_CAP", "1000")
        code, out, err = run_cli(capsys, "ehrhart", write_doc(tmp_path, doc),
                                 "--family", "order", "--method", "count")
        assert code == 1
        assert out == ""
        assert err == "error: more than 1000 lattice-walk nodes; set MPP_WORK_CAP to raise it\n"

    def test_env_cap_reaches_corpus_extension_stream(self, capsys, monkeypatch):
        caps = []

        def spy(default):
            caps.append(work_cap(default))
            return caps[-1]

        work_cap = ehrhart._work_cap
        monkeypatch.setattr(ehrhart, "_work_cap", spy)
        monkeypatch.setenv("MPP_WORK_CAP", "123456")
        code, out, _ = run_cli(capsys, "corpus", "--seed", "1", "--trials", "2",
                               "--max-unmarked", "2")
        assert code == 0 and "2/2 pass" in out
        assert caps == [123456, 123456]

    def test_malformed_env_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MPP_WORK_CAP", "lots")
        code, out, err = run_cli(capsys, "polytope", "--builtin", "figure1",
                                 "--family", "chain", "--emit", "vertices")
        assert code == 2
        assert out == ""
        assert err == "error: MPP_WORK_CAP must be an integer, got 'lots'\n"

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_env_cap_is_usage_error(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("MPP_WORK_CAP", cap)
        code, out, err = run_cli(capsys, "polytope", "--builtin", "figure1",
                                 "--family", "chain", "--emit", "vertices")
        assert code == 2
        assert out == ""
        assert err == f"error: MPP_WORK_CAP must be a positive integer, got '{cap}'\n"

    def test_malformed_env_cap_unread_without_enumeration(self, capsys, monkeypatch):
        monkeypatch.setenv("MPP_WORK_CAP", "lots")
        code, out, _ = run_cli(capsys, "polytope", "--builtin", "figure1",
                               "--family", "chain", "--emit", "hrep")
        assert code == 0 and out.startswith("coords ")


class TestUsage:
    def test_missing_family_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "polytope", "--builtin", "figure1",
                             "--emit", "hrep")
        assert code == 2

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--builtin", "nonsense")
        assert code == 2

    def test_builtin_rejecting_its_arguments(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--builtin", "pm:2,1")
        assert code == 2
        assert out == "" and err == "error: family needs m >= 3\n"

    def test_no_input(self, capsys):
        code, _, err = run_cli(capsys, "validate")
        assert code == 2

    def test_file_and_builtin_is_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, SEGMENT_DOC)
        code, out, err = run_cli(capsys, "validate", path, "--builtin", "figure1")
        assert code == 2
        assert out == "" and err == "error: give either a file or --builtin, not both\n"

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"elements": ["a"], "marked": {"a": 0}, "covers": ' + "[" * 100000 + "]" * 100000 + "}",
    ], ids=["top-level", "covers"])
    def test_document_nested_too_deeply_is_parse_error(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == "" and err == "error: document is nested too deeply to parse\n"

    @pytest.mark.parametrize("builtin, form", [
        ("diamond:1", "diamond:lo,hi"),
        ("diamond:a,b", "diamond:lo,hi"),
        ("pm:3", "pm:m,c"),
        # a colon with nothing after it is no request for the defaults
        ("diamond:", "diamond:lo,hi"),
        ("pm:", "pm:m,c"),
    ])
    def test_malformed_builtin_arguments(self, capsys, builtin, form):
        code, out, err = run_cli(capsys, "validate", "--builtin", builtin)
        assert code == 2
        assert out == ""
        assert err == f"error: builtin '{builtin}' must have the form {form} with two integers\n"

    @pytest.mark.parametrize("builtin", ["figure1:7,7", "figure1:x", "figure1:"])
    def test_figure1_takes_no_arguments(self, capsys, builtin):
        code, out, err = run_cli(capsys, "validate", "--builtin", builtin)
        assert code == 2
        assert out == ""
        assert err == f"error: builtin '{builtin}' must have the form figure1 with no arguments\n"
