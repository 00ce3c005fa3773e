"""The four benchmark workloads: their inputs, their mpp commands and the checks on the answers.

Every workload is a fixed set of mathematical problems in a fixed command
order.  The run seed relabels the element ids (so the lexicographic
coordinate order changes) and shuffles the element and cover order inside
each JSON document; the problems themselves do not change.  Why: the cost of one problem
is heavy-tailed (one 5-element acceptance-corpus instance takes 0.4 s, another
7.9 s), so drawing the problems from the run seed moves the workload's
throughput by far more than any regression bound could tolerate.  The random
parts of the problem sets come from the package's own seeded generator at the
fixed pool seeds below.

Each builder takes the imported package, the run's random.Random and a
``write(name, document) -> path`` callable, and returns the command list.
Nothing here runs an mpp command; the runner does, and calls ``Command.check``
on each parsed JSON answer outside the timed commands.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

CROSSVAL_CORPUS_SEED = 20250808  # the acceptance corpus (tests/test_acceptance.py)
FORMULA_POOL_SEED = 20250809
VERTEX_POOL_SEED = 20250810

# formula-wide keeps posets whose restricted linear extensions number between
# these bounds, so that each command takes tens to hundreds of milliseconds.
FORMULA_WORDS = (60, 400)


class WrongAnswer(Exception):
    """An answer that the workload's checks reject."""


@dataclass
class Structure:
    """A marked poset as plain data: element ids, covers p < q and integer marks."""

    elements: list[str]
    covers: list[tuple[str, str]]
    marked: dict[str, int]

    @property
    def unmarked(self) -> list[str]:
        return sorted(e for e in self.elements if e not in self.marked)


@dataclass
class Command:
    """One mpp invocation and the check on its answer.

    ``check`` receives the parsed ``--json`` payload and returns a value that
    must be equal across every command of the same ``group`` (or None), or
    raises WrongAnswer.  ``expect_code`` is the exit code a right answer has.
    """

    argv: list[str]
    check: Callable[[dict], object]
    expect_code: int = 0
    group: str | None = None


# ---------------------------------------------------------------------------
# documents


def relabel(s: Structure, rng: random.Random) -> dict:
    """The JSON document of ``s`` under fresh ids drawn from ``rng``."""
    width = len(str(len(s.elements)))
    names = [f"e{i:0{width}d}" for i in range(len(s.elements))]
    rng.shuffle(names)
    rename = dict(zip(s.elements, names))
    elements = [rename[e] for e in s.elements]
    covers = [[rename[p], rename[q]] for p, q in s.covers]
    rng.shuffle(elements)
    rng.shuffle(covers)
    marked = {rename[a]: v for a, v in s.marked.items()}
    return {"elements": elements, "covers": covers, "marked": marked}


def structure_of(doc: dict) -> Structure:
    return Structure(list(doc["elements"]), [tuple(c) for c in doc["covers"]], dict(doc["marked"]))


def with_partition(doc: dict, chain) -> dict:
    order = [e for e in structure_of(doc).unmarked if e not in chain]
    return dict(doc, partition={"chain": sorted(chain), "order": order})


def from_marked_poset(mp) -> Structure:
    return Structure(list(mp.poset.elements), list(mp.poset.covers),
                     {a: int(v) for a, v in mp.marking.items()})


def ladder(k: int) -> Structure:
    """Two k-chains x, y with rungs x_i < y_i, between marks 0 and 2 (dimension 2k)."""
    x = [f"x{i}" for i in range(k)]
    y = [f"y{i}" for i in range(k)]
    covers = [("bot", x[0]), (y[-1], "top")]
    covers += [(x[i], x[i + 1]) for i in range(k - 1)]
    covers += [(y[i], y[i + 1]) for i in range(k - 1)]
    covers += [(x[i], y[i]) for i in range(k)]
    return Structure(["bot", "top"] + x + y, covers, {"bot": 0, "top": 2})


def antichain(k: int, top: int = 1) -> Structure:
    """k incomparable unmarked elements between bot (mark 0) and top; top=1 is the unit cube."""
    x = [f"x{i}" for i in range(k)]
    covers = [("bot", e) for e in x] + [(e, "top") for e in x]
    return Structure(["bot", "top"] + x, covers, {"bot": 0, "top": top})


def chain(n: int) -> Structure:
    """A chain of n elements whose two ends are marked 0 and 1."""
    c = [f"c{i}" for i in range(n)]
    return Structure(c, [(c[i], c[i + 1]) for i in range(n - 1)], {c[0]: 0, c[-1]: 1})


def fence(n: int) -> Structure:
    """A zigzag u0 < u1 > u2 < ... of n unmarked elements; valleys above bot (0), peaks below top (3)."""
    u = [f"u{i}" for i in range(n)]
    covers = [("bot", u[i]) if i % 2 == 0 else (u[i], "top") for i in range(n)]
    covers += [(u[i], u[i + 1]) if i % 2 == 0 else (u[i + 1], u[i]) for i in range(n - 1)]
    return Structure(["bot", "top"] + u, covers, {"bot": 0, "top": 3})


def restricted_word_count(s: Structure, cap: int) -> int | None:
    """Linear extensions with the (distinct) marks increasing, or None past ``cap`` order ideals.

    This is the number of words the formula route streams; counted by a DP
    over order ideals so that sizing the pool costs no extension streaming.
    """
    index = {e: i for i, e in enumerate(s.elements)}
    pred = [0] * len(s.elements)
    for p, q in s.covers:
        pred[index[q]] |= 1 << index[p]
    by_mark = sorted(s.marked, key=s.marked.__getitem__)
    for a, b in zip(by_mark, by_mark[1:]):
        pred[index[b]] |= 1 << index[a]
    level = {0: 1}
    for _ in s.elements:
        nxt: dict[int, int] = {}
        for mask, count in level.items():
            for i, need in enumerate(pred):
                if not mask >> i & 1 and need & mask == need:
                    grown = mask | 1 << i
                    nxt[grown] = nxt.get(grown, 0) + count
        if len(nxt) > cap:
            return None
        level = nxt
    return sum(level.values())


# ---------------------------------------------------------------------------
# answer checks


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise WrongAnswer(reason)


def coefficients(strings) -> list[Fraction]:
    return [Fraction(c) for c in strings]


def binomial_power(k: int) -> list[Fraction]:
    """Coefficients of (n + 1)^k, the Ehrhart polynomial of the k-cube."""
    return [Fraction(math.comb(k, i)) for i in range(k + 1)]


def check_match(payload: dict):
    result = payload["result"]
    require(result["match"] is True, "formula and count disagree")
    require(result["formula"] == result["count"], "MATCH with different polynomials")
    return tuple(result["count"])


def check_match_to(expected: list[Fraction]):
    def check(payload: dict):
        value = check_match(payload)
        require(coefficients(value) == expected, f"count {list(value)} != {expected}")
        return value
    return check


def check_count(payload: dict):
    return tuple(payload["result"]["count"])


def check_agree(payload: dict):
    result = payload["result"]
    require(result["agree"] is True, "direct test and criterion disagree")
    require(result["direct"] == result["criterion"], "AGREE with different verdicts")
    return None


def check_polynomial(expected: list[Fraction], key: str):
    def check(payload: dict):
        got = coefficients(payload["result"][key])
        require(got == expected, f"{key} polynomial {got} != {expected}")
        return None
    return check


def check_formula_shape(dimension: int):
    """P(0) = 1, degree = number of unmarked elements, dim! * leading coeff a positive integer."""
    def check(payload: dict):
        poly = coefficients(payload["result"]["formula"])
        require(poly and poly[0] == 1, "P(0) != 1")
        require(len(poly) - 1 == dimension, f"degree {len(poly) - 1} != {dimension}")
        volume = poly[-1] * math.factorial(dimension)
        require(volume.denominator == 1 and volume > 0, f"{dimension}! * leading = {volume}")
        return None
    return check


def row_key(coeffs: dict, rhs) -> tuple:
    return tuple(sorted((c, int(a)) for c, a in coeffs.items())), Fraction(rhs)


def payload_rows(payload: dict) -> list[tuple]:
    return [row_key(r["coeffs"], r["rhs"]) for r in payload["result"]["inequalities"]]


def marked_poset(lib, s: Structure):
    return lib.MarkedPoset(lib.Poset(s.elements, s.covers), s.marked)


def check_order_facets(lib, s: Structure):
    """The CLI's order facets equal the combinatorial facet list (one per cover)."""
    def check(payload: dict):
        expected = sorted(row_key(f.coeffs, f.rhs)
                          for f in lib.order_facets_combinatorial(marked_poset(lib, s)))
        require(sorted(payload_rows(payload)) == expected, "order facets differ from the covers")
        require(not payload["result"]["equalities"], "order facets carry equalities")
        return None
    return check


def check_chain_facets(lib, s: Structure):
    """Chain facets: rows of the chain H-rep, including every nonnegativity row."""
    def check(payload: dict):
        got = set(payload_rows(payload))
        hrep = lib.build_chain_hrep(marked_poset(lib, s))
        rows = {row_key(i.coeffs, i.rhs) for i in hrep.inequalities}
        require(got <= rows, "a chain facet is not a chain H-rep row")
        require({row_key({p: -1}, 0) for p in s.unmarked} <= got,
                "a nonnegativity row is missing from the chain facets")
        require(not payload["result"]["equalities"], "chain facets carry equalities")
        return None
    return check


def check_hrep_rows(s: Structure, rows: int):
    def check(payload: dict):
        result = payload["result"]
        require(result["coordinates"] == s.unmarked, "coordinates are not the unmarked ids")
        require(not result["equalities"], "unexpected equalities")
        got = len(result["inequalities"])
        require(got == rows, f"{got} H-rep rows, expected {rows}")
        return None
    return check


def check_validate(strict: bool, regular: bool, violations: int):
    def check(payload: dict):
        result = payload["result"]
        require(result["strict"] is strict, f"strict should be {strict}")
        require(result["regular"] is regular, f"regular should be {regular}")
        require(len(result["violations"]) == violations,
                f"{len(result['violations'])} violations, expected {violations}")
        return None
    return check


# ---------------------------------------------------------------------------
# workloads


def crossval(lib, rng, write, tiny=False) -> list[Command]:
    """The acceptance cross-validation: every route pair on every small problem."""
    instances = lib.corpus.corpus(CROSSVAL_CORPUS_SEED, 2 if tiny else 20,
                                  max_unmarked=5, mark_lo=0, mark_hi=4)
    commands: list[Command] = []
    for i, mp in enumerate(instances):
        doc = relabel(from_marked_poset(mp), rng)
        path = write(f"crossval-{i}", doc)
        group = f"crossval-{i}"
        commands += [
            Command(["ehrhart", path, "--family", "order", "--method", "both"], check_match, group=group),
            Command(["ehrhart", path, "--family", "chain", "--method", "count"], check_count, group=group),
            Command(["two-level", path, "--family", "order", "--method", "both"], check_agree),
            Command(["two-level", path, "--family", "chain", "--method", "both"], check_agree),
        ]
        unmarked = structure_of(doc).unmarked
        subsets = itertools.chain.from_iterable(
            itertools.combinations(unmarked, r) for r in range(len(unmarked) + 1))
        for j, part in enumerate(subsets):
            part_path = write(f"crossval-{i}-{j}", with_partition(doc, part))
            commands += [
                Command(["ehrhart", part_path, "--family", "chain-order", "--method", "count"],
                        check_count, group=group),
                Command(["two-level", part_path, "--family", "chain-order", "--method", "both"],
                        check_agree),
            ]
    fixed = [(f"ladder-{k}", ladder(k), check_match) for k in ((2,) if tiny else (2, 3))]
    fixed += [(f"cube-{k}", antichain(k), check_match_to(binomial_power(k)))
              for k in range(1, 3 if tiny else 7)]
    for name, s, check in fixed:
        path = write(name, relabel(s, rng))
        commands.append(Command(["ehrhart", path, "--family", "order", "--method", "both"], check))
    return commands


def formula_wide(lib, rng, write, tiny=False) -> list[Command]:
    """The extension-formula route alone, on wide posets, the pm family and cubes."""
    pool_rng = random.Random(FORMULA_POOL_SEED)
    pool: list[Structure] = []
    while len(pool) < (2 if tiny else 20):
        s = from_marked_poset(lib.corpus.random_marked_poset(
            pool_rng, max_unmarked=9, min_unmarked=7, mark_lo=0, mark_hi=4))
        if len(set(s.marked.values())) < len(s.marked):
            continue  # tied marks: the word count would depend on the relabelling
        words = restricted_word_count(s, cap=4000)
        if words is not None and FORMULA_WORDS[0] <= words <= FORMULA_WORDS[1]:
            pool.append(s)
    commands = []
    for i, s in enumerate(pool):
        doc = relabel(s, rng)
        path = write(f"wide-{i}", doc)
        commands.append(Command(["ehrhart", path, "--family", "order", "--method", "formula"],
                                check_formula_shape(len(s.unmarked))))
    for m in ((4,) if tiny else range(4, 41, 4)):
        expected = list(lib.pm_closed_form(m, 1).coefficients)
        commands.append(Command(["ehrhart", "--builtin", f"pm:{m},1", "--family", "order",
                                 "--method", "formula"], check_polynomial(expected, "formula")))
    for k in range(1, 4 if tiny else 8):
        doc = relabel(antichain(k), rng)
        path = write(f"cube-{k}", doc)
        commands.append(Command(["ehrhart", path, "--family", "order", "--method", "formula"],
                                check_polynomial(binomial_power(k), "formula")))
    return commands


def vertex_facet(lib, rng, write, tiny=False) -> list[Command]:
    """Vertex enumeration and facet classification, with no lattice counting."""
    pool_rng = random.Random(VERTEX_POOL_SEED)
    pool = [(f"vertex-{i}", from_marked_poset(lib.corpus.random_marked_poset(
                pool_rng, max_unmarked=8, min_unmarked=6, mark_lo=0, mark_hi=4)))
            for i in range(2 if tiny else 12)]
    pool += [(f"ladder-{k}", ladder(k)) for k in ((2,) if tiny else range(2, 7))]
    commands = []
    for name, s in pool:
        doc = relabel(s, rng)
        path = write(name, doc)
        s = structure_of(doc)
        commands += [
            Command(["two-level", path, "--family", "order", "--method", "both"], check_agree),
            Command(["two-level", path, "--family", "chain", "--method", "both"], check_agree),
            Command(["polytope", path, "--family", "chain", "--emit", "facets"],
                    check_chain_facets(lib, s)),
            Command(["polytope", path, "--family", "order", "--emit", "facets"],
                    check_order_facets(lib, s)),
        ]
    return commands


def large_poset(lib, rng, write, tiny=False) -> list[Command]:
    """Poset construction, validation, H-rep build and JSON emission on 300-1500 elements.

    Each entry: structure, order rows, chain rows, and the validate verdict
    (strict, regular, number of violations).  The 1500-chain's chain-family
    command overflows Python's recursion limit in maximal_marked_chains; it
    stays in and counts as a failure until that is fixed.
    """
    if tiny:
        sizes = {"chain": (30,), "antichain": (20,), "fence": (20,), "tied": (10,)}
    else:
        sizes = {"chain": (300, 400, 500, 800, 1500), "antichain": (300, 400, 500, 900),
                 "fence": (300, 400, 500, 900), "tied": (300,)}
    cases = [(f"chain-{n}", chain(n), n - 1, n - 1, (True, True, 0)) for n in sizes["chain"]]
    cases += [(f"antichain-{w}", antichain(w), 2 * w, 2 * w, (True, True, 0))
              for w in sizes["antichain"]]
    cases += [(f"fence-{n}", fence(n), 2 * n - 1, 2 * n - 1, (True, True, 0)) for n in sizes["fence"]]
    # equal marks on bot < top: one strictness and 2w regularity violations
    cases += [(f"tied-{w}", antichain(w, top=0), 2 * w, 2 * w, (False, False, 2 * w + 1))
              for w in sizes["tied"]]
    commands = []
    for name, s, order_rows, chain_rows, verdict in cases:
        doc = relabel(s, rng)
        path = write(name, doc)
        s = structure_of(doc)
        commands += [
            Command(["validate", path], check_validate(*verdict),
                    expect_code=0 if verdict[0] and verdict[1] else 1),
            Command(["polytope", path, "--family", "order", "--emit", "hrep"],
                    check_hrep_rows(s, order_rows)),
            Command(["polytope", path, "--family", "chain", "--emit", "hrep"],
                    check_hrep_rows(s, chain_rows)),
        ]
    return commands


WORKLOADS = {
    "crossval": crossval,
    "formula-wide": formula_wide,
    "vertex-facet": vertex_facet,
    "large-poset": large_poset,
}
