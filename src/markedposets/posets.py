"""Finite posets, marked posets, and linear-extension machinery.

Elements are opaque string ids; every deterministic ordering in this module
is lexicographic in those ids.  Posets are stored by their covering relations
(the Hasse diagram) and are validated to be acyclic with an irredundant cover
set.  The order itself is held as one int bitmask per element: bit i of an
element's up-set is the i-th element of the topological order, so comparisons
are bit tests and n elements hold their order in at most n^2 bits.
Linear extensions are walked on a second bitmask view, ranked by a natural
labeling: bit i is the i-th element in label order, so the lowest bit of an
available set is its smallest label.  The empty poset has one extension,
the empty word.
A marked poset attaches an order-preserving rational marking to a subset of
elements that must contain all minimal and maximal elements.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import PreconditionViolated


class Poset:
    """A finite poset given by elements and covering relations p < q.

    The covers must be irredundant: a repeated cover, or one implied by the
    others, raises.  :meth:`from_relations` takes any strict relations and
    reduces them to covers instead.  Both go through ``_set_up``.
    """

    def __init__(self, elements: Iterable[str], covers: Iterable[tuple[str, str]]):
        self._set_up(elements, covers, "cover")

    def _set_up(self, elements: Iterable[str], pairs: Iterable[tuple[str, str]], kind: str) -> None:
        """Check the elements and the pairs, of ``kind`` "cover" or "relation", then store the
        covers and the order.

        One loop checks every pair: an unknown end or a loop raises, a
        repeated cover raises and a repeated relation is skipped.  One
        ``_up_sets`` call on the distinct pairs then gives the topological
        order, the up-set bitmasks and the implied pairs: an implied cover
        raises, naming the first in input order, and implied relations are
        dropped.  Covers keep their input order; the covers that relations
        reduce to are listed by lower end in element order, then by upper end.
        """
        self.elements: tuple[str, ...] = tuple(elements)
        known = set(self.elements)
        if len(known) != len(self.elements):
            raise ValueError("duplicate element ids")
        distinct: dict[tuple[str, str], None] = {}  # a set that keeps the input order
        up: dict[str, list[str]] = {e: [] for e in self.elements}
        for p, q in pairs:
            if p not in known or q not in known:
                raise ValueError(f"{kind} ({p!r}, {q!r}) references unknown element")
            if p == q:
                raise ValueError(f"{kind} ({p!r}, {q!r}) is a loop")
            if (p, q) in distinct:
                if kind == "cover":
                    raise ValueError(f"cover ({p!r}, {q!r}) is repeated")
                continue
            distinct[p, q] = None
            up[p].append(q)
        order, self._above, implied = _up_sets(self.elements, up)
        if implied:
            if kind == "cover":
                p, q = next(pair for pair in distinct if pair in implied)
                raise ValueError(f"cover ({p!r}, {q!r}) is implied by other covers")
            up = {p: [q for q in succ if (p, q) not in implied] for p, succ in up.items()}
        self._up_covers: dict[str, tuple[str, ...]] = {e: tuple(sorted(up[e])) for e in self.elements}
        self.covers: tuple[tuple[str, str], ...] = tuple(distinct) if kind == "cover" else tuple(
            (p, q) for p in self.elements for q in self._up_covers[p])
        down: dict[str, list[str]] = {e: [] for e in self.elements}
        for p, q in self.covers:
            down[q].append(p)
        self._down_covers: dict[str, tuple[str, ...]] = {e: tuple(sorted(down[e])) for e in self.elements}
        self._order: tuple[str, ...] = tuple(order)
        self._index: dict[str, int] = {e: i for i, e in enumerate(order)}

    def topological_order(self) -> list[str]:
        """Elements in a topological order (smallest id first among available)."""
        return list(self._order)

    @classmethod
    def from_relations(cls, elements: Iterable[str], relations: Iterable[tuple[str, str]]) -> "Poset":
        """Build a poset from arbitrary strict relations: repeated and implied ones are dropped,
        and the closure runs once."""
        poset = cls.__new__(cls)
        poset._set_up(elements, relations, "relation")
        return poset

    def leq(self, p: str, q: str) -> bool:
        """p <= q in the transitive closure of the covers."""
        index = self._index
        if p not in index or q not in index:
            raise KeyError(f"unknown element id {p if p not in index else q!r}")
        return p == q or bool(self._above[index[p]] >> index[q] & 1)

    def less(self, p: str, q: str) -> bool:
        return p != q and self.leq(p, q)

    def upper_covers(self, p: str) -> tuple[str, ...]:
        return self._up_covers[p]

    def lower_covers(self, p: str) -> tuple[str, ...]:
        return self._down_covers[p]

    def minimals(self) -> tuple[str, ...]:
        return tuple(sorted(e for e in self.elements if not self._down_covers[e]))

    def maximals(self) -> tuple[str, ...]:
        return tuple(sorted(e for e in self.elements if not self._up_covers[e]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return (sorted(self.elements) == sorted(other.elements)
                and sorted(self.covers) == sorted(other.covers))

    def __repr__(self) -> str:
        return f"Poset(elements={list(self.elements)!r}, covers={list(self.covers)!r})"


def _topological_order(nodes: Iterable[Hashable], succ: Mapping) -> list:
    """The nodes of the graph ``succ`` in a topological order, smallest first among available."""
    indeg = {v: 0 for v in nodes}
    for v in indeg:
        for w in succ[v]:
            indeg[w] += 1
    avail = sorted(v for v in indeg if indeg[v] == 0)  # a sorted list is a heap
    out: list = []
    while avail:
        v = heapq.heappop(avail)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(avail, w)
    if len(out) != len(indeg):
        raise ValueError("cover relation contains a cycle")
    return out


def _up_sets(nodes: Iterable[Hashable], succ: Mapping) -> tuple[list, list[int], set]:
    """The topological order of the graph ``succ``, each node's strict up-set, and the implied edges.

    Up-sets are bitmasks indexed like the order: bit j of ``above[i]`` says
    that ``order[j]`` lies above ``order[i]``.  An edge v -> w is implied when
    w lies above another successor of v.  One pass in reverse topological order
    finds both (the bit-vector form of Warshall's closure); raises on a cycle.
    """
    order = _topological_order(nodes, succ)
    index = {v: i for i, v in enumerate(order)}
    above = [0] * len(order)
    implied: set = set()
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        acc = 0
        for w in succ[v]:
            acc |= above[index[w]]
        for w in succ[v]:
            bit = 1 << index[w]
            if acc & bit:
                implied.add((v, w))
            acc |= bit
        above[i] = acc
    return order, above, implied


def _members(mask: int, order: Sequence) -> list:
    """The entries of ``order`` whose bits are set in ``mask``, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(order[low.bit_length() - 1])
        mask ^= low
    return out


def _components(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> list[tuple[str, ...]]:
    """Connected components of an undirected graph, each sorted, listed by least node."""
    neighbours: dict[str, list[str]] = {v: [] for v in nodes}
    for p, q in edges:
        neighbours[p].append(q)
        neighbours[q].append(p)
    seen: set[str] = set()
    components: list[tuple[str, ...]] = []
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        component, stack = [start], [start]
        while stack:
            for f in neighbours[stack.pop()]:
                if f not in seen:
                    seen.add(f)
                    component.append(f)
                    stack.append(f)
        components.append(tuple(sorted(component)))
    return components


def _pieces(mp: "MarkedPoset") -> list[tuple[tuple[str, ...], list[tuple[str, str]],
                                              dict[str, Fraction], dict[str, Fraction]]]:
    """The pieces of ``mp``, each with the covers of P that touch it, in cover order, and its marks.

    A piece is a component of the unmarked elements under the covers between
    two unmarked elements; pieces are listed by least element.  A cover with
    an unmarked end touches the one piece holding that end, so one pass over
    the covers sorts them; a cover between two marked elements touches none.
    The same pass reads a touching cover's marked end: a mark that a piece
    element covers is a lower mark of the piece, a mark that covers a piece
    element an upper one, each kept with its value in cover order.  One mark
    can bound a piece from both sides.
    """
    marked, marking = mp.marked, mp.marking
    covers = mp.poset.covers
    pieces = _components(mp.unmarked, [(p, q) for p, q in covers if p not in marked and q not in marked])
    piece_of = {e: i for i, piece in enumerate(pieces) for e in piece}
    touching: list[list[tuple[str, str]]] = [[] for _ in pieces]
    lower: list[dict[str, Fraction]] = [{} for _ in pieces]
    upper: list[dict[str, Fraction]] = [{} for _ in pieces]
    for p, q in covers:
        i = piece_of[p] if p in piece_of else piece_of.get(q)
        if i is not None:
            touching[i].append((p, q))
            if p in marked:
                lower[i][p] = marking[p]
            elif q in marked:
                upper[i][q] = marking[q]
    return list(zip(pieces, touching, lower, upper))


def _saturated_chains(poset: Poset, endpoints: frozenset[str]) -> list[tuple[str, tuple[str, ...], str]]:
    """Saturated chains whose two ends lie in ``endpoints`` and whose interior avoids it.

    Each chain a < p_1 < ... < p_k < b (k >= 0) is one (a, (p_1, ..., p_k), b)
    triple, in lexicographic order.  The walk keeps an explicit stack of cover
    iterators, so a deep poset does not hit Python's recursion limit.
    """
    chains: list[tuple[str, tuple[str, ...], str]] = []
    for a in sorted(endpoints):
        path: list[str] = []
        stack = [iter(poset.upper_covers(a))]
        while stack:
            q = next(stack[-1], None)
            if q is None:
                stack.pop()
                del path[-1:]
            elif q in endpoints:
                chains.append((a, tuple(path), q))
            else:
                path.append(q)
                stack.append(iter(poset.upper_covers(q)))
    return sorted(chains)


class MarkedPoset:
    """A poset with a rational marking on a subset containing all extremes.

    The marking must be order-preserving; strictness and regularity are not
    required here but are reported by :func:`validate_marked` and demanded by
    the operations whose theory needs them.

    The constructor puts the marks over one common denominator once:
    ``_scale`` is the lcm of their denominators and ``_levels`` maps each
    mark, in id order, to the int ``mark * _scale``.  The ranking, the rows
    of ``polytopes._hrep``, :meth:`is_integral` and the Ehrhart formula read
    these ints, not the ``Fraction`` values.

    Each mark gets its rank among the distinct mark values, kept as
    ``_rank`` for :func:`validate_marked`.  The order check ANDs each mark's
    up-set bitmask with the bits of the marks of rank at most its own.  A
    mark found there of lower rank makes a decreasing pair, and every
    decreasing pair is found so; only then does the pair scan run, to name
    the first one in id order.  A mark found there of equal rank makes a
    tie; the ties are kept in (a, b) id order for :func:`validate_marked` as
    its strictness witnesses.  Cost, on every input: one sort of the
    distinct mark values as ints, one big-int AND and OR per mark, and one
    bitmask per distinct value, plus the tied pairs.
    """

    def __init__(self, poset: Poset, marking: Mapping[str, int | Fraction]):
        self.poset = poset
        # a Fraction is kept as it is: Fraction(v) would copy it, through a slow abstract type check
        self.marking: dict[str, Fraction] = {a: v if type(v) is Fraction else Fraction(v) for a, v in marking.items()}
        self.marked: frozenset[str] = frozenset(self.marking)
        self._scale = math.lcm(*(v.denominator for v in self.marking.values()))
        self._levels = {a: v.numerator * (self._scale // v.denominator) for a, v in sorted(self.marking.items())}
        for a in self._levels:
            if a not in poset._index:
                raise ValueError(f"marked element {a!r} is not in the poset")
        self.unmarked: tuple[str, ...] = tuple(
            sorted(e for e in poset.elements if e not in self.marked))
        for kind, covered in (("minimal", poset._down_covers), ("maximal", poset._up_covers)):
            for e in self.unmarked:
                if not covered[e]:
                    raise ValueError(f"{kind} element {e!r} must be marked")
        self._rank, self._ties = _rank_marks(poset, self.marking, self._levels)
        self._hreps: dict = {}  # polytopes._hrep's memo, keyed by the chain part
        self._report: MarkingReport | None = None  # validate_marked's memo

    def is_integral(self) -> bool:
        return self._scale == 1

    def __repr__(self) -> str:
        marks = {a: str(v) for a, v in sorted(self.marking.items())}
        return f"MarkedPoset({self.poset!r}, marking={marks!r})"


def _rank_marks(poset: Poset, marking: Mapping[str, Fraction],
                levels: Mapping[str, int]) -> tuple[dict[str, int], tuple[tuple, ...]]:
    """Each mark's rank, keyed in ``levels`` order, and the ties of the marks; ``_scan_mark_pairs``
    runs when a pair decreases.

    A mark's rank counts the distinct mark values below its own, so the
    lowest is 0.  It is read off ``levels``, the marks as ints over the
    constructor's common denominator, so the one sort compares ints rather
    than ``Fraction`` values.
    """
    values = sorted(set(levels.values()))
    rank = {a: bisect.bisect_left(values, k) for a, k in levels.items()}
    index, above = poset._index, poset._above
    # upto[r]: the bits of the marks of rank below r
    upto = [0] * (len(values) + 1)
    for a, r in rank.items():
        upto[r + 1] |= 1 << index[a]
    for r in range(1, len(upto)):
        upto[r] |= upto[r - 1]
    ties = []
    for a, r in rank.items():
        up = above[index[a]] & upto[r + 1]
        if up & upto[r]:
            _scan_mark_pairs(poset, marking, list(levels))  # raises, naming the first decreasing pair
        if up:
            ties += [("strict", a, b) for b in _members(up, poset._order)]
    return rank, tuple(sorted(ties))


def _scan_mark_pairs(poset: Poset, marking: Mapping[str, Fraction], marked: Sequence[str]) -> list[tuple]:
    """The ties of the marks from every comparable pair a < b, in id order; raises on the first
    decreasing one.  Only the error path of the constructor runs it, to name that pair."""
    bits = sum(1 << poset._index[b] for b in marked)
    pairs = sorted((a, b) for a in marked for b in _members(poset._above[poset._index[a]] & bits, poset._order))
    first = next(((a, b) for a, b in pairs if marking[a] > marking[b]), None)
    if first is not None:
        raise ValueError(f"marking is not order-preserving on {first[0]!r} < {first[1]!r}")
    return [("strict", a, b) for a, b in pairs if marking[a] == marking[b]]


@dataclass(frozen=True)
class ChainOrderPartition:
    """A split of the unmarked elements into chain and order parts."""

    chain: frozenset[str]
    order: frozenset[str]

    @classmethod
    def of(cls, mp: MarkedPoset, chain: Iterable[str]) -> "ChainOrderPartition":
        chain_set = frozenset(chain)
        return cls(chain_set, frozenset(mp.unmarked) - chain_set)

    def validate(self, mp: MarkedPoset) -> None:
        unmarked = frozenset(mp.unmarked)
        if self.chain & self.order:
            raise ValueError("chain and order parts overlap")
        if self.chain | self.order != unmarked:
            raise ValueError("partition does not cover the unmarked elements")


@dataclass(frozen=True)
class MarkingReport:
    strict: bool
    regular: bool
    violations: tuple[tuple, ...]


def validate_marked(mp: MarkedPoset) -> MarkingReport:
    """Report strictness and regularity, with a witness tuple per failure.

    Strict: comparable marked a < b implies marking(a) < marking(b).
    Regular: for every cover p < q and marked a <= q, p <= b, either a = b
    or marking(a) < marking(b).  Covers between two marked elements count
    too, although no row of the marked polytopes comes from them: ``a(0) <
    b(1)``, both marked, has the witness ``("regular", ("a", "b"), "b",
    "a")``.  The definition stays so because ``corpus.random_marked_poset``
    rejects draws through this report: a looser one would change every
    seeded corpus.

    The marking is order-preserving, so the strictness witnesses are the
    ties that the ``MarkedPoset`` constructor found.  For regularity, marks
    are compared by the ranks that the constructor gave them.  One pass up
    the topological order gives every element the highest rank among the
    marks at or below it, and the one mark of that rank if only one has
    it; one pass down gives the lowest rank among the marks at or above it
    in the same way.  A cover p < q has a witness, marks a <= q and p <= b
    with a != b and rank(a) >= rank(b), exactly when q's highest rank
    exceeds p's lowest, or equals it and the two are not one and the same
    single mark (that mark is p or q, and any other pair has rank(a) <
    rank(b)).  Only covers with a witness run the pair scan, which lists
    the witnesses from the up-set bitmasks.  Cost, on every input:
    O(n + covers), plus O(marks) per cover that has a witness.  Witnesses
    come in id order: strict by (a, b), regular by cover, then a, then b.
    The report is computed once per marked poset and kept on it.
    """
    if mp._report is not None:
        return mp._report
    poset, rank = mp.poset, mp._rank
    under = _extreme_marks(poset._order, poset._down_covers, rank)
    # the lowest rank at or above, as the highest negated rank
    over = _extreme_marks(reversed(poset._order), poset._up_covers, {a: -r for a, r in rank.items()})
    covers = []
    for p, q in poset.covers:
        (r, a), (s, b) = under[q], over[p]
        if r + s > 0 or r + s == 0 and (a is None or a != b):
            covers.append((p, q))
    witnesses = _cover_witnesses(mp, sorted(covers)) if covers else []
    mp._report = MarkingReport(strict=not mp._ties, regular=not witnesses, violations=mp._ties + tuple(witnesses))
    return mp._report


def _extreme_marks(order: Iterable[str], covered: Mapping, rank: Mapping[str, int]) -> dict[str, tuple]:
    """Each element's highest rank among the marks it reaches, with the one mark of that rank, or
    None when several marks have it.

    ``order`` lists the elements so that ``covered[v]`` comes before v; an
    element reaches itself and whatever its ``covered`` elements reach.  A
    mark's rank is at least that of every mark it reaches, so a mark is the
    one mark of its own rank unless a covered element ties it.
    """
    best: dict[str, tuple[int, str | None]] = {}
    for v in order:
        below = covered[v]
        if v not in rank and len(below) == 1:
            best[v] = best[below[0]]
            continue
        r, one = (rank[v], v) if v in rank else best[below[0]]
        for s, m in map(best.__getitem__, below):
            if s >= r:
                r, one = s, (m if s > r or m == one else None)
        best[v] = (r, one)
    return best


def _cover_witnesses(mp: MarkedPoset, covers: Iterable[tuple[str, str]]) -> list[tuple]:
    """The regularity witnesses of each cover p < q in turn, by a then b: marks a <= q and p <= b,
    a != b, with rank(a) >= rank(b)."""
    index, above = mp.poset._index, mp.poset._above
    # each mark's id, rank, bit, and reach: its up-set with itself
    marks = [(a, r, 1 << index[a], above[index[a]] | 1 << index[a]) for a, r in mp._rank.items()]
    witnesses: list[tuple] = []
    for p, q in covers:
        up_p, bit_q = above[index[p]] | 1 << index[p], 1 << index[q]
        below_q = [m for m in marks if m[3] & bit_q]
        above_p = [m for m in marks if up_p & m[2]]
        witnesses += [("regular", (p, q), a[0], b[0]) for a in below_q for b in above_p
                      if a is not b and a[1] >= b[1]]
    return witnesses


def require_strict_regular(mp: MarkedPoset, operation: str) -> None:
    report = validate_marked(mp)
    if not (report.strict and report.regular):
        missing = [name for name, ok in (("strict", report.strict), ("regular", report.regular)) if not ok]
        raise PreconditionViolated(f"{operation} requires a strict regular marked poset; not {' or '.join(missing)}")


def require_strict(mp: MarkedPoset, operation: str) -> None:
    # the constructor's ties are the strictness witnesses of validate_marked
    if mp._ties:
        raise PreconditionViolated(f"{operation} requires a strict marking")


@dataclass(frozen=True)
class ExtensionWord:
    """A linear extension as a word, with per-prefix descent counts.

    ``descent_prefix[i]`` counts the positions j < i (0-based) at which the
    reference labeling decreases from ``word[j]`` to ``word[j+1]``; it starts
    at 0 and increases by at most 1 per step.
    """

    word: tuple[str, ...]
    descent_prefix: tuple[int, ...]

    @property
    def descents(self) -> int:
        return self.descent_prefix[-1] if self.descent_prefix else 0

    def segment_descents(self, i: int, j: int) -> int:
        """Number of descents at positions i..j-1 (0-based word indices)."""
        return self.descent_prefix[j] - self.descent_prefix[i]


def canonical_labeling(poset: Poset) -> dict[str, int]:
    """The natural labeling given by the smallest-id-first topological order."""
    return {e: i + 1 for i, e in enumerate(poset.topological_order())}


def check_natural_labeling(poset: Poset, labeling: Mapping[str, int]) -> None:
    n = len(poset.elements)
    if labeling.keys() != set(poset.elements) or sorted(labeling.values()) != list(range(1, n + 1)):
        raise ValueError("labeling is not a bijection onto 1..n")
    for p, q in poset.covers:
        if labeling[p] > labeling[q]:
            raise ValueError(f"labeling is not order-preserving on cover ({p!r}, {q!r})")


def linear_extensions(poset: Poset, labeling: Mapping[str, int] | None = None) -> Iterator[ExtensionWord]:
    """Yield every linear extension once, lexicographically in labels.

    The labeling defaults to :func:`canonical_labeling`; a different natural
    labeling changes descent statistics but never the set of words.  The
    empty poset has one extension, the empty word.

    The walk is the bit-vector form of Knuth and Szwarcfiter's generator of
    topological sorts (Inform. Process. Lett., 1974), with an explicit stack.
    Bit i stands for the i-th element in label order; each element keeps its
    lower covers as one mask and its upper covers as a list of bit indices.
    Each depth of the stack keeps the mask of the elements available there
    and the mask of those not yet tried there.  The next letter is the lowest
    untried bit, the smallest label, so words come out in label order.
    Placing e releases each upper cover whose lower covers are all placed; a
    descent is counted when the previous letter ranks above e.  A depth with
    nothing available ends a word.
    """
    if labeling is None:
        labeling = canonical_labeling(poset)
    else:
        check_natural_labeling(poset, labeling)
    ranked = sorted(poset.elements, key=labeling.__getitem__)
    rank = {e: i for i, e in enumerate(ranked)}
    below = [sum(1 << rank[p] for p in poset.lower_covers(e)) for e in ranked]
    ups = [[rank[q] for q in poset.upper_covers(e)] for e in ranked]
    start = sum(1 << i for i, mask in enumerate(below) if not mask)
    available, untried = [start], [start]
    word: list[int] = []  # the letters' bit indices
    letters: list[str] = []
    prefix: list[int] = []
    placed = 0
    while untried:
        rest = untried[-1]
        if not rest:  # this depth is exhausted: take back the letter that led to it
            if not available[-1]:  # every element is placed
                yield ExtensionWord(tuple(letters), tuple(prefix))
            untried.pop()
            available.pop()
            if word:
                placed ^= 1 << word.pop()
                letters.pop()
                prefix.pop()
            continue
        low = rest & -rest
        untried[-1] = rest ^ low
        i = low.bit_length() - 1
        placed |= low
        now = available[-1] ^ low
        for j in ups[i]:
            if below[j] & placed == below[j]:
                now |= 1 << j
        prefix.append(prefix[-1] + (word[-1] > i) if word else 0)
        word.append(i)
        letters.append(ranked[i])
        available.append(now)
        untried.append(now)


def induced_subposet(poset: Poset, keep: Iterable[str]) -> Poset:
    """The subposet on ``keep`` with the inherited order, reduced to covers.

    For each kept p, a walk up the covers of ``poset`` stops at every kept
    element it meets, and hands (p, q) to :meth:`Poset.from_relations` for
    each kept q so met.  A cover p < q of the subposet has a saturated chain
    from p to q with no kept element inside, so it is among them; the rest
    are relations of the subposet, which the reduction drops.  Cost: the
    elements that the walks pass, not every comparable kept pair.
    """
    keep_set = frozenset(keep)
    for e in sorted(keep_set):
        if e not in poset._index:
            raise KeyError(f"unknown element id {e!r}")
    elements = tuple(e for e in poset.elements if e in keep_set)
    up = poset._up_covers
    relations = []
    for p in elements:
        seen, stack = set(), list(up[p])
        while stack:
            q = stack.pop()
            if q not in seen:
                seen.add(q)
                if q in keep_set:
                    relations.append((p, q))
                else:
                    stack += up[q]
    return Poset.from_relations(elements, relations)


def restrict_marked(mp: MarkedPoset, keep: Iterable[str]) -> MarkedPoset:
    """Restrict to an element subset that contains every marked element."""
    keep_set = frozenset(keep) | mp.marked
    return MarkedPoset(induced_subposet(mp.poset, keep_set), mp.marking)


def _regularize(mp: MarkedPoset) -> MarkedPoset:
    """The strict ``mp`` with covers cut until it is regular; its order polytope is kept.

    Cuts every cover between marked elements, then, while validate_marked
    reports ("regular", (p, q), a, b), the first such p < q.  A marked-marked
    cover adds no row.  A violating row x_p <= x_q follows from x_p <=
    marking(b) <= marking(a) <= x_q, whose chains p ... b and a ... q avoid
    p < q (else a <= q <= b or a <= p <= b, against strictness).  A cut only
    removes relations, so strictness stays, no cover becomes implied, and an
    unmarked p or q keeps a cover on those chains, so extremes stay marked.
    """
    covers = [(p, q) for p, q in mp.poset.covers if p not in mp.marked or q not in mp.marked]
    while True:
        regular = MarkedPoset(Poset(mp.poset.elements, covers), mp.marking)
        cut = next((w[1] for w in validate_marked(regular).violations if w[0] == "regular"), None)
        if cut is None:
            return regular
        covers.remove(cut)
