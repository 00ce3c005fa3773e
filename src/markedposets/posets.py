"""Finite posets, marked posets, and linear-extension machinery.

Elements are opaque string ids; every deterministic ordering in this module
is lexicographic in those ids.  Posets are stored by their covering relations
(the Hasse diagram) and are validated to be acyclic with an irredundant cover
set.  The order itself is held as one int bitmask per element: bit i of an
element's up-set is the i-th element of the topological order, so comparisons
are bit tests and n elements hold their order in at most n^2 bits.
A marked poset attaches an order-preserving rational marking to a subset of
elements that must contain all minimal and maximal elements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import PreconditionViolated

# Up to this many marks, the mark checks pair every mark with every mark: on
# so few marks that costs less than setting up the screens.
_FEW_MARKS = 8


class Poset:
    """A finite poset given by elements and covering relations p < q."""

    def __init__(self, elements: Iterable[str], covers: Iterable[tuple[str, str]]):
        self.elements: tuple[str, ...] = tuple(elements)
        self.covers: tuple[tuple[str, str], ...] = tuple((p, q) for p, q in covers)
        seen = set(self.elements)
        if len(seen) != len(self.elements):
            raise ValueError("duplicate element ids")
        distinct: set[tuple[str, str]] = set()
        for p, q in self.covers:
            if p not in seen or q not in seen:
                raise ValueError(f"cover ({p!r}, {q!r}) references unknown element")
            if p == q:
                raise ValueError(f"cover ({p!r}, {q!r}) is a loop")
            if (p, q) in distinct:
                raise ValueError(f"cover ({p!r}, {q!r}) is repeated")
            distinct.add((p, q))
        up: dict[str, list[str]] = {e: [] for e in self.elements}
        down: dict[str, list[str]] = {e: [] for e in self.elements}
        for p, q in self.covers:
            up[p].append(q)
            down[q].append(p)
        self._up_covers: dict[str, tuple[str, ...]] = {e: tuple(sorted(up[e])) for e in self.elements}
        self._down_covers: dict[str, tuple[str, ...]] = {e: tuple(sorted(down[e])) for e in self.elements}
        order, self._above, implied = _up_sets(self.elements, self._up_covers)
        for p, q in self.covers:
            if (p, q) in implied:
                raise ValueError(f"cover ({p!r}, {q!r}) is implied by other covers")
        self._order: tuple[str, ...] = tuple(order)
        self._index: dict[str, int] = {e: i for i, e in enumerate(order)}

    def topological_order(self) -> list[str]:
        """Elements in a topological order (smallest id first among available)."""
        return list(self._order)

    @classmethod
    def from_relations(cls, elements: Iterable[str], relations: Iterable[tuple[str, str]]) -> "Poset":
        """Build a poset from arbitrary strict relations, reduced to covers."""
        elements = tuple(elements)
        index = set(elements)
        succ: dict[str, set[str]] = {e: set() for e in elements}
        for p, q in relations:
            if p not in index or q not in index:
                raise ValueError(f"relation ({p!r}, {q!r}) references unknown element")
            if p == q:
                raise ValueError(f"relation ({p!r}, {q!r}) is a loop")
            succ[p].add(q)
        _, _, implied = _up_sets(elements, succ)
        covers = [(p, q) for p in elements for q in sorted(succ[p]) if (p, q) not in implied]
        return cls(elements, covers)

    def leq(self, p: str, q: str) -> bool:
        """p <= q in the transitive closure of the covers."""
        index = self._index
        if p not in index or q not in index:
            raise KeyError(f"unknown element id {p if p not in index else q!r}")
        return p == q or bool(self._above[index[p]] >> index[q] & 1)

    def less(self, p: str, q: str) -> bool:
        return p != q and self.leq(p, q)

    def comparable(self, p: str, q: str) -> bool:
        return self.leq(p, q) or self.leq(q, p)

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

    The order check walks the marks by value, from the highest down, and ORs
    together the up-set bitmasks of every strictly higher value group.  A
    mark inside that mask lies above a mark of greater value, and every
    decreasing pair a < b puts b inside the mask of a's group, so the mask
    finds a decreasing pair exactly when one exists; only then does the pair
    scan run, to name the first one in id order.  The ties, comparable pairs
    inside one value group, are kept in (a, b) id order for
    :func:`validate_marked` as its strictness witnesses.  Cost: one big-int
    OR per mark, plus the tied pairs.  With at most ``_FEW_MARKS`` marks the
    pair scan, which costs marks^2 bit tests, runs directly: it is cheaper
    there than the walk's grouping and sorting of ``Fraction`` values.
    """

    def __init__(self, poset: Poset, marking: Mapping[str, int | Fraction]):
        self.poset = poset
        self.marking: dict[str, Fraction] = {a: Fraction(v) for a, v in marking.items()}
        self.marked: frozenset[str] = frozenset(self.marking)
        marked = sorted(self.marked)
        for a in marked:
            if a not in poset._index:
                raise ValueError(f"marked element {a!r} is not in the poset")
        for e in poset.minimals():
            if e not in self.marked:
                raise ValueError(f"minimal element {e!r} must be marked")
        for e in poset.maximals():
            if e not in self.marked:
                raise ValueError(f"maximal element {e!r} must be marked")
        check = _value_walk if len(marked) > _FEW_MARKS else _scan_mark_pairs
        self._ties: tuple[tuple, ...] = tuple(check(poset, self.marking, marked))
        self.unmarked: tuple[str, ...] = tuple(
            sorted(e for e in poset.elements if e not in self.marked))
        self._hreps: dict = {}  # polytopes._hrep's memo, keyed by the chain part
        self._report: MarkingReport | None = None  # validate_marked's memo

    def value(self, a: str) -> Fraction:
        return self.marking[a]

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.marking.values())

    def __repr__(self) -> str:
        marks = {a: str(v) for a, v in sorted(self.marking.items())}
        return f"MarkedPoset({self.poset!r}, marking={marks!r})"


def _value_walk(poset: Poset, marking: Mapping[str, Fraction], marked: Sequence[str]) -> list[tuple]:
    """``_scan_mark_pairs`` by the walk over value groups; the scan runs when a pair decreases."""
    index, above = poset._index, poset._above
    groups: dict[Fraction, list[str]] = {}
    for a in marked:
        groups.setdefault(marking[a], []).append(a)
    higher, ties = 0, []
    for value in sorted(groups, reverse=True):
        group = groups[value]
        bits = sum(1 << index[a] for a in group)
        if higher & bits:
            return _scan_mark_pairs(poset, marking, marked)  # raises, naming the first decreasing pair
        for a in group:
            up = above[index[a]]
            if up & bits:
                ties += [("strict", a, b) for b in _members(up & bits, poset._order)]
            higher |= up
    return sorted(ties)


def _scan_mark_pairs(poset: Poset, marking: Mapping[str, Fraction], marked: Sequence[str]) -> list[tuple]:
    """The ties of the marks from every comparable pair a < b, in id order; raises on the first
    decreasing one."""
    scan = [(b, 1 << poset._index[b], marking[b]) for b in marked]
    ties = []
    for a, _, value in scan:
        up = poset._above[poset._index[a]]
        for b, bit, other in scan:
            if up & bit and value >= other:
                if value > other:
                    raise ValueError(f"marking is not order-preserving on {a!r} < {b!r}")
                ties.append(("strict", a, b))
    return ties


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
    or marking(a) < marking(b).

    The marking is order-preserving, so the strictness witnesses are the
    ties that the ``MarkedPoset`` constructor found.  For regularity, marks
    are compared by their ranks among the distinct mark values.  One pass up
    the topological order gives every element its two highest-ranked
    distinct marks at or below it, one pass down its two lowest-ranked
    distinct marks at or above it.  A cover p < q has a witness, marks
    a <= q and p <= b with a != b and rank(a) >= rank(b), exactly when one
    of the at most four pairs of q's list and p's list is one: the best a
    and the best b form the best pair, and when both are the same mark (p or
    q itself) the best pair avoiding it pairs a runner-up with the other
    side's best.  Only covers with a witness run the pair scan, which lists
    the witnesses from the up-set bitmasks.  Cost: O(n + covers), plus
    O(marks) per cover that has a witness.  With at most ``_FEW_MARKS``
    marks every cover runs the pair scan, which is cheaper there than the
    two passes.  Witnesses come in id order: strict by (a, b), regular by
    cover, then a, then b.  The report is computed once per marked poset and
    kept on it.
    """
    if mp._report is not None:
        return mp._report
    poset = mp.poset
    index, above = poset._index, poset._above
    rank_of = {v: r for r, v in enumerate(sorted(set(mp.marking.values())))}
    # each mark's id, rank, bit, and reach: its up-set with itself
    marks = [(a, rank_of[mp.marking[a]], 1 << index[a], above[index[a]] | 1 << index[a])
             for a in sorted(mp.marked)]
    covers = sorted(poset.covers)
    if len(marks) > _FEW_MARKS:
        rank = {a: r for a, r, _, _ in marks}
        # (rank, id) of the two highest marks at or below, and the two lowest at or above, each element
        under = _two_extreme_marks(poset._order, poset.lower_covers, rank, reverse=True)
        over = _two_extreme_marks(reversed(poset._order), poset.upper_covers, rank, reverse=False)
        covers = [(p, q) for p, q in covers if any(a != b and i >= j for i, a in under[q] for j, b in over[p])]
    witnesses = _cover_witnesses(poset, marks, covers)
    mp._report = MarkingReport(strict=not mp._ties, regular=not witnesses, violations=mp._ties + tuple(witnesses))
    return mp._report


def _two_extreme_marks(order: Iterable[str], covered, rank: Mapping[str, int],
                       reverse: bool) -> dict[str, list[tuple[int, str]]]:
    """Each element's two distinct marks of highest (``reverse``) or lowest rank among those it reaches.

    ``order`` lists the elements so that ``covered(v)`` comes before v; an
    element reaches itself and whatever its ``covered`` elements reach.
    """
    best: dict[str, list[tuple[int, str]]] = {}
    for v in order:
        found = {m for u in covered(v) for m in best[u]}
        if v in rank:
            found.add((rank[v], v))
        best[v] = sorted(found, reverse=reverse)[:2]
    return best


def _cover_witnesses(poset: Poset, marks: Sequence[tuple[str, int, int, int]],
                     covers: Iterable[tuple[str, str]]) -> list[tuple]:
    """The regularity witnesses of each cover p < q in turn, by a then b: marks a <= q and p <= b,
    a != b, with rank(a) >= rank(b); ``marks`` as ``validate_marked`` lists them."""
    index, above = poset._index, poset._above
    witnesses: list[tuple] = []
    for p, q in covers:
        i, j = index[p], index[q]
        up_p, bit_q = above[i] | 1 << i, 1 << j
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
    labeling changes descent statistics but never the set of words.
    """
    if labeling is None:
        labeling = canonical_labeling(poset)
    else:
        check_natural_labeling(poset, labeling)
    key = labeling.__getitem__
    indeg = {e: len(poset.lower_covers(e)) for e in poset.elements}
    word: list[str] = []
    prefix: list[int] = []
    # levels[i] lists, sorted by label, the elements available after i letters;
    # chosen[i] counts how many of them have been tried as letter i + 1.
    levels = [sorted((e for e in poset.elements if indeg[e] == 0), key=key)]
    chosen = [0]
    while levels:
        if len(word) == len(levels):  # the level above is exhausted: take back this level's letter
            prefix.pop()
            for q in poset.upper_covers(word.pop()):
                indeg[q] += 1
        available, i = levels[-1], chosen[-1]
        if not available:
            yield ExtensionWord(tuple(word), tuple(prefix))
        if i == len(available):
            levels.pop()
            chosen.pop()
            continue
        chosen[-1] = i + 1
        e = available[i]
        released = []
        for q in poset.upper_covers(e):
            indeg[q] -= 1
            if indeg[q] == 0:
                released.append(q)
        prefix.append(prefix[-1] + (key(word[-1]) > key(e)) if word else 0)
        word.append(e)
        levels.append(sorted(available[:i] + available[i + 1:] + released, key=key))
        chosen.append(0)


def induced_subposet(poset: Poset, keep: Iterable[str]) -> Poset:
    """The subposet on ``keep`` with the inherited order, reduced to covers."""
    keep_set = frozenset(keep)
    index, above, order = poset._index, poset._above, poset._order
    for e in sorted(keep_set):
        if e not in index:
            raise KeyError(f"unknown element id {e!r}")
    elements = tuple(e for e in poset.elements if e in keep_set)
    kept = sum(1 << index[e] for e in elements)
    relations = [(p, q) for p in elements for q in _members(above[index[p]] & kept, order)]
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
