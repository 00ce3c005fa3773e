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
    """

    def __init__(self, poset: Poset, marking: Mapping[str, int | Fraction]):
        self.poset = poset
        self.marking: dict[str, Fraction] = {a: Fraction(v) for a, v in marking.items()}
        self.marked: frozenset[str] = frozenset(self.marking)
        for a in sorted(self.marked):
            if a not in poset._index:
                raise ValueError(f"marked element {a!r} is not in the poset")
        for e in poset.minimals():
            if e not in self.marked:
                raise ValueError(f"minimal element {e!r} must be marked")
        for e in poset.maximals():
            if e not in self.marked:
                raise ValueError(f"maximal element {e!r} must be marked")
        marked_sorted = sorted(self.marked)
        for a in marked_sorted:
            for b in marked_sorted:
                if poset.less(a, b) and self.marking[a] > self.marking[b]:
                    raise ValueError(
                        f"marking is not order-preserving on {a!r} < {b!r}")
        self.unmarked: tuple[str, ...] = tuple(
            sorted(e for e in poset.elements if e not in self.marked))
        self._hreps: dict = {}  # polytopes._hrep's memo, keyed by the chain part

    def value(self, a: str) -> Fraction:
        return self.marking[a]

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.marking.values())

    def __repr__(self) -> str:
        marks = {a: str(v) for a, v in sorted(self.marking.items())}
        return f"MarkedPoset({self.poset!r}, marking={marks!r})"


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

    Marks are compared by their ranks among the distinct mark values, and
    a <= q, p <= b are read off the up-set bitmasks, so the loops do integer
    work only.  Witnesses come in id order: strict by (a, b), regular by
    cover, then a, then b.
    """
    poset = mp.poset
    index, above = poset._index, poset._above
    marked = sorted(mp.marked)
    rank_of = {v: r for r, v in enumerate(sorted(set(mp.marking.values())))}
    rank = [rank_of[mp.value(a)] for a in marked]
    bit = [1 << index[a] for a in marked]
    violations: list[tuple] = []
    strict = True
    for i, a in enumerate(marked):
        up = above[index[a]]
        for j, b in enumerate(marked):
            if rank[i] >= rank[j] and up & bit[j]:
                strict = False
                violations.append(("strict", a, b))
    reach = [above[index[a]] | bit[i] for i, a in enumerate(marked)]  # up-sets are strict: add a
    regular = True
    for p, q in sorted(poset.covers):
        up_p, bit_q = above[index[p]] | 1 << index[p], 1 << index[q]
        below_q = [i for i in range(len(marked)) if reach[i] & bit_q]
        above_p = [j for j in range(len(marked)) if up_p & bit[j]]
        for i in below_q:
            for j in above_p:
                if i != j and rank[i] >= rank[j]:
                    regular = False
                    violations.append(("regular", (p, q), marked[i], marked[j]))
    return MarkingReport(strict=strict, regular=regular, violations=tuple(violations))


def require_strict_regular(mp: MarkedPoset, operation: str) -> None:
    report = validate_marked(mp)
    if not (report.strict and report.regular):
        missing = [name for name, ok in (("strict", report.strict), ("regular", report.regular)) if not ok]
        raise PreconditionViolated(f"{operation} requires a strict regular marked poset; not {' or '.join(missing)}")


def require_strict(mp: MarkedPoset, operation: str) -> None:
    if not validate_marked(mp).strict:
        raise PreconditionViolated(f"{operation} requires a strict marking")


def hasse_components(mp: MarkedPoset) -> list[tuple[str, ...]]:
    """Connected components of the undirected Hasse diagram, sorted by least id."""
    return _components(mp.poset.elements, mp.poset.covers)


def maximal_marked_chains(mp: MarkedPoset) -> list[tuple[str, tuple[str, ...], str]]:
    """Saturated chains a < p_1 < ... < p_k < b with marked ends, unmarked interior.

    Each chain is reported once as (a, interior, b) with k >= 0 interior
    elements, in lexicographic order.
    """
    return _saturated_chains(mp.poset, mp.marked)


def augment_marked_order(mp: MarkedPoset) -> Poset:
    """Add a < b for marked pairs with strictly increasing marks, then re-reduce.

    Only pairs between adjacent distinct mark levels are added: they generate
    the same order as all increasing pairs.
    """
    poset = mp.poset
    levels: dict[Fraction, list[str]] = {}
    for a in sorted(mp.marked):
        levels.setdefault(mp.value(a), []).append(a)
    ranked = [levels[v] for v in sorted(levels)]
    relations = list(poset.covers)
    for lower, upper in zip(ranked, ranked[1:]):
        relations += [(a, b) for a in lower for b in upper]
    return Poset.from_relations(poset.elements, relations)


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
