"""Polytopes attached to a marked poset.

All three families live in the projected space of unmarked coordinates: the
fixed marked values are substituted into the constraints rather than kept as
equalities.  Coordinates are the unmarked element ids in lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import DimensionTooLarge
from .geometry import HRepresentation, LinearInequality, VRepresentation, _work_cap, irredundant
from .posets import (
    ChainOrderPartition,
    MarkedPoset,
    _components,
    _saturated_chains,
    require_strict_regular,
    validate_marked,
)

DEFAULT_ASSIGNMENT_CAP = 10**7


def _hrep(mp: MarkedPoset, chain: frozenset[str]) -> HRepresentation:
    """Chain conditions on the unmarked elements in ``chain``, order conditions on the rest.

    Nonnegativity on ``chain``, plus one inequality per saturated chain whose
    interior (r >= 0 elements) lies in ``chain`` and whose ends are marked or
    outside ``chain``, with marked ends substituted.  A cover between two
    marked elements gives no row: ``MarkedPoset`` accepts only
    order-preserving markings, so its condition always holds.
    Memoised on ``mp`` by ``chain``: a command that asks for one polytope
    twice enumerates its vertices and classifies its rows once.
    Each row is built normal: its coefficients are +-1 on distinct ids, so
    their gcd is 1, and sorted by id; ``LinearInequality._normal`` keeps it
    as it is.
    """
    if chain in mp._hreps:
        return mp._hreps[chain]
    # the constructor's integer marks, over its common denominator; each distinct rhs is one Fraction
    scale, level = mp._scale, mp._levels
    rhs_of: dict[int, Fraction] = {0: Fraction(0)}
    inequalities = [LinearInequality._normal({p: -1}, rhs_of[0]) for p in sorted(chain)]
    for a, interior, b in _saturated_chains(mp.poset, frozenset(mp.poset.elements) - chain):
        terms = [(p, 1) for p in interior] if interior else []
        if a not in level:
            terms.append((a, 1))
        if b not in level:
            terms.append((b, -1))
        gap = level.get(b, 0) - level.get(a, 0)
        if gap not in rhs_of:
            rhs_of[gap] = Fraction(gap, scale)
        if terms:
            terms.sort()
            inequalities.append(LinearInequality._normal(dict(terms), rhs_of[gap]))
    mp._hreps[chain] = HRepresentation(mp.unmarked, inequalities)
    return mp._hreps[chain]


def _facets(mp: MarkedPoset, h: HRepresentation) -> HRepresentation:
    """The irredundant form of ``h = _hrep(mp, chain)``: ``h`` itself when ``mp`` is strict regular.

    Other input goes to ``irredundant``, which needs the vertices.  Proof,
    for a strict regular ``mp`` and any chain part C; E holds the marked and
    the order elements, and L(e), U(e) are the greatest mark below e and the
    least mark above it (L < U off the marked elements, by strictness).  It
    builds, per row, a point of the polytope tight on that row and strict on
    every other.  The mean of these points is strict on every row, so the
    polytope is full-dimensional; each row is then a facet, and no two rows
    are the same.  Each point is y = phi(x) for a point x of the marked
    order polytope, phi the transfer map: y_p = x_p - M_p on C, where M_p is
    the largest x over the lower covers of p, and y = x on the order
    elements.  At phi(x) the row -y_p <= 0 has slack y_p, and the row of a
    chain a < p_1 < ... < p_k < b (ends in E, p_i in C) has slack
    (x_b - x_{p_k}) + sum_i (M_{p_i} - x_{p_{i-1}}), with p_0 = a.  Every
    term is >= 0, so phi(x) lies in the polytope.  Below, eps > 0 times the
    number of elements is less than every gap between two distinct marks.

    - Regularity at a cover s < t with an unmarked end says that contracting
      it leaves a strict marking: the new comparabilities are the marked
      u <= t, s <= v, and a cover closes no cycle.  So some x has x_s = x_t
      and increases strictly on every other cover (on the contracted Hasse
      diagram, x_e = the max over marked u below e of marking(u) + eps *
      longest path from u to e).  Every cover below has an unmarked end.
    - Row -y_p <= 0: take that x for any cover r < p.  Then y_p = 0, and
      every other row has a positive term: from a cover into C other than
      r < p, or from the last cover of its chain, which ends in E.
    - Row of a chain with k = 0, a cover a < b: take that x for a < b; every
      other row has a positive term the same way.
    - Row of a chain with k >= 1: let g(e) = U(p_j) - (k - j) eps for the
      largest j with p_j <= e (-inf when there is none) and x' = max(L,
      min(U, g)).  x' is order-preserving, it is the marking on marked
      elements, x'_{p_j} = g(p_j) off them, and x'_b = x'_{p_k} = U(p_k),
      as regularity at p_k < b gives L(b) <= U(p_k).  Every lower cover
      r != p_{i-1} of p_i has x'_r < x'_{p_{i-1}}: r lies above no p_j with
      j >= i - 1, and L(r) < U(p_{i-1}) is regularity at p_{i-1} < p_i.
      Take x = (1 - t) x' + t x'' for a small t > 0, x'' that x for p_k < b.
      It increases strictly on every cover but p_k < b, where it is
      constant, and keeps x_r < x_{p_{i-1}}, so M_{p_i} = x_{p_{i-1}} along
      the chain and its row is tight.  Another chain has a positive term:
      x_b - x_{p_k} if its last cover differs, else some M_{p_i} above
      x_{p_{i-1}} where it leaves the path p_{k-1}, p_{k-2}, ... back.
    """
    report = validate_marked(mp)
    return h if report.strict and report.regular else irredundant(h)


def build_order_hrep(mp: MarkedPoset) -> HRepresentation:
    """Inequalities x_p <= x_q per cover, with marked endpoints substituted."""
    return _hrep(mp, frozenset())


def build_chain_hrep(mp: MarkedPoset) -> HRepresentation:
    """Nonnegative coordinates with chain sums bounded by marking differences."""
    return _hrep(mp, frozenset(mp.unmarked))


def build_chain_order_hrep(mp: MarkedPoset, part: ChainOrderPartition) -> HRepresentation:
    """The hybrid family: chain conditions on C, order conditions on O.

    With C empty this is the order polytope, with C all unmarked elements the
    chain polytope.
    """
    part.validate(mp)
    return _hrep(mp, part.chain)


def order_vertices_combinatorial(mp: MarkedPoset) -> VRepresentation:
    """Vertices of the marked order polytope via assignments with no free block.

    Searches order-preserving assignments of marking values to the unmarked
    elements, depth-first in a linear-extension order so every cover is
    checked as soon as both endpoints have values; an assignment is a vertex
    exactly when its face partition has no free block: every component of
    the covers whose two ends have equal values holds a marked element.
    More nodes than the work cap raise DimensionTooLarge.
    """
    require_strict_regular(mp, "order_vertices_combinatorial")
    poset = mp.poset
    values = sorted({mp.marking[a] for a in mp.marked})
    order = [e for e in poset.topological_order() if e not in mp.marked]
    assignment: dict[str, Fraction] = {a: mp.marking[a] for a in mp.marked}
    vertices: list[tuple[Fraction, ...]] = []
    nodes = 0
    cap = _work_cap(DEFAULT_ASSIGNMENT_CAP)

    def feasible(e: str, v: Fraction) -> bool:
        for p in poset.lower_covers(e):
            lo = assignment.get(p)
            if lo is not None and lo > v:
                return False
        for q in poset.upper_covers(e):
            if q in mp.marked and mp.marking[q] < v:
                return False
        return True

    # stack[i] iterates the values still to try at order[i]; one node is
    # entered per loop turn, and the walk needs no Python recursion
    stack: list[Iterator[Fraction]] = []
    while True:
        nodes += 1
        if nodes > cap:
            raise DimensionTooLarge(f"assignment search exceeds the node cap {cap}"
                                    "; set MPP_WORK_CAP to raise it")
        if len(stack) == len(order):
            # feasible() has checked every cover, so the leaf is in the polytope
            glued = [(p, q) for p, q in poset.covers if assignment[p] == assignment[q]]
            if all(frozenset(b) & mp.marked for b in _components(poset.elements, glued)):
                vertices.append(tuple(assignment[p] for p in mp.unmarked))
        else:
            stack.append(iter(values))
        while stack:
            e = order[len(stack) - 1]
            assignment.pop(e, None)
            v = next((v for v in stack[-1] if feasible(e, v)), None)
            if v is not None:
                assignment[e] = v
                break
            stack.pop()
        else:
            break
    return VRepresentation.from_points(mp.unmarked, vertices)


def order_facets_combinatorial(mp: MarkedPoset) -> list[LinearInequality]:
    """The facet list of the marked order polytope read off the covers.

    One inequality per cover involving an unmarked element; for a strict
    regular marked poset this equals the irredundant geometric description
    (proved for all three families in ``_facets``).
    """
    require_strict_regular(mp, "order_facets_combinatorial")
    return list(build_order_hrep(mp).inequalities)
