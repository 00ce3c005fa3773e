"""Deciding 2-levelness: direct vertex-value test and combinatorial criteria.

The direct test is the ground truth: a polytope is 2-level exactly when every
facet functional takes at most two values on the vertex set.  The criteria
decide the same question for the three marked-poset families from the poset
data (plus vertex value sets on the chain side); none of them falls back to
the direct test, and the test suite holds them to 100% agreement with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .geometry import (
    HRepresentation,
    LinearInequality,
    _scaled_values,
    classify_inequalities,
    enumerate_vertices,
)
from .polytopes import build_chain_hrep, build_chain_order_hrep
from .posets import (
    ChainOrderPartition,
    MarkedPoset,
    _pieces,
    _regularize,
    require_strict,
    require_strict_regular,
    restrict_marked,
)


@dataclass(frozen=True)
class TwoLevelWitness:
    facet: LinearInequality
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class TwoLevelResult:
    two_level: bool
    witness: TwoLevelWitness | None = None


def is_two_level_direct(h: HRepresentation) -> TwoLevelResult:
    """Check every facet functional for at most two distinct vertex values.

    The witness, when present, is the first violating facet in the canonical
    inequality order together with its distinct value set.  Values are
    compared as the integers a . (L x), L the vertices' common denominator;
    only the witness's values become fractions.
    """
    v, _, facets, _ = classify_inequalities(h)
    for facet in facets:
        values = sorted(set(_scaled_values(v, facet)))
        if len(values) > 2:
            return TwoLevelResult(False, TwoLevelWitness(
                facet, tuple(Fraction(s, v.scale) for s in values)))
    return TwoLevelResult(True, None)


def order_two_level_criterion(mp: MarkedPoset) -> bool:
    """2-levelness of the marked order polytope from the cover structure.

    The polytope is a product over the pieces of unmarked elements coupled by
    unmarked covers; it is 2-level exactly when, for every piece, the marked
    values entering from below all agree and the marked values bounding it
    from above all agree.  (Components joined only through marked elements
    factor apart, and equal-valued boundary marks merge into a single bound,
    so counting extremal *elements* per Hasse component rejects polytopes
    that are in fact products of 2-level factors.)  Requires a strict regular
    input.
    """
    require_strict_regular(mp, "order_two_level_criterion")
    return all(len(set(lower.values())) == 1 == len(set(upper.values())) for _, _, lower, upper in _pieces(mp))


@dataclass(frozen=True)
class ChainTwoLevelResult:
    two_level: bool
    scaling: dict[str, Fraction] | None = None


def _chain_spans(h: HRepresentation, chain: Iterable[str]) -> dict[str, Fraction] | None:
    """``{coordinate: c}`` when the facets through ``chain`` have the chain-polytope shape, else None.

    Each coordinate in ``chain`` must take exactly the values {0, c} on the
    vertices, and every facet touching one must have a single gap |a|*c over
    its chain coordinates, take at most two values on the vertices, and have
    rhs - min = gap.  All of it is read in the integers L x and a . (L x),
    L the vertices' common denominator.
    """
    v = enumerate_vertices(h)
    span: dict[str, int] = {}  # L c
    for c in chain:
        values = sorted(set(v._columns[c]))
        if len(values) != 2 or values[0] != 0:
            return None
        span[c] = values[1]
    _, _, facets, _ = classify_inequalities(h)
    for facet in facets:
        gaps = {abs(a) * span[c] for c, a in facet.coeffs.items() if c in span}
        if not gaps:
            continue
        values = sorted(set(_scaled_values(v, facet)))
        rhs = facet.rhs
        if len(values) > 2 or any(rhs.numerator * v.scale != (values[0] + g) * rhs.denominator for g in gaps):
            return None
    return {c: Fraction(s, v.scale) for c, s in span.items()}


def chain_two_level_criterion(mp: MarkedPoset) -> ChainTwoLevelResult:
    """2-levelness of the marked chain polytope via the normalizing scaling.

    Every coordinate must take exactly the values {0, c_p} on the vertex set;
    after scaling coordinate p by 1/c_p the irredundant description must
    consist of nonnegativity facets and unit chain sums bounded by 1.  The
    scaling (the per-coordinate multipliers) is returned on success.  The
    test is the one :func:`chain_order_two_level_criterion` runs on its chain
    part (``_chain_spans``), with every unmarked element in the chain.

    Only strictness is required: the chain polytope never sees the order
    redundancies that regularity rules out.
    """
    require_strict(mp, "chain_two_level_criterion")
    h = build_chain_hrep(mp)
    # The shared gap test is the scaled-shape test here.  A strict marking
    # gives every chain row rhs marking(b) - marking(a) > 0, so a small
    # multiple of the all-ones vector is interior and no row is implicit; the
    # origin is a vertex, so every chain-sum facet has minimum 0 on the
    # vertices.  A facet scaled by the spans is then -y <= 0 or sum(y) <= 1
    # exactly when it has one gap c and rhs - min = c.
    span = _chain_spans(h, h.coordinates)
    if span is None:
        return ChainTwoLevelResult(False, None)
    return ChainTwoLevelResult(True, {p: 1 / c for p, c in span.items()})


def chain_order_two_level_criterion(mp: MarkedPoset, part: ChainOrderPartition) -> bool:
    """2-levelness of the marked chain-order polytope.

    Two conditions: (a) the marked order polytope restricted to the non-chain
    elements is 2-level, and (b) every irredundant inequality touching a chain
    coordinate takes exactly two values on the vertex set, whose gap equals
    the (common) vertex-value span of its chain coordinates -- i.e. the facet
    bounds differ by exactly 1 after the per-chain-coordinate scaling.

    Condition (a) is the order criterion on the restriction, made regular
    with its order polytope kept by ``posets._regularize``.
    """
    require_strict(mp, "chain_order_two_level_criterion")
    part.validate(mp)
    if not order_two_level_criterion(_regularize(restrict_marked(mp, part.order | mp.marked))):
        return False
    if not part.chain:
        return True
    return _chain_spans(build_chain_order_hrep(mp, part), sorted(part.chain)) is not None
