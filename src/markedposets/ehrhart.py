"""Ehrhart polynomials of marked poset polytopes.

Two independent routes: exact lattice-point counting plus interpolation, and
a closed formula.  The counting route counts the closed dilates nP for
n = 0..floor(dim/2) and, by Ehrhart-Macdonald reciprocity, the relative
interiors of mP for m = 1..ceil(dim/2) in place of the larger dilates; one
more closed count, at floor(dim/2) + 1, checks the interpolated polynomial.
The formula sums, over the linear extensions of the mark-augmented poset,
products of binomial polynomials read off each extension's descent pattern
between consecutive marked elements.  It groups the extensions by the
multiset of their segments (mark gap, descents, length), so each distinct
product is expanded once, in integers over the common denominator u! (u the
number of unmarked elements), and scaled by how many extensions share it;
the only division is the last one, by u!.  The two routes are held equal on
every corpus instance by the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterator, Mapping

from .errors import (
    ExtensionExplosion,
    NonIntegralVertices,
    PreconditionViolated,
    VerificationFailed,
)
from .geometry import (
    HRepresentation,
    UnivariatePolynomial,
    count_lattice_points,
    _convolve,
    _count_points,
    _work_cap,
    enumerate_vertices,
    interpolate_polynomial,
    polynomial,
)
from .posets import (
    ExtensionWord,
    MarkedPoset,
    Poset,
    check_natural_labeling,
    linear_extensions,
    require_strict_regular,
)

DEFAULT_EXTENSION_CAP = 10**6


def ehrhart_by_counting(h: HRepresentation) -> UnivariatePolynomial:
    """Interpolate L_P at n = -ceil(dim/2)..floor(dim/2), verify at floor(dim/2) + 1.

    P must be a lattice polytope (NonIntegralVertices otherwise).  The values
    at n >= 0 are closed counts of nP.  By Ehrhart-Macdonald reciprocity,
    L_P(-m) = (-1)^dim * #(relint(mP) & Z^d), so the values at n = -m come
    from relative-interior counts of mP for m = 1..ceil(dim/2), which stay
    small.  The probe is one more closed count, at a dilation outside the
    interpolation points.
    """
    v = enumerate_vertices(h)
    if v.scale != 1:
        p = next(p for p in v.vertices if any(x.denominator != 1 for x in p))
        raise NonIntegralVertices(f"vertex {p} is not integral")
    dim = v.dimension
    top = dim // 2
    sign = -1 if dim % 2 else 1
    points = [(-m, sign * _count_points(h, m, 1)) for m in range(1, dim - top + 1)]
    points += [(n, count_lattice_points(h, n)) for n in range(top + 1)]
    poly = interpolate_polynomial(points)
    probe = count_lattice_points(h, top + 1)
    if poly.evaluate(top + 1) != probe:
        raise VerificationFailed(
            f"interpolated polynomial disagrees with the count at dilation {top + 1}")
    return poly


def _tie_break_poset(mp: MarkedPoset, labeling: Mapping[str, int] | None) -> Poset:
    """The poset with every marked element in one chain, ordered by mark.

    Ties are broken by the reference labeling (by id for the canonical one),
    so the extension stream counts each family of order-preserving maps once.
    A given labeling is checked on ``mp`` first, so the sort never meets an
    element it does not label; ``linear_extensions`` checks it on the result.
    """
    if labeling is not None:
        check_natural_labeling(mp.poset, labeling)
    marked = sorted(mp.marked, key=lambda a: (mp.value(a), a if labeling is None else labeling[a]))
    return Poset.from_relations(mp.poset.elements, [*mp.poset.covers, *zip(marked, marked[1:])])


def restricted_linear_extensions(
    mp: MarkedPoset, labeling: Mapping[str, int] | None = None
) -> Iterator[ExtensionWord]:
    """Linear extensions with the marked elements in nondecreasing mark order.

    Equal-mark marked elements are kept in one canonical relative order, so
    each word of unmarked segments appears exactly once.
    """
    return linear_extensions(_tie_break_poset(mp, labeling), labeling)


def _capped_extensions(mp: MarkedPoset, labeling: Mapping[str, int] | None) -> Iterator[ExtensionWord]:
    """The restricted extensions; an ExtensionExplosion past the work cap."""
    cap = _work_cap(DEFAULT_EXTENSION_CAP)
    for seen, ext in enumerate(restricted_linear_extensions(mp, labeling), 1):
        if seen > cap:
            raise ExtensionExplosion(f"more than {cap} restricted linear extensions"
                                     "; set MPP_WORK_CAP to raise it")
        yield ext


def count_restricted_extensions(mp: MarkedPoset) -> int:
    return sum(1 for _ in _capped_extensions(mp, None))


def _segment_factor(delta: int, descents: int, k: int) -> tuple[int, ...]:
    """k! * C(n*delta - descents + k, k) expanded in n: integer coefficients, constant first.

    The product of the k linear factors n*delta + k - descents - j; the
    division by k! is left to the caller.
    """
    if k == 0:
        if descents:
            raise VerificationFailed("descent between adjacent marked elements")
        return (1,)
    if descents > k:
        raise VerificationFailed("segment descent count exceeds its length")
    coeffs = [1]
    for j in range(k):
        shift = k - descents - j
        coeffs = [shift * a + delta * b for a, b in zip(coeffs + [0], [0, *coeffs])]
    return tuple(coeffs)


def ehrhart_formula_marked_order(
    mp: MarkedPoset,
    labeling: Mapping[str, int] | None = None,
) -> UnivariatePolynomial:
    """The closed Ehrhart formula of the marked order polytope.

    Streams the restricted linear extensions (ExtensionExplosion past the
    work cap, :data:`DEFAULT_EXTENSION_CAP` unless ``MPP_WORK_CAP`` is set); each
    extension contributes the product, over its maximal unmarked segments
    between consecutive marked elements a and b (k elements, d descents
    counted from a's position up to just before b's), of
    C(n*(mark(b) - mark(a)) - d + k, k).

    The product depends only on the multiset of (mark(b) - mark(a), d, k)
    triples, the word's signature.  The stream counts the words of each
    signature; each distinct signature is multiplied out once, in integers
    over the common denominator u! (u unmarked elements; a word's segments are
    disjoint sets of them), and each distinct triple is expanded once.
    """
    require_strict_regular(mp, "ehrhart_formula_marked_order")
    if not mp.is_integral():
        raise PreconditionViolated("the closed formula needs an integral marking")

    marks = {a: int(v) for a, v in mp.marking.items()}
    signatures: Counter[tuple[tuple[int, int, int], ...]] = Counter()
    for ext in _capped_extensions(mp, labeling):
        marked_at = [i for i, e in enumerate(ext.word) if e in marks]
        signatures[tuple(sorted(
            (marks[ext.word[t]] - marks[ext.word[s]], ext.segment_descents(s, t), t - s - 1)
            for s, t in zip(marked_at, marked_at[1:])))] += 1
    return _signature_sum(signatures, len(mp.unmarked))


def _signature_sum(signatures: Mapping[tuple[tuple[int, int, int], ...], int],
                   unmarked: int) -> UnivariatePolynomial:
    """Sum words * prod C(n*delta - d + k, k) over (delta, d, k) in each signature.

    Every signature's lengths k must sum to at most ``unmarked`` (u): then
    u!/(k_1! k_2! ...) is an integer, a multinomial times a factorial, and
    dividing out one k_i! at a time stays exact.  Each term is its numerator
    product times words * u!/(k_1! k_2! ...), the terms add up in one integer
    coefficient list, and each coefficient is divided by u! once.
    """
    numerator = cache(_segment_factor)
    denominator = math.factorial(unmarked)
    total = [0] * (unmarked + 1)
    for signature, words in signatures.items():
        term, scale = [1], words * denominator
        for delta, descents, k in signature:
            term = _convolve(term, numerator(delta, descents, k))
            scale //= math.factorial(k)
        for i, c in enumerate(term):
            total[i] += scale * c
    return UnivariatePolynomial(tuple(Fraction(c, denominator) for c in total))


def _check_pm_arguments(m: int, c: int) -> None:
    if m < 3:
        raise ValueError("family needs m >= 3")
    if c < 1:
        raise ValueError("mark spacing c must be a positive integer")


def pm_family(m: int, c: int) -> MarkedPoset:
    """The ladder-with-a-loose-rung family of marked posets.

    Elements a_1..a_m (marked, equidistant marks with spacing c) alternate
    with unmarked x_1..x_m along a zigzag chain; x_2 hangs between x_1 and
    x_m, free of the rest, which makes the Ehrhart polynomial collapse to a
    closed form.
    """
    _check_pm_arguments(m, c)
    a = [f"a{i}" for i in range(1, m + 1)]
    x = [f"x{i}" for i in range(1, m + 1)]
    relations = [(a[0], x[0]), (x[0], a[1]), (x[0], x[1]), (x[1], x[m - 1])]
    for i in range(2, m):
        relations.append((a[i - 1], x[i]))
    for i in range(3, m + 1):
        relations.append((x[i - 1], a[i - 1]))
    poset = Poset.from_relations(a + x, relations)
    marking = {a[i]: i * c for i in range(m)}
    return MarkedPoset(poset, marking)


def pm_closed_form(m: int, c: int) -> UnivariatePolynomial:
    """(m-2)*n*c*(n*c+1)^(m-1) + (n*c+1)^(m-1), expanded."""
    _check_pm_arguments(m, c)
    base = polynomial([1, c]) ** (m - 1)
    return base * polynomial([0, (m - 2) * c]) + base
