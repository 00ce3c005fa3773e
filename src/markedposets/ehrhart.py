"""Ehrhart polynomials of marked poset polytopes.

Two independent routes: exact lattice-point counting plus interpolation, and
a closed formula.  The counting route counts the closed dilates nP for
n = 0..floor(dim/2) and, by Ehrhart-Macdonald reciprocity, the relative
interiors of mP for m = 1..ceil(dim/2) in place of the larger dilates; one
more closed count, at floor(dim/2) + 1, checks the interpolated polynomial.
The formula sums, over the linear extensions of the tie-break poset (the
poset with its marked elements put in one chain by mark), products of
binomial polynomials read off each extension's descent pattern between
consecutive marked elements.  It groups the extensions by the multiset of
their segments (mark gap, descents, length), so each distinct product is
expanded once, in integers over the common denominator u! (u the number of
unmarked elements), and scaled by how many extensions share it.  The marked
order polytope is the product of its pieces' polytopes (a piece: unmarked
elements joined by covers between two unmarked elements), and the Ehrhart
polynomial of a product is the product of its factors', so the formula
streams each piece's tie-break poset on its own (one stream builder serves
the whole poset and every piece) and multiplies the integer numerators; the
only division is the last one, by the product of the pieces' u!.  Pieces
that are isomorphic as marked posets, up to one shift of all their marks,
have one factor: each piece is keyed by its covers and its shifted marks,
numbered in the topological order of the whole poset, each distinct key is
streamed once, and its numerator is raised to the number of pieces that
share the key by J.C.P. Miller's recurrence for powers of power series.
The two routes are held equal on every corpus instance by the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Mapping

from .errors import (
    ExtensionExplosion,
    NonIntegralVertices,
    PreconditionViolated,
    VerificationFailed,
)
from .geometry import (
    HRepresentation,
    UnivariatePolynomial,
    classify_inequalities,
    count_lattice_points,
    _convolve,
    _count_points,
    _work_cap,
    enumerate_vertices,
    interpolate_polynomial,
)
from .posets import (
    ExtensionWord,
    MarkedPoset,
    Poset,
    _pieces,
    check_natural_labeling,
    linear_extensions,
    require_strict_regular,
)

DEFAULT_EXTENSION_CAP = 10**6


def ehrhart_by_counting(h: HRepresentation) -> UnivariatePolynomial:
    """Interpolate L_P at n = -ceil(dim/2)..floor(dim/2), verify at floor(dim/2) + 1.

    P must be a lattice polytope (NonIntegralVertices otherwise).  Its
    dimension comes from ``classify_inequalities``, whose affine-hull rows
    need no rank on a full-dimensional polytope; the counting kernel reads
    the implicit rows off the same cached result.  The values at n >= 0 are
    closed counts of nP.  By Ehrhart-Macdonald reciprocity,
    L_P(-m) = (-1)^dim * #(relint(mP) & Z^d), so the values at n = -m come
    from relative-interior counts of mP for m = 1..ceil(dim/2), which stay
    small.  The probe is one more closed count, at a dilation outside the
    interpolation points, checked in integers: the polynomial's numerators
    over its common denominator D, evaluated there, must equal the probe
    times D.
    """
    v = enumerate_vertices(h)
    if v.scale != 1:
        p = next(p for p in v.vertices if any(x.denominator != 1 for x in p))
        raise NonIntegralVertices(f"vertex {p} is not integral")
    dim = classify_inequalities(h)[1]
    top = dim // 2
    sign = -1 if dim % 2 else 1
    points = [(-m, sign * _count_points(h, m, 1)) for m in range(1, dim - top + 1)]
    points += [(n, count_lattice_points(h, n)) for n in range(top + 1)]
    poly = interpolate_polynomial(points)
    probe = count_lattice_points(h, top + 1)
    den = math.lcm(*(c.denominator for c in poly.coefficients))
    value = 0
    for c in reversed(poly.coefficients):
        value = value * (top + 1) + c.numerator * (den // c.denominator)
    if value != probe * den:
        raise VerificationFailed(
            f"interpolated polynomial disagrees with the count at dilation {top + 1}")
    return poly


def _tie_break_extensions(elements: Iterable[str], covers: Iterable[tuple[str, str]],
                          marks: Mapping[str, int | Fraction], labeling: Mapping[str, int] | None
                          ) -> Iterator[ExtensionWord]:
    """The linear extensions of the tie-break poset on ``elements``: ``covers`` and every mark in one chain.

    The chain orders ``marks`` by value, ties broken by the labeling (by id
    for the canonical one), so the stream counts each family of
    order-preserving maps once.  A given labeling, which must label every
    element, is ranked among ``elements`` to 1..n; ``linear_extensions``
    checks that it is natural on the tie-break poset.
    """
    chain = sorted(marks, key=lambda a: (marks[a], a if labeling is None else labeling[a]))
    tie_break = Poset.from_relations(elements, [*covers, *zip(chain, chain[1:])])
    ranked = None if labeling is None else {
        e: r for r, e in enumerate(sorted(tie_break.elements, key=labeling.__getitem__), 1)}
    return linear_extensions(tie_break, ranked)


def restricted_linear_extensions(
    mp: MarkedPoset, labeling: Mapping[str, int] | None = None
) -> Iterator[ExtensionWord]:
    """Linear extensions with the marked elements in nondecreasing mark order.

    The stream of ``_tie_break_extensions`` on the whole of ``mp``.
    Equal-mark marked elements are kept in one canonical relative order, so
    each word of unmarked segments appears exactly once.  A given labeling is
    checked on ``mp`` first, so the tie-break sort never meets an element it
    does not label; ``linear_extensions`` checks it on the tie-break poset.
    """
    if labeling is not None:
        check_natural_labeling(mp.poset, labeling)
    return _tie_break_extensions(mp.poset.elements, mp.poset.covers, mp.marking, labeling)


def _capped(streams: Iterable[Iterator[ExtensionWord]]) -> Iterator[tuple[int, ExtensionWord]]:
    """Each stream's words, tagged with the stream's index; an ExtensionExplosion once
    the streams together pass the work cap."""
    cap = _work_cap(DEFAULT_EXTENSION_CAP)
    seen = 0
    for i, words in enumerate(streams):
        for ext in words:
            seen += 1
            if seen > cap:
                raise ExtensionExplosion(f"more than {cap} restricted linear extensions"
                                         "; set MPP_WORK_CAP to raise it")
            yield i, ext


def count_restricted_extensions(mp: MarkedPoset) -> int:
    """The number of restricted linear extensions of the whole of ``mp`` (capped).

    It counts what ``_tie_break_extensions`` streams on the whole poset.  The
    formula runs the same builder on each piece, so it streams fewer words
    than this on a poset with two or more pieces (the sum of the pieces'
    counts, not their product times the shuffles) or with a mark that touches
    no piece.
    """
    return sum(1 for _ in _capped([restricted_linear_extensions(mp)]))


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
    """The closed Ehrhart formula of the marked order polytope, as a product over its pieces.

    For one marked poset the formula streams the restricted linear
    extensions; each extension contributes the product, over its maximal
    unmarked segments between consecutive marked elements a and b (k
    elements, d descents counted from a's position up to just before b's), of
    C(n*(mark(b) - mark(a)) - d + k, k).

    The product depends only on the multiset of (mark(b) - mark(a), d, k)
    triples, the word's signature.  The stream counts the words of each
    signature; each distinct signature is multiplied out once, in integers
    over the common denominator u! (u unmarked elements; a word's segments are
    disjoint sets of them), and each distinct triple is expanded once.

    The polytope is the product of its pieces' order polytopes, so the formula
    runs on each piece's marked poset -- the piece, the lower and upper marks
    that ``_pieces`` finds for it and the covers of P that touch it -- and
    multiplies the integer numerators, dividing once by the product of the
    u_i! at the end.  Each piece streams through ``_tie_break_extensions``,
    the builder of :func:`restricted_linear_extensions`.  Why:

    1. Every order H-rep row touches one piece: a cover between two unmarked
       elements lies inside a piece, a mark-element cover bounds one
       coordinate, and a mark-mark cover gives no row.
    2. The piece's marked poset is valid and strict regular, and its order
       polytope is that factor.  Its covers are covers of P, so none is
       implied; its relations are relations of P, so strictness, regularity
       and order preservation carry over; each unmarked element has a lower
       and an upper cover in P, each in the piece or an adjacent mark, so the
       extremes are marked.  Hence no piece is validated again.
    3. A lattice point of n(A x B) is a pair of lattice points of nA and nB,
       so L_{A x B} = L_A * L_B.

    Isomorphic pieces share a factor, so each is streamed once.  A piece's
    key numbers its elements (the piece and its marks) by their position in
    the topological order of P, and is its covers as sorted index pairs with
    its marks as sorted (index, mark - least mark of the piece) pairs.  Two
    pieces with equal keys are isomorphic by the map that sends the i-th
    element of one to the i-th of the other: it keeps the covers, the marked
    elements and the mark differences.  Shifting every mark of a piece by
    one integer translates its polytope by a lattice vector, so the factor
    u! * L_piece(n) depends only on the isomorphism class, not on the
    labeling or the tie-break order.  Each distinct key streams its first
    piece, and its factor's numerator is raised to the number of pieces with
    that key (:func:`_power`).  Isomorphic pieces with different keys (P's
    order numbers them differently) only cost one more stream.

    A given labeling is checked once, on ``mp`` and then on the whole
    tie-break poset (the first word of the whole stream), and ranked within
    each streamed piece: it is natural there, since each piece's tie-break
    covers are relations of the whole tie-break poset.

    The work cap (:data:`DEFAULT_EXTENSION_CAP` unless ``MPP_WORK_CAP`` is
    set) bounds the words streamed in one call, summed over the distinct
    pieces streamed, each once; past it, ExtensionExplosion.
    """
    require_strict_regular(mp, "ehrhart_formula_marked_order")
    if not mp.is_integral():
        raise PreconditionViolated("the closed formula needs an integral marking")

    if labeling is not None:
        next(restricted_linear_extensions(mp, labeling))  # raises on a bad labeling
    index = mp.poset._index
    marks = mp._levels
    first: dict[tuple, tuple] = {}  # each key's first piece, with its covers and marks
    multiplicity: Counter[tuple] = Counter()
    for piece, covers, lower, upper in _pieces(mp):
        bounds = {**lower, **upper}  # one mark may bound the piece from both sides
        number = {e: i for i, e in enumerate(sorted((*piece, *bounds), key=index.__getitem__))}
        least = min(marks[a] for a in bounds)
        key = (tuple(sorted((number[p], number[q]) for p, q in covers)),
               tuple(sorted((number[a], marks[a] - least) for a in bounds)))
        first.setdefault(key, (piece, covers, bounds))
        multiplicity[key] += 1
    signatures: list[Counter[tuple[tuple[int, int, int], ...]]] = [Counter() for _ in first]
    streams = (_tie_break_extensions((*piece, *bounds), covers, bounds, labeling)
               for piece, covers, bounds in first.values())
    for factor, ext in _capped(streams):
        marked_at = [i for i, e in enumerate(ext.word) if e in marks]
        signatures[factor][tuple(sorted(
            (marks[ext.word[t]] - marks[ext.word[s]], ext.segment_descents(s, t), t - s - 1)
            for s, t in zip(marked_at, marked_at[1:])))] += 1
    # both dicts took each key at its first piece, so they list the keys in one order
    return _signature_sum(zip(signatures, (len(piece) for piece, _, _ in first.values()), multiplicity.values()))


def _power(coefficients: list[int], exponent: int) -> list[int]:
    """The coefficients of a polynomial with integer coefficients and a nonzero constant term,
    raised to ``exponent`` >= 2, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

    With b = a^m, a * b' = m * a' * b gives, coefficient by coefficient,
    k a_0 b_k = sum over j = 1..k of ((m + 1) j - k) a_j b_{k-j}.  The power
    has integer coefficients, so each division by k a_0 is exact.  Cost:
    O(m * deg(a)^2) products, against O(m^2 * deg(a)^2) for m - 1
    multiplications by a.
    """
    a0, degree = coefficients[0], len(coefficients) - 1
    power = [a0 ** exponent]
    for k in range(1, exponent * degree + 1):
        power.append(sum(((exponent + 1) * j - k) * coefficients[j] * power[k - j]
                         for j in range(1, min(k, degree) + 1)) // (k * a0))
    return power


def _signature_sum(factors: Iterable[tuple[Mapping[tuple[tuple[int, int, int], ...], int], int, int]]
                   ) -> UnivariatePolynomial:
    """Multiply, over the factors, the sums of words * prod C(n*delta - d + k, k), (delta, d, k) in a signature,
    each sum raised to its factor's multiplicity.

    Each factor is its signature counts, its number u of unmarked elements
    and its multiplicity.  Every signature's lengths k must sum to at most u:
    then u!/(k_1! k_2! ...) is an integer, a multinomial times a factorial,
    and dividing out one k_i! at a time stays exact.  A factor's numerator
    over u! sums, in one integer coefficient list, each signature's numerator
    product times words * u!/(k_1! k_2! ...); its constant term is u! (the
    one lattice point of the 0-th dilate, times u!), so :func:`_power` raises
    it.  The numerators multiply, and each coefficient of the product is
    divided by the product of the (u!)^multiplicity once.
    """
    numerator = cache(_segment_factor)
    product, denominator = [1], 1
    for signatures, unmarked, multiplicity in factors:
        scale_all = math.factorial(unmarked)
        total = [0] * (unmarked + 1)
        for signature, words in signatures.items():
            term, scale = [1], words * scale_all
            for delta, descents, k in signature:
                term = _convolve(term, numerator(delta, descents, k))
                scale //= math.factorial(k)
            for i, c in enumerate(term):
                total[i] += scale * c
        product = _convolve(product, total if multiplicity == 1 else _power(total, multiplicity))
        denominator *= scale_all ** multiplicity
    return UnivariatePolynomial(tuple(Fraction(c, denominator) for c in product))


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
    """(1 + c*n)^(m-1) * (1 + (m-2)*c*n), expanded in integers."""
    _check_pm_arguments(m, c)
    return UnivariatePolynomial(tuple(_convolve(_power([1, c], m - 1), [1, (m - 2) * c])))
