"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also enforces its runtime budget.  Everything is exact
arithmetic, so "tolerance" everywhere means equality.
"""

import random
import time

import pytest

from markedposets import (
    LinearInequality,
    build_chain_hrep,
    build_chain_order_hrep,
    build_order_hrep,
    chain_order_two_level_criterion,
    chain_two_level_criterion,
    count_lattice_points,
    count_restricted_extensions,
    ehrhart_by_counting,
    ehrhart_formula_marked_order,
    enumerate_vertices,
    irredundant,
    is_two_level_direct,
    order_two_level_criterion,
    pm_closed_form,
    pm_family,
)
from markedposets.corpus import corpus
from markedposets.gallery import crossing_chains
from helpers import (
    affine_image,
    all_chain_order_partitions,
    face_partition_of_point,
    is_face_partition,
    random_convex_points,
    random_unimodular_map,
)

CORPUS_SEED = 20250808


@pytest.fixture(scope="module")
def corpus200():
    # criterion 4's corpus, shared verbatim by criteria 5 and 7
    return corpus(CORPUS_SEED, trials=200, max_unmarked=5, mark_lo=0, mark_hi=4)


@pytest.fixture(scope="module")
def corpus50():
    return corpus(CORPUS_SEED + 1, trials=50, max_unmarked=4, mark_lo=0, mark_hi=4)


def report(number: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {number}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")
    assert ok
    assert elapsed < budget


def test_criterion_1_figure_reproduction():
    t0 = time.time()
    mp = crossing_chains()
    h = build_chain_hrep(mp)
    ok = len(h.inequalities) == 5
    reduced = irredundant(h)
    dropped = set(h.inequalities) - set(reduced.inequalities)
    ok &= dropped == {LinearInequality({"x1": 1, "x2": 1}, 2)}
    ok &= enumerate_vertices(h).vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    ok &= chain_two_level_criterion(mp).two_level
    report(1, ok, "crossed-chains polytope: 5 rows, chain sum dropped, "
                  "unit-square vertices, chain criterion true", time.time() - t0, 1.0)


def test_criterion_2_closed_forms():
    t0 = time.time()
    ok = True
    for m in (3, 4, 5, 6):
        for c in (1, 2):
            ok &= ehrhart_formula_marked_order(pm_family(m, c)) == pm_closed_form(m, c)
    for m, c in ((3, 1), (3, 2), (4, 1)):
        counted = ehrhart_by_counting(build_order_hrep(pm_family(m, c)))
        ok &= counted == pm_closed_form(m, c)
    report(2, ok, "family closed forms match the formula for (m,c) in "
                  "{3..6}x{1,2} and the counts for (3,1),(3,2),(4,1)",
           time.time() - t0, 60.0)


def test_criterion_3_extension_census():
    t0 = time.time()
    ok = all(count_restricted_extensions(pm_family(m, 1)) == 2 * m - 4
             for m in (3, 4, 5, 6))
    report(3, ok, "restricted linear extensions number 2m-4 for m in 3..6",
           time.time() - t0, 5.0)


def test_criterion_4_order_equivalence(corpus200):
    t0 = time.time()
    agreements = sum(
        1 for mp in corpus200
        if order_two_level_criterion(mp)
        == is_two_level_direct(build_order_hrep(mp)).two_level)
    report(4, agreements == len(corpus200),
           f"order criterion vs direct test: {agreements}/{len(corpus200)} agree",
           time.time() - t0, 300.0)


def test_criterion_5_chain_equivalence(corpus200):
    t0 = time.time()
    agreements = sum(
        1 for mp in corpus200
        if chain_two_level_criterion(mp).two_level
        == is_two_level_direct(build_chain_hrep(mp)).two_level)
    report(5, agreements == len(corpus200),
           f"chain criterion vs direct test: {agreements}/{len(corpus200)} agree",
           time.time() - t0, 300.0)


def test_criterion_6_chain_order_equivalence(corpus50):
    t0 = time.time()
    checked = agreements = 0
    columns_ok = True
    for mp in corpus50:
        order_verdict = order_two_level_criterion(mp)
        chain_verdict = chain_two_level_criterion(mp).two_level
        for part in all_chain_order_partitions(mp):
            checked += 1
            direct = is_two_level_direct(build_chain_order_hrep(mp, part)).two_level
            criterion = chain_order_two_level_criterion(mp, part)
            if direct == criterion:
                agreements += 1
            if not part.chain:
                columns_ok &= criterion == order_verdict
            if not part.order:
                columns_ok &= criterion == chain_verdict
    ok = agreements == checked and columns_ok
    report(6, ok, f"chain-order criterion vs direct over all partitions: "
                  f"{agreements}/{checked} agree, boundary columns reproduce "
                  f"criteria 4-5: {columns_ok}", time.time() - t0, 600.0)


def test_criterion_7_ehrhart_equivalence(corpus200):
    t0 = time.time()
    ok = True
    polytopes = 0
    for mp in corpus200:
        base = ehrhart_by_counting(build_order_hrep(mp))
        ok &= ehrhart_formula_marked_order(mp) == base
        ok &= ehrhart_by_counting(build_chain_hrep(mp)) == base
        polytopes += 2
        for part in all_chain_order_partitions(mp):
            ok &= ehrhart_by_counting(build_chain_order_hrep(mp, part)) == base
            polytopes += 1
        if not ok:
            break
    report(7, ok, f"order/chain/all chain-order Ehrhart polynomials equal and "
                  f"formula matches counting on {polytopes} polytopes",
           time.time() - t0, 600.0)


def test_criterion_8_face_partition_consistency(corpus200):
    t0 = time.time()
    rng = random.Random(CORPUS_SEED + 8)
    ok = True
    points_checked = 0
    for mp in corpus200[:20]:
        v = enumerate_vertices(build_order_hrep(mp))
        for point in random_convex_points(rng, v, 5):
            ok &= is_face_partition(mp, face_partition_of_point(mp, point))
            points_checked += 1
        for x in v.vertices:
            ok &= face_partition_of_point(mp, dict(zip(v.coordinates, x))).free_blocks == ()
    report(8, ok, f"{points_checked} random points give face partitions; "
                  f"every vertex partition has zero free blocks",
           time.time() - t0, 60.0)


def test_criterion_9_affine_invariance(corpus200):
    t0 = time.time()
    rng = random.Random(CORPUS_SEED + 9)
    ok = True
    maps_checked = 0
    for index, mp in enumerate(corpus200[:20]):
        h = build_order_hrep(mp) if index % 2 == 0 else build_chain_hrep(mp)
        verdict = is_two_level_direct(h).two_level
        counts = [count_lattice_points(h, n) for n in (1, 2)]
        d = len(h.coordinates)
        for _ in range(5):
            matrix, shift = random_unimodular_map(rng, d)
            image = affine_image(h, matrix, shift)
            ok &= is_two_level_direct(image).two_level == verdict
            ok &= [count_lattice_points(image, n) for n in (1, 2)] == counts
            maps_checked += 1
    report(9, ok, f"2-level verdicts and lattice counts at n=1,2 invariant "
                  f"under {maps_checked} unimodular affine maps",
           time.time() - t0, 120.0)
