"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces its runtime budget.  Criteria 5, 6 and 9 share instance
pools, which are generated and verified once in module-scoped fixtures.
"""

import random
import time

import pytest

from helpers import (all_complexes_on, all_complexes_up_to_iso,
                     betti_oracle_lattice, j_oracle, leray_oracle,
                     random_poset)

from multinerve import (barycentric_subdivision, canonical_projection,
                        chain_complex, is_acyclic_with_slack, j_index,
                        leray_number, multinerve, nerve, random_family,
                        reduced_betti, region_betti, region_is_empty,
                        verify_helly_bound, verify_multinerve_theorem,
                        verify_projection_bound)
from multinerve.fixtures import (blown_tetrahedron_family,
                                 box_circle_cover_family, box_ring_family,
                                 corridor_box_family, interval_union_h3_family,
                                 tight_interval_family, two_arc_circle_family)


def report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({detail}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# shared instance pools


def _pool_families():
    """Instances for the projection-bound criterion: >= 300 across backends."""
    out = []
    for seed in range(75):
        out.append(("box1d", random_family(
            "box", 2 + seed % 3, seed, ambient_dim=1, boxes_per_member=2)))
    for seed in range(75):
        out.append(("box2d", random_family(
            "box", 3 + seed % 3, seed, ambient_dim=2, boxes_per_member=1)))
    for seed in range(40):
        out.append(("box2d-union", random_family(
            "box", 2 + seed % 2, seed, ambient_dim=2, boxes_per_member=2)))
    for seed in range(75):
        out.append(("grid", random_family(
            "subcomplex", 2 + seed % 3, seed, grid=3, stars_per_member=2)))
    for seed in range(30):
        out.append(("grid-ring", random_family(
            "subcomplex", 2 + seed % 2, seed, grid=4, stars_per_member=2,
            with_ring=True)))
    out.extend([
        ("two-arcs", two_arc_circle_family()),
        ("blown-tetra", blown_tetrahedron_family()),
        ("corridor", corridor_box_family()),
        ("intervals", tight_interval_family()),
        ("interval-union-h3", interval_union_h3_family()),
        ("circle-cover", box_circle_cover_family()),
        ("box-ring", box_ring_family()),
    ])
    return out


@pytest.fixture(scope="module")
def projection_results():
    t0 = time.monotonic()
    results = []
    for i, (name, F) in enumerate(_pool_families()):
        s = next((x for x in (0, 3) if is_acyclic_with_slack(F, x)[0]), None)
        rep = verify_projection_bound(F, t=1 + i % 3, s=s)
        results.append((name, F, rep))
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def helly_results():
    t0 = time.monotonic()
    results = []
    found_h3 = 0
    # the shipped tight and r=2 fixtures, then a randomized search over
    # interval-union instances for h >= 3 witnesses
    fixed = [("intervals", tight_interval_family(), 0, 1),
             ("interval-union-h3", interval_union_h3_family(), 0, 1),
             ("corridor", corridor_box_family(), 0, 1),
             ("blown-tetra", blown_tetrahedron_family(), 0, 1)]
    for name, F, s, t in fixed:
        results.append((name, F, verify_helly_bound(F, s=s, t=t)))
    for seed in range(150):
        F = random_family("box", 3 + seed % 2, seed, ambient_dim=1,
                          boxes_per_member=2)
        if not region_is_empty(F, range(len(F))):
            continue
        rep = verify_helly_bound(F, s=0, t=1)
        results.append((f"search-{seed}", F, rep))
        if rep.quantities["r"] == 2 and rep.quantities["h"] >= 3:
            found_h3 += 1
    return results, found_h3, time.monotonic() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_two_arc_fixture():
    t0 = time.monotonic()
    F = two_arc_circle_family()
    M = multinerve(F)
    bm = reduced_betti(M.poset)
    bn = reduced_betti(nerve(F))
    r = canonical_projection(M).max_fiber
    elapsed = time.monotonic() - t0
    ok = bm[1] == 1 and dict(bm.items()) == {1: 1} and bn.is_trivial \
        and r == 2 and elapsed < 1.0
    report(1, "two-arc circle cover fixture", ok,
           f"betti(M)={dict(bm.items())}, nerve trivial={bn.is_trivial}, r={r}",
           elapsed)
    assert ok


def test_criterion_2_blown_tetrahedron_fixture():
    t0 = time.monotonic()
    F = blown_tetrahedron_family()
    bm = reduced_betti(multinerve(F).poset)
    bn = reduced_betti(nerve(F))
    elapsed = time.monotonic() - t0
    ok = bm.is_trivial and dict(bn.items()) == {2: 1} and elapsed < 5.0
    report(2, "4-member acyclic fixture", ok,
           f"betti(M) trivial={bm.is_trivial}, betti(N)={dict(bn.items())}",
           elapsed)
    assert ok


def test_criterion_3_nerve_theorem_degeneration():
    t0 = time.monotonic()
    failures = 0
    count = 0
    for seed in range(100):
        for dim, n in ((1, 2 + seed % 5), (2, 2 + (seed + 3) % 5)):
            F = random_family("box", n, seed, ambient_dim=dim,
                              boxes_per_member=1)
            bm = reduced_betti(multinerve(F).poset)
            bn = reduced_betti(nerve(F))
            bu = region_betti(F, ())
            count += 1
            if not (bm == bn == bu):
                failures += 1
    elapsed = time.monotonic() - t0
    ok = count == 200 and failures == 0 and elapsed < 60.0
    report(3, "nerve-theorem degeneration", ok,
           f"{count} convex families, {failures} failures", elapsed)
    assert ok


def test_criterion_4_multinerve_theorem_at_slack():
    t0 = time.monotonic()
    accepted = 0
    failures = 0
    by_slack = {0: 0, 2: 0, 3: 0}
    seed = 0
    while accepted < 100:
        with_ring = seed % 3 == 0
        F = random_family("subcomplex", 2 + seed % 3, seed, grid=4,
                          stars_per_member=2, with_ring=with_ring)
        seed += 1
        if is_acyclic_with_slack(F, 0)[0]:
            # designate every fifth acyclic family as slack 2 (the
            # definitions coincide below 3, the asserted range shrinks)
            s = 2 if accepted % 5 == 0 else 0
        elif is_acyclic_with_slack(F, 3)[0]:
            s = 3
        else:
            continue
        accepted += 1
        by_slack[s] += 1
        if not verify_multinerve_theorem(F, s).all_pass:
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and all(by_slack[s] > 0 for s in (0, 2, 3)) \
        and elapsed < 300.0
    report(4, "multinerve theorem at slack", ok,
           f"100 families, slack counts {by_slack}, {failures} failures",
           elapsed)
    assert ok


def test_criterion_5_projection_bound(projection_results):
    results, elapsed = projection_results
    bad = [name for name, _, rep in results if not rep.all_pass]
    ok = len(results) >= 300 and not bad and elapsed < 600.0
    report(5, "projection bound", ok,
           f"{len(results)} instances, failures {bad[:3]}", elapsed)
    assert ok


def test_criterion_6_helly_bounds(helly_results):
    results, found_h3, elapsed = helly_results
    bad = [name for name, _, rep in results if not rep.all_pass]
    tight = next(rep for name, _, rep in results if name == "intervals")
    shipped_h3 = next(rep for name, _, rep in results
                      if name == "interval-union-h3")
    ok = (not bad and tight.quantities["h"] == tight.quantities["bound"] == 2
          and shipped_h3.quantities["h"] >= 3 and found_h3 >= 1
          and elapsed < 600.0)
    report(6, "Helly bounds", ok,
           f"{len(results)} instances, h=2 tight, "
           f"{found_h3 + 1} instances with r=2 and h>=3", elapsed)
    assert ok


def test_criterion_7_l_equals_j_on_complexes():
    t0 = time.monotonic()
    classes = all_complexes_up_to_iso(5)
    # L and J run one walk, so J is checked against L's own oracle
    eq_failures = [i for i, K in enumerate(classes)
                   if j_index(K).value != leray_oracle(K)]
    rng = random.Random(20240)
    poset_failures = 0
    for _ in range(500):
        P = random_poset(rng, n_vertices=5, n_facets=5, max_facet=3)
        if leray_number(P).value != j_oracle(P):
            poset_failures += 1
    elapsed = time.monotonic() - t0
    ok = not eq_failures and poset_failures == 0 and elapsed < 600.0
    report(7, "L = J on complexes and posets", ok,
           f"{len(classes)} iso classes against the Leray oracle, "
           "500 posets against the J oracle",
           elapsed)
    assert ok


def test_criterion_8_homology_oracle():
    t0 = time.monotonic()
    complexes = all_complexes_on((0, 1, 2, 3))
    oracle_failures = 0
    for K in complexes:
        chain_complex(K)  # d o d = 0 asserted at build
        if dict(reduced_betti(K).items()) != betti_oracle_lattice(K):
            oracle_failures += 1
    rng = random.Random(77)
    sd_failures = 0
    for _ in range(100):
        P = random_poset(rng, n_vertices=5, n_facets=4, max_facet=3)
        if reduced_betti(P) != reduced_betti(barycentric_subdivision(P)):
            sd_failures += 1
    elapsed = time.monotonic() - t0
    ok = oracle_failures == 0 and sd_failures == 0 and elapsed < 300.0
    report(8, "homology oracle", ok,
           f"{len(complexes)} complexes vs lattice oracle, "
           f"100 subdivision checks, dd=0 asserted", elapsed)
    assert ok


def test_criterion_9_helly_leray_link(projection_results, helly_results):
    t0 = time.monotonic()
    proj, _ = projection_results
    helly, _, _ = helly_results
    checked = 0
    failures = 0
    for name, F, rep in proj:
        if "h" in rep.quantities:
            checked += 1
            if not rep.check("helly_leray").passed:
                failures += 1
    for name, F, rep in helly:
        checked += 1
        if not rep.check("helly_leray").passed:
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and checked > 100
    report(9, "Helly-Leray link", ok,
           f"h <= L(N)+1 on {checked} instances", elapsed)
    assert ok
