"""Intersection-component oracle: both backends, slack, component counts."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from helpers import (around_a_point_family, box_nerve, closed_star_oracle,
                     family_component_maxima, family_components,
                     family_helly, family_nerve, family_reduced_multinerve,
                     family_region, family_region_betti,
                     family_members, family_slack_violation, family_walk,
                     grid_triangulation_oracle, small_family,
                     union_find_labels)

import multinerve.families
import multinerve.verify
from multinerve import (Box, FamilyError, SimplicialComplex, box, box_family,
                        component_containing, components, grid_triangulation,
                        is_acyclic_with_slack, max_components, nerve,
                        random_family, reduced_multinerve, region_betti,
                        region_is_empty, subcomplex_family)
from multinerve.families import (BoxUnionMember, SetFamily, SubcomplexMember,
                                 _grid_box, _meet, _overlaps, _within)
from multinerve.fixtures import (box_ring_family, circle_member_family,
                                 corridor_box_family,
                                 interval_union_double_edge_family,
                                 two_arc_circle_family)
from multinerve.nerve import multinerve as build_multinerve
from multinerve.verify import (PreconditionError, closed_star, helly_number,
                               ring_member, verify_helly_bound,
                               verify_multinerve_theorem,
                               verify_projection_bound)


class TestBox:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(FamilyError, match="lo < hi"):
            box((1, 1))

    def test_meet_is_strict(self):
        assert box((0, 1)).meet(box((1, 2))) is None
        assert box((0, 1)).meet(box((Fraction(1, 2), 2))) == \
            box((Fraction(1, 2), 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FamilyError, match="dimension"):
            box_family(2, [[box((0, 1))]])


# endpoints with mixed denominators; a box drawn against another often
# reuses its endpoints, so the two touch, nest or coincide
_RATIONAL = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 3, 5, 7)))


def _interval(draw, endpoints):
    return tuple(sorted(draw(st.lists(endpoints, min_size=2, max_size=2,
                                      unique=True))))


@st.composite
def _box_pairs(draw):
    a = [_interval(draw, _RATIONAL) for _ in range(draw(st.integers(1, 3)))]
    b = [_interval(draw, st.one_of(_RATIONAL, st.sampled_from(iv))) for iv in a]
    return box(*a), box(*b)


class TestIntegerGrid:
    """A box family holds its boxes on the integer grid of its endpoints'
    least common denominator; there they meet, overlap and nest exactly as
    their Fraction boxes do."""

    @settings(max_examples=400, deadline=None)
    @given(_box_pairs())
    def test_grid_boxes_agree_with_fraction_boxes(self, pair):
        a, b = pair
        F = box_family(a.dim, [[a], [b]])
        assert F.scale == math.lcm(*(x.denominator for c in pair
                                     for iv in c.intervals for x in iv))
        (x,), (y,) = (m.grid for m in F.members)
        assert [m.boxes for m in F.members] == [(a,), (b,)]
        met, want = _meet(x, y), a.meet(b)
        assert (met and _grid_box(met, F.scale).intervals) == (want and want.intervals)
        assert _overlaps(x, y) == a.overlaps(b) == (want is not None)
        assert _within(x, y) == a.within(b)
        assert _within(y, x) == b.within(a)
        assert region_is_empty(F, (0, 1)) == (want is None)

    def test_family_takes_its_grid_from_its_members(self):
        F = box_family(1, [[box((0, Fraction(1, 2)))], [box((Fraction(1, 3), 1))]])
        assert F.scale == 6 and {m.scale for m in F.members} == {6}
        assert SetFamily("box", F.members, 1, 1).scale == 6
        assert SetFamily("box", [], 1, 1).scale == 1
        halves = BoxUnionMember((((0, 1),),), 2)
        with pytest.raises(FamilyError, match=r"different grids: scales \[2, 6\]"):
            SetFamily("box", [F.members[0], halves], 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_off_grid_rep_is_found_exactly(self, data):
        # a family on the grid of halves and thirds, asked for the
        # component of a box whose endpoints are mostly fifths and
        # sevenths, inside one of the region's boxes or just outside it
        seed = data.draw(st.integers(0, 10 ** 6))
        rng = random.Random(seed)
        members = [[box(*((Fraction(lo, d), Fraction(lo + rng.randrange(1, 9), d))
                          for lo, d in ((rng.randrange(-6, 12), rng.choice((2, 3))),)))
                    for _ in range(rng.randrange(1, 4))] for _ in range(3)]
        F = box_family(1, members)
        A = data.draw(st.sampled_from([(), (0,), (1,), (0, 1), (0, 2)]))
        region = family_region(F, A)
        if not region:
            return
        (lo, hi), = data.draw(st.sampled_from(region))
        i, j = sorted(data.draw(st.lists(st.integers(-3, 38), min_size=2,
                                         max_size=2, unique=True)))
        rep = box((lo + (hi - lo) * Fraction(i, 35), lo + (hi - lo) * Fraction(j, 35)))
        holder = next((iv for iv in region if rep.within(Box(iv))), None)
        if holder is None:
            with pytest.raises(FamilyError, match="outside"):
                component_containing(F, A, rep)
        else:
            # the component of the region box that holds the rep, whose
            # endpoints are on the grid
            got = component_containing(F, A, rep)
            assert got is component_containing(F, A, Box(holder))
            assert got in components(F, A)


class TestComponents:
    def test_two_arc_instance_has_two_intersection_components(self):
        F = two_arc_circle_family()
        assert len(components(F, (0, 1))) == 2
        assert len(components(F, (0,))) == 1
        assert len(components(F, ())) == 1  # whole circle

    def test_interval_union_components(self):
        F = interval_union_double_edge_family()
        comps = components(F, (0, 1))
        assert len(comps) == 2
        # the two pieces are (1/2, 1) and (2, 5/2)
        reps = sorted(c.rep.intervals[0] for c in comps)
        assert reps == [(Fraction(1, 2), Fraction(1)),
                        (Fraction(2), Fraction(5, 2))]

    def test_single_convex_box_is_connected(self):
        F = box_family(2, [[box((0, 1), (0, 1))]])
        assert len(components(F, (0,))) == 1

    def test_unknown_member_index(self):
        F = box_family(1, [[box((0, 1))]])
        with pytest.raises(FamilyError, match="unknown member"):
            components(F, (5,))

    def test_determinism(self):
        F = two_arc_circle_family()
        assert components(F, (0, 1)) == components(F, (0, 1))

    def test_open_boxes_do_not_touch(self):
        # (0,1) and (1,2) share only the excluded point 1
        F = box_family(1, [[box((0, 1)), box((1, 2))]])
        assert len(components(F, (0,))) == 2


class TestComponentContaining:
    def test_subcomplex_lookup(self):
        F = two_arc_circle_family()
        target = component_containing(F, (0,), (1,))
        assert target == components(F, (0,))[0]

    def test_box_lookup(self):
        F = interval_union_double_edge_family()
        c = component_containing(F, (0,), box((Fraction(1, 2), 1)))
        assert c.rep.intervals[0] == (Fraction(0), Fraction(1))

    def test_outside_rep_rejected(self):
        F = interval_union_double_edge_family()
        with pytest.raises(FamilyError, match="outside"):
            component_containing(F, (0,), box((10, 11)))

    def test_box_meeting_two_components_is_outside(self):
        # an open box inside the region is connected, so it meets one
        # component; (1/2, 5/2) meets both boxes and covers the gap
        F = box_family(1, [[box((0, 1)), box((2, 3))]])
        with pytest.raises(FamilyError,
                           match="representative lies outside the region"):
            component_containing(F, (0,), box((Fraction(1, 2),
                                                Fraction(5, 2))))

    def test_box_partly_outside_the_region_rejected(self):
        # each meets only the component (0, 1), but part of it lies outside
        # the region: a box rep must lie inside one of the region's boxes
        F = box_family(1, [[box((0, 1)), box((2, 3))]])
        for rep in (box((Fraction(1, 2), Fraction(3, 2))),
                    box((-5, Fraction(1, 2)))):
            with pytest.raises(FamilyError,
                               match="representative lies outside the region"):
                component_containing(F, (0,), rep)

    def test_singleton_connected_member(self):
        F = box_family(1, [[box((0, 2))]])
        assert component_containing(F, (0,), box((0, 1))) == components(F, (0,))[0]

    def test_any_simplex_names_its_vertices_component(self):
        # an edge or a triangle as representative gives the component of
        # its vertices, found by graph search over the region's simplices
        for seed in range(4):
            F = random_family("subcomplex", 4, seed, grid=4)
            for A in [(), *(tuple(sorted(G)) for G in family_nerve(F))]:
                found = family_components(F, A, with_elements=True)
                for s in family_region(F, A):
                    (canon,) = [c for c, _, elems in found if s in elems]
                    label = component_containing(F, A, sorted(s))
                    assert label.canon == canon
                    assert label == component_containing(F, A, (min(s),))
        assert max(len(s) for s in family_region(F, ())) == 3

    def test_simplex_outside_the_region_rejected(self):
        F = two_arc_circle_family()
        region = set(family_region(F, (0,)))
        outside = [s for s in family_region(F, ()) if s not in region]
        assert outside
        for s in [*outside, (), (99,)]:
            with pytest.raises(FamilyError, match="outside"):
                component_containing(F, (0,), s)
        with pytest.raises(FamilyError, match="outside"):
            component_containing(F, (0, 1), (1, 2))

    def test_refinement_consistency(self):
        # every component of a finer region lands in exactly one component
        # of every coarser region, found through its representative
        for F in (two_arc_circle_family(), interval_union_double_edge_family(),
                  corridor_box_family()):
            n = len(F)
            import itertools
            for size in range(2, n + 1):
                for A in itertools.combinations(range(n), size):
                    for comp in components(F, A):
                        for i in range(size):
                            B = A[:i] + A[i + 1:]
                            component_containing(F, B, comp.rep)


class TestRegionBetti:
    def test_crossing_boxes_are_contractible(self):
        F = box_family(2, [[box((0, 3), (1, 2))], [box((1, 2), (0, 3))]])
        assert region_betti(F, (0, 1)).is_trivial

    def test_box_ring_union_has_a_hole(self):
        assert region_betti(box_ring_family(), ())[1] == 1

    def test_two_arc_union_is_a_circle(self):
        assert region_betti(two_arc_circle_family(), ())[1] == 1

    def test_empty_region(self):
        F = box_family(1, [[box((0, 1))], [box((2, 3))]])
        assert region_betti(F, (0, 1))[-1] == 1

    # a repeated member: every region holds the same box more than once
    REPEATED = [[box((0, 2)), box((1, 3))], [box((0, 2)), box((1, 3))],
                [box((Fraction(3, 2), 4))]]

    def test_box_nerve_gets_distinct_boxes(self, monkeypatch):
        # a box region's nerve and components read one overlap graph,
        # built once per distinct region on its distinct boxes in
        # first-occurrence order, whichever query comes first
        real, seen = multinerve.families._box_graph, []

        def spy(F, A):
            seen.append((A, real(F, A)))
            return seen[-1][1]
        monkeypatch.setattr(multinerve.families, "_box_graph", spy)
        F = box_family(1, self.REPEATED)
        asked = ((), (0,), (1,), (0, 1), (0, 1, 2))
        for k, A in enumerate(asked):
            for query in (region_betti, components)[::1 if k % 2 else -1]:
                query(F, A)
        regions = [multinerve.families._region(F, A) for A in asked]
        assert len(seen) == len(set(regions)) == 4
        for A, (boxes, first, nbrs) in seen:
            region = multinerve.families._region(F, A)
            assert boxes == list(dict.fromkeys(region))
            assert first == [region.index(b) for b in boxes]
            exact = [_grid_box(b, F.scale) for b in boxes]
            assert nbrs == [sum(1 << j for j, c in enumerate(exact)
                                if j != i and b.overlaps(c))
                            for i, b in enumerate(exact)]

    def test_repeated_member_against_oracle(self):
        F = box_family(1, self.REPEATED)
        for size in range(len(F) + 1):
            for A in itertools.combinations(range(len(F)), size):
                assert dict(region_betti(F, A).items()) == \
                    family_region_betti(F, A), A

    def test_component_count_agrees_with_betti(self):
        # union-find and homology count components independently
        rng = random.Random(9)
        import itertools
        for seed in range(8):
            for backend in ("box", "subcomplex"):
                F = random_family(backend, 3, seed, ambient_dim=1, grid=3)
                for size in range(0, 4):
                    for A in itertools.combinations(range(3), size):
                        k = len(components(F, A))
                        b = region_betti(F, A)
                        if k == 0:
                            assert b[-1] == 1
                        else:
                            assert b[0] == k - 1

    def test_backends_agree_on_grid_encoded_boxes(self):
        # intervals with even endpoints, no tangencies: the open-box picture
        # and the closed grid-path picture are homotopy equivalent
        import itertools
        rng = random.Random(13)
        from multinerve import SimplicialComplex
        T = SimplicialComplex([(i, i + 1) for i in range(10)])
        pool = [(a, a + w) for a in (0, 2, 4, 6, 8) for w in (2, 4) if a + w <= 10]
        triples = [t for t in itertools.combinations(pool, 3)
                   if len({e for iv in t for e in iv}) == 6]
        for _ in range(20):
            intervals = rng.choice(triples)
            boxes = box_family(1, [[box(iv)] for iv in intervals])
            members = []
            for a, b in intervals:
                sims = [(i,) for i in range(a, b + 1)]
                sims += [(i, i + 1) for i in range(a, b)]
                members.append(sims)
            subs = subcomplex_family(T, members)
            import itertools
            for size in range(0, 4):
                for A in itertools.combinations(range(3), size):
                    assert region_betti(boxes, A) == region_betti(subs, A), \
                        (intervals, A)


def star(T, v) -> set[frozenset]:
    """The simplices of the closed star of v, decoded from its ids."""
    return {T.ordered_simplices()[i] for i in closed_star(T, v)}


def _holed_members(T, rng, n):
    """T itself, then n unions of closed stars, each less some of its top
    simplices (still face-closed, as those are maximal): spheres, balls,
    and regions with holes in every dimension up to dim T."""
    members = [set(T.simplices) - {frozenset()}]
    for _ in range(n):
        sims = set()
        for v in rng.sample(T.vertices, rng.randrange(1, 4)):
            sims |= star(T, v)
        tops = sorted((s for s in sims if len(s) == T.dim + 1), key=sorted)
        sims -= set(rng.sample(tops, rng.randrange(len(tops) + 1)))
        members.append(sims)
    return [[tuple(s) for s in m] for m in members]


# the boundary of the octahedron, a 2-sphere; the cone over it, a 3-ball;
# the boundary of the 4-simplex, a 3-sphere
OCTAHEDRON = SimplicialComplex([(a, b, c) for a in (0, 1) for b in (2, 3)
                                for c in (4, 5)])
OCTAHEDRON_CONE = SimplicialComplex([(*s, 6) for s in OCTAHEDRON.simplices
                                     if len(s) == 3])
SPHERE_3 = SimplicialComplex(itertools.combinations(range(5), 4))


class TestCountedBetti:
    """Subcomplex Betti vectors are counted per dimension, against the
    dense oracle: on ambients whose top rows are dependent (closed
    manifolds, where the top rank falls back to elimination), and on
    3-dimensional ambients, where d_2 is eliminated."""

    @pytest.mark.parametrize("T, top_free, holes", [
        (OCTAHEDRON, False, {1, 2}), (OCTAHEDRON_CONE, True, {2}),
        (SPHERE_3, False, {2, 3})])
    def test_parity_with_dense_oracle(self, T, top_free, holes):
        seen = set()
        for seed in range(6):
            rng = random.Random(seed)
            F = subcomplex_family(T, _holed_members(T, rng, 3))
            for size in range(len(F) + 1):
                for A in itertools.combinations(range(len(F)), size):
                    want = family_region_betti(F, A)
                    assert region_betti(F, A).items() == \
                        tuple(sorted(want.items())), (seed, A)
                    seen.update(d for d, b in want.items() if b)
            assert multinerve.families._ambient(F).top_free is top_free
            for s in range(4):
                ok, viol = is_acyclic_with_slack(F, s)
                want = family_slack_violation(F, s)
                assert ok == (want is None)
                assert want is None or (viol.subset, viol.dim) == want
        # the holes reach the dimensions whose ranks are eliminated
        assert seen == holes


class TestAmbientIndex:
    """Subcomplex regions are ranked on the rows of T's simplices, numbered
    and checked for d o d = 0 once per family; only Betti vectors build
    that index, as components come from vertex labels."""

    @staticmethod
    def _spy(monkeypatch, name):
        real, calls = getattr(multinerve.families, name), []

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(multinerve.families, name, spy)
        return calls

    def test_checked_once_per_verify_and_no_region_complex(self, monkeypatch):
        # a subcomplex family checks d o d once, on T, a box family once
        # per distinct ranked region's nerve, and the multinerve once;
        # neither family builds a region complex
        from multinerve.homology import Boundary
        from multinerve.poset import SimplicialComplex as Complex
        checks, complexes = [], []
        for cls, calls in ((Boundary, checks), (Complex, complexes)):
            def spy(self, *args, real=cls.__init__, calls=calls, **kwargs):
                calls.append(args)
                real(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", spy)
        for backend in ("subcomplex", "box"):
            F = random_family(backend, 5, 2)
            del checks[:], complexes[:]
            verify_multinerve_theorem(F, 0)
            # the slack scan ranks every intersecting subfamily, the report
            # the union; equal regions are ranked once
            asked = [(), *(tuple(sorted(G)) for G in family_nerve(F))]
            ranked = {tuple(family_region(F, A)) for A in asked}
            assert len(ranked) > len(F)  # many regions were ranked
            regions = 1 if backend == "subcomplex" else len(ranked)
            assert len(checks) == regions + 1
            assert complexes == []

    def test_no_region_rows_eliminated_on_a_top_free_2_complex(
            self, monkeypatch):
        # on the grid, a disk, the top rows are independent: one rank, of
        # T's top rows, and every region's cells are only counted
        F = random_family("subcomplex", 6, 3, grid=4, stars_per_member=2)
        ranked = self._spy(monkeypatch, "sparse_rank")
        verify_multinerve_theorem(F, 0)
        assert multinerve.families._ambient(F).top_free
        assert [len(rows) for rows, in ranked] == [2 * 4 * 4]
        assert len(F._betti_cache) > len(F)

    def test_emptiness_and_helly_do_not_build_it(self, monkeypatch):
        T = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        F = subcomplex_family(T, [[(0,), (1,), (0, 1)], [(1,), (2,), (1, 2)],
                                  [(0,), (2,), (0, 2)]])
        builds = self._spy(monkeypatch, "_AmbientIndex")
        assert helly_number(F).h == 3
        assert region_is_empty(F, (0, 1, 2))
        assert not region_is_empty(F, (0, 1))
        components(F, (0, 1))
        component_containing(F, (0,), (1,))
        build_multinerve(F)
        for t in (1, 2, 3):
            reduced_multinerve(F, t)
            verify_projection_bound(F, t)
        assert builds == []
        region_betti(F, (0,))
        region_betti(F, ())
        assert len(builds) == 1


class TestSlack:
    def test_convex_families_are_acyclic(self):
        F = box_family(2, [[box((0, 2), (0, 2))], [box((1, 3), (1, 3))]])
        ok, viol = is_acyclic_with_slack(F, 0)
        assert ok and viol is None

    def test_circle_member_needs_slack_3(self):
        F = circle_member_family()
        assert is_acyclic_with_slack(F, 3)[0]
        ok, viol = is_acyclic_with_slack(F, 2)
        assert not ok
        assert viol.subset == (0,) and viol.dim == 1

    def test_two_arc_family_is_acyclic(self):
        assert is_acyclic_with_slack(two_arc_circle_family(), 0)[0]

    def test_slack_zero_equals_slack_one(self):
        for seed in range(10):
            F = random_family("box", 3, seed, ambient_dim=1)
            assert is_acyclic_with_slack(F, 0)[0] == is_acyclic_with_slack(F, 1)[0]

    def test_first_violation_is_lexicographic(self):
        # two circle-shaped members: the violation must name member 0
        T = grid_triangulation(3)
        from multinerve.verify import ring_member
        F = subcomplex_family(T, [ring_member(3, 0, 0), ring_member(3, 1, 1)])
        ok, viol = is_acyclic_with_slack(F, 0)
        assert not ok and viol.subset == (0,) and viol.dim == 1


class TestMaxComponents:
    def test_convex_family(self):
        F = box_family(1, [[box((0, 2))], [box((1, 3))]])
        rep = max_components(F, 1)
        assert rep.value == 1

    def test_two_arc_instance(self):
        rep = max_components(two_arc_circle_family(), 1)
        assert rep.value == 2
        assert rep.per_size == {1: 1, 2: 2}

    def test_interval_union_with_threshold(self):
        F = interval_union_double_edge_family()
        assert max_components(F, 2).value == 2
        assert max_components(F, 1).value == 2

    def test_empty_intersections_count_zero(self):
        F = box_family(1, [[box((0, 1))], [box((2, 3))]])
        assert max_components(F, 2).value == 0


class TestRandomFamily:
    def test_deterministic(self):
        a = random_family("box", 3, 0, ambient_dim=1)
        b = random_family("box", 3, 0, ambient_dim=1)
        from multinerve.formats import write_family
        assert write_family(a) == write_family(b)

    def test_singleton(self):
        F = random_family("box", 1, 5)
        assert len(F) == 1

    def test_subcomplex_members_are_valid(self):
        # validity is enforced by the constructor; just build a few
        for seed in range(6):
            F = random_family("subcomplex", 4, seed, grid=4)
            assert len(F) == 4
            assert F.gamma_dim == 3  # dim(T) + 1

    def test_box_gamma_dim_defaults_to_dimension(self):
        assert random_family("box", 2, 0, ambient_dim=2).gamma_dim == 2

    def test_closed_star_against_full_scan(self):
        # the grid is listed closed, and each closed star's ids are read
        # from the vertex table: the star and the faces that drop the vertex
        for g in range(1, 8):
            T = grid_triangulation(g)
            assert T == grid_triangulation_oracle(g)
            for v in T.vertices:
                assert star(T, v) == closed_star_oracle(T, v), (g, v)
            assert closed_star(T, -1) == set()

    def test_first_member_face_missing_in_T_order(self):
        # several faces are missing; the first simplex in T's order that
        # misses one is named, and a simplex outside T by input order
        T = SimplicialComplex([(0, 1, 2), (2, 3)])
        for member, named in (
                ([(0, 1, 2), (2, 3), (0,), (1,), (0, 1)], "[2, 3]"),
                ([(0, 1, 2), (1, 2), (0, 2), (0, 1), (0,), (2,), (3,),
                  (2, 3)], "[0, 1]")):
            with pytest.raises(FamilyError) as exc:
                subcomplex_family(T, [[(0,)], member])
            assert str(exc.value) == f"member 1: not face-closed at {named}"
        with pytest.raises(FamilyError, match=r"^member 0: simplex \[7\] not"):
            subcomplex_family(T, [[(0,), (7,), (5, 6)]])


ORACLE_FAMILIES = [(seed, backend) for seed in range(40)
                   for backend in ("box", "subcomplex")]


class TestAgainstOracle:
    """The cached, prefix-grown regions and the nerve walk against plain
    2^n scans that rebuild every region (tests/helpers.py)."""

    # box families of R^2 and R^3 around a common point, whose regions'
    # full nerves reach above dimension d, past the nerves that are ranked
    @pytest.mark.parametrize("seed,backend", ORACLE_FAMILIES + [
        (seed, f"box-r{d}") for d in (2, 3) for seed in range(3)])
    def test_regions(self, seed, backend):
        F = (around_a_point_family(int(backend[-1]), seed)
             if backend.startswith("box-r") else small_family(seed, backend))
        above = False
        for size in range(len(F) + 1):
            for A in itertools.combinations(range(len(F)), size):
                assert region_is_empty(F, A) == (not family_region(F, A)), A
                assert dict(region_betti(F, A).items()) == \
                    family_region_betti(F, A), A
                labels = [(c.canon, c.rep if F.backend == "subcomplex"
                           else c.rep.intervals) for c in components(F, A)]
                assert labels == family_components(F, A), A
                if backend.startswith("box-r") and family_region(F, A):
                    above |= max(map(len, box_nerve(family_region(F, A)))) \
                        > F.ambient + 1
        assert above or not backend.startswith("box-r")

    @pytest.mark.parametrize("seed,backend", ORACLE_FAMILIES)
    def test_scans(self, seed, backend):
        F = small_family(seed, backend)
        assert nerve(F).simplices == family_nerve(F) | {frozenset()}
        for s in range(4):
            ok, viol = is_acyclic_with_slack(F, s)
            want = family_slack_violation(F, s)
            assert ok == (want is None)
            assert want is None or (viol.subset, viol.dim) == want
        for t in range(1, len(F) + 2):
            rep = max_components(F, t)
            want = family_component_maxima(F, t)
            assert rep.per_size == want
            assert rep.value == max(want.values(), default=0)

    def test_string_vertex_labels(self):
        # components come from vertex labels, not from T's simplex ids: the
        # cone over an octagon a..h with apex z; each member a union of
        # closed stars in the cone or in the octagon, and maybe the apex
        ring = "abcdefgh"
        edges = list(zip(ring, ring[1:] + ring[0]))
        T = SimplicialComplex([(x, y, "z") for x, y in edges])
        spaces = (T, SimplicialComplex(edges))
        counts = set()
        for seed in range(6):
            rng = random.Random(seed)
            F = subcomplex_family(T, [
                [tuple(s) for v in rng.sample(ring, rng.randrange(1, 4))
                 for s in star(rng.choice(spaces), v)]
                + [("z",)] * rng.randrange(2) for _ in range(4)])
            for size in range(len(F) + 1):
                for A in itertools.combinations(range(len(F)), size):
                    found = family_components(F, A, with_elements=True)
                    assert [(c.canon, c.rep) for c in components(F, A)] == \
                        [(canon, rep) for canon, rep, _ in found], A
                    for canon, _, elems in found:
                        for s in elems:
                            assert component_containing(F, A, s).canon == canon
                    counts.add(len(found))
            assert _cells(build_multinerve(F)) == \
                family_reduced_multinerve(F, None), seed
        assert max(counts) >= 3

    def test_families_cover_empty_members(self):
        shapes = {(backend, sum(not family_region(F, (i,)) for i in F.indices))
                  for seed, backend in ORACLE_FAMILIES
                  for F in [small_family(seed, backend)]}
        for backend in ("box", "subcomplex"):
            counts = {k for b, k in shapes if b == backend}
            assert 0 in counts and 1 in counts
            assert any(k >= 2 for k in counts)


def _cache_snapshot(F, order):
    """Query F's oracle in the given order; return every answer by subset."""
    out = {}
    for kind, A in order:
        if kind == "empty":
            out[kind, A] = region_is_empty(F, A)
        elif kind == "betti":
            out[kind, A] = region_betti(F, A)
        elif kind == "components":
            out[kind, A] = components(F, A)
        else:
            out[kind, A] = tuple(
                component_containing(F, A[:i] + A[i + 1:], c.rep)
                for c in components(F, A) for i in range(len(A)))
    return out


QUERIES = [(kind, A) for kind in ("empty", "betti", "components", "containing")
           for size in range(5) for A in itertools.combinations(range(4), size)]


class TestCacheOrder:
    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_answers_do_not_depend_on_query_order(self, backend):
        # the full set before its prefixes, components before emptiness
        reverse = sorted(QUERIES, key=lambda q: (-len(q[1]), q[0]))
        for seed in range(6):
            shuffled = list(QUERIES)
            random.Random(seed).shuffle(shuffled)
            answers = [_cache_snapshot(random_family(backend, 4, seed,
                                                     ambient_dim=2, grid=3),
                                       order)
                       for order in (QUERIES, reverse, shuffled)]
            assert answers[1] == answers[0]
            assert answers[2] == answers[0]


def repeating_family(backend: str, seed: int):
    """Five members whose regions repeat: one member twice, a member nested
    in it, another, and a member that holds the whole union."""
    rng = random.Random(seed)
    if backend == "subcomplex":
        T = grid_triangulation(3)
        a, b, c = (star(T, v) for v in rng.sample(T.vertices, 3))
        members = [a | b, a | b, a, b | c, T.simplices]
        return subcomplex_family(T, [[tuple(s) for s in m] for m in members])
    F = random_family("box", 2, seed, ambient_dim=2, boxes_per_member=2)
    m0, m1 = (list(m.boxes) for m in F.members)
    return box_family(2, [m0, m0, m0[:1], m1, [box((-1, 10), (-1, 10))]])


def _cells(X) -> dict:
    """Each cell's tag, as (A, canon), mapped to its faces' tags."""
    def tag(t):
        return t.subset, None if t.component is None else t.component.canon
    return {tag(X.tags[c]): tuple(tag(X.tags[f]) for f in X.poset.faces_of(c))
            for c in X.poset.cells()}


REPEATING = [(seed, backend) for seed in range(8)
             for backend in ("box", "subcomplex")]
ALL_SUBSETS = [A for size in range(6)
               for A in itertools.combinations(range(5), size)]


class TestRegionMemo:
    """Regions are numbered and answered once per distinct region, labels
    included, and the nerve walk once per family."""

    @pytest.mark.parametrize("seed,backend", REPEATING)
    def test_parity_where_regions_repeat(self, seed, backend):
        # a whole scan first (walk order), then every query in reverse, so
        # each answer may come from a region first met under another A
        F = repeating_family(backend, seed)
        assert _cells(build_multinerve(F)) == family_reduced_multinerve(F, None)
        for t in (2, 3):
            assert _cells(reduced_multinerve(F, t)[0]) == \
                family_reduced_multinerve(F, t)
        for s in range(4):
            ok, viol = is_acyclic_with_slack(F, s)
            want = family_slack_violation(F, s)
            assert (viol.subset, viol.dim) == want if want else ok
        by_region = {}
        for A in reversed(ALL_SUBSETS):
            assert dict(region_betti(F, A).items()) == \
                family_region_betti(F, A), A
            labels = components(F, A)
            assert [(c.canon, c.rep if backend == "subcomplex"
                     else c.rep.intervals) for c in labels] == \
                family_components(F, A), A
            for c in labels:
                assert component_containing(F, A, c.rep) is c
            # index sets with equal regions share one label tuple
            assert by_region.setdefault(tuple(family_region(F, A)),
                                        labels) is labels, A
        assert len(by_region) < len(ALL_SUBSETS)
        if family_region(F, tuple(F.indices)):
            with pytest.raises(PreconditionError):
                helly_number(F)
        else:
            rep = helly_number(F)
            assert (rep.h, rep.witness) == family_helly(F)

    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_one_rank_and_one_union_find_per_distinct_region(
            self, monkeypatch, backend):
        # one labelling pass per distinct region gives its components, and
        # one _region_ranks call counts its Betti vector from those groups,
        # for both backends: the only reduced_betti is the multinerve's, in
        # the report, and the only other selections from a boundary are one
        # per box region's nerve
        from multinerve.homology import Boundary
        labelled = "_subcomplex_groups" if backend == "subcomplex" \
            else "_box_groups"
        spied = [(multinerve.families, labelled),
                 (multinerve.families, "_region_ranks"),
                 (multinerve.verify, "reduced_betti")]
        calls = {name: [] for _, name in spied}
        for module, name in spied:
            def spy(*args, real=getattr(module, name), got=calls[name]):
                got.append(args)
                return real(*args)
            monkeypatch.setattr(module, name, spy)
        selected, real_select = [], Boundary.select

        def select(boundary, cells):
            selected.append(boundary)
            return real_select(boundary, cells)
        monkeypatch.setattr(Boundary, "select", select)
        assert not hasattr(multinerve.families, "reduced_betti")
        for seed in range(4):
            F = repeating_family(backend, seed)
            for got in calls.values():
                del got[:]
            del selected[:]
            verify_multinerve_theorem(F, 3)
            max_components(F)
            asked = [(), *(tuple(sorted(G)) for G in family_nerve(F))]
            for A in asked:
                region_betti(F, A)
                components(F, A)
            distinct = {tuple(family_region(F, A)) for A in asked}
            assert len(calls[labelled]) == len(distinct) < len(asked)
            assert len(calls["_region_ranks"]) == len(distinct)
            assert len(calls["reduced_betti"]) == 1
            assert len(selected) == 1 + (len(distinct) if backend == "box"
                                         else 0)
            if backend == "subcomplex":
                assert selected[0] is not F._ambient_index.boundary

    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_equal_regions_are_held_once(self, backend):
        # members 0 and 1 are equal: once numbered, both index sets hold
        # the one region object, and so do their extensions
        F = repeating_family(backend, 0)
        for A in [(0,), (1,), (0, 3), (1, 3)]:
            region_betti(F, A)
        assert F._region_cache[(0,)] is F._region_cache[(1,)]
        assert F._region_cache[(0, 3)] is F._region_cache[(1, 3)]

    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_one_nerve_walk_per_verify_call(self, monkeypatch, backend):
        # box regions walk their nerves on families of their own, which
        # are not counted: only the walks over F are
        real, walks = multinerve.families._walk_source, []

        def spy(family):
            walk = []
            walks.append((family, walk))
            for item in real(family):
                walk.append(item)
                yield item
        monkeypatch.setattr(multinerve.families, "_walk_source", spy)
        calls = (lambda F: verify_multinerve_theorem(F, 3),
                 lambda F: verify_helly_bound(F, 3),
                 lambda F: verify_projection_bound(F, 2, s=3))
        walked = 0
        for seed in range(3):
            F = random_family(backend, 5, seed)
            if family_region(F, tuple(F.indices)):
                continue  # the helly checks need an empty intersection
            faces = family_nerve(F) | {frozenset()}
            want = [(G, frozenset(G) in faces) for k in range(1, 6)
                    for G in itertools.combinations(range(5), k)
                    if all(frozenset(G) - {g} in faces for g in G)]
            for call in calls:
                F = random_family(backend, 5, seed)
                del walks[:]
                call(F)
                assert [walk for family, walk in walks
                        if family is F] == [want]
                walked += 1
        assert walked
    def test_slack_violation_builds_no_region_past_it(self):
        # ``mnv gen --backend subcomplex --n 12 --grid 7
        # --stars-per-member 3 --seed 58``: member 9 has a hole, so the
        # scan stops at (9,) having built the singletons up to it
        F = random_family("subcomplex", 12, 58, grid=7, stars_per_member=3)
        with pytest.raises(PreconditionError, match=r"subfamily \(9,\)"):
            verify_multinerve_theorem(F, 0)
        assert sorted(F._region_cache) == [(i,) for i in range(10)]

    def test_walk_broken_by_an_error_starts_over(self, monkeypatch):
        # the break lands on the fifth singleton's region
        real, calls = multinerve.families._extend, []

        def flaky(F, prev, j):
            calls.append(j)
            if len(calls) == 5:
                raise MemoryError
            return real(F, prev, j)
        monkeypatch.setattr(multinerve.families, "_extend", flaky)
        F = random_family("subcomplex", 5, 1)
        with pytest.raises(MemoryError):
            nerve(F)
        assert F._walk is None
        assert nerve(F).simplices == family_nerve(F) | {frozenset()}

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_walk_broken_while_extending_starts_over(self, monkeypatch, at):
        # the break lands on the first region extended from a nonempty set,
        # in level 2, or on the walk's last, in its top level
        real, grown, stop = multinerve.families._extend, [], [0]

        def flaky(F, prev, j):
            if prev is not None:
                grown.append(j)
                if len(grown) == stop[0]:
                    raise MemoryError
            return real(F, prev, j)
        monkeypatch.setattr(multinerve.families, "_extend", flaky)
        nerve(random_family("subcomplex", 5, 1))  # counts, never breaks
        stop[0] = 1 if at == "first" else len(grown)
        del grown[:]
        F = random_family("subcomplex", 5, 1)
        assert max(len(G) for G, _ in family_walk(F)) >= 3
        with pytest.raises(MemoryError):
            nerve(F)
        assert F._walk is None and len(grown) == stop[0]
        assert nerve(F).simplices == family_nerve(F) | {frozenset()}
        assert F._walk == family_walk(F)


def _walk_family(backend: str, n: int, seed: int):
    """n random members, then a few of them emptied and a few repeated."""
    rng = random.Random(seed)
    if backend == "box":
        F = random_family("box", n, seed, ambient_dim=1, boxes_per_member=1)
        members = [list(m.boxes) for m in F.members]
    else:
        F = random_family("subcomplex", n, seed, grid=3, stars_per_member=1)
        members = [[tuple(s) for s in m] for m in family_members(F)]
    for _ in range(rng.randrange(3)):
        members[rng.randrange(n)] = []
    for _ in range(rng.randrange(3)):
        members[rng.randrange(n)] = members[rng.randrange(n)]
    if backend == "box":
        return box_family(1, members)
    return subcomplex_family(F.ambient, members)


class TestMaskRegions:
    """Subcomplex members and regions are masks of T's simplex ids, and the
    walk extends index sets by masks of member indices."""

    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_walk_against_brute_force(self, backend):
        # the exact sequence, flags included, of every set whose proper
        # subsets all intersect, on 1 to 16 members
        for n in range(1, 17):
            F = _walk_family(backend, n, n)
            want = family_walk(F)
            assert list(multinerve.families._nerve_walk(F)) == want, n
            # the second read is the walk kept on F
            assert list(multinerve.families._nerve_walk(F)) == want, n

    def test_walk_covers_empty_and_repeated_members(self):
        for backend in ("box", "subcomplex"):
            shapes = [_walk_family(backend, n, n) for n in range(1, 17)]
            assert any(not family_region(F, (i,)) for F in shapes
                       for i in F.indices)
            assert any(len(set(map(repr, F.members))) < len(F)
                       for F in shapes)
            assert max(len(G) for F in shapes
                       for G, hit in family_walk(F) if hit) >= 4

    @pytest.mark.parametrize("seed", range(6))
    def test_parity_on_union_rings_and_empty_members(self, seed):
        # the members are built here as simplex sets, and the oracle reads
        # them back from the family.v1 text, not from the masks
        rng = random.Random(seed)
        T = grid_triangulation(3)
        built = [ring_member(3, rng.randrange(3), rng.randrange(3)), set(),
                 star(T, rng.choice(T.vertices)) | star(T, rng.choice(T.vertices)),
                 ring_member(3, rng.randrange(3), rng.randrange(3)), set()]
        if seed % 2:
            built[-1] = set(T.simplices) - {frozenset()}
        rng.shuffle(built)
        F = subcomplex_family(T, [[tuple(s) for s in m] for m in built])
        assert family_members(F) == built
        assert [m.simplices for m in F.members] == built
        for size in range(len(F) + 1):
            for A in itertools.combinations(range(len(F)), size):
                assert dict(region_betti(F, A).items()) == \
                    family_region_betti(F, A), A
                assert [(c.canon, c.rep) for c in components(F, A)] == \
                    family_components(F, A), A
        # the union has holes, the rings', unless T itself is a member
        assert bool(region_betti(F, ()).items()) is not bool(seed % 2)


class TestCarriedRegions:
    """The walk hands each set's region down from its parent's, and a
    subcomplex region is labelled in one union-find pass; both match their
    definitions."""

    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_walked_regions_match_prefix_regions(self, backend):
        # every region the walk keeps is the one _region builds from the
        # prefixes on a fresh copy, as a tuple (a box label's canon is its
        # index there), and decodes to the region from its definition
        def fresh(n):
            if n:
                return _walk_family(backend, n, n)
            if backend == "box":
                return box_family(1, [])
            return subcomplex_family(grid_triangulation(2), [])
        for n in range(17):
            F, G = fresh(n), fresh(n)
            walked = [A for A, _ in multinerve.families._nerve_walk(F)]
            assert len(walked) >= n
            for A in walked:
                got = F._region_cache[A]
                want = multinerve.families._region(G, A)
                assert type(got) is type(want) and got == want, (n, A)
                if backend == "box":
                    decoded = [_grid_box(b, F.scale).intervals for b in got]
                else:
                    decoded = sorted(
                        SubcomplexMember(got, F.ambient).simplices,
                        key=lambda s: (len(s), sorted(s)))
                assert decoded == family_region(F, A), (n, A)

    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_long_index_sets_need_no_deep_stack(self, backend):
        # a region is extended from its longest cached prefix in a loop, so
        # 1500 indices take no stack frame per index, and every prefix is
        # cached on the way
        n = 1500
        if backend == "box":
            F = box_family(1, [[box((0, 2))]] * (n - 1) + [[]])
        else:
            T = SimplicialComplex([(0,)])
            F = subcomplex_family(T, [[(0,)]] * (n - 1) + [[]])
        assert region_is_empty(F, range(n))
        assert not region_is_empty(F, range(n - 1))
        assert all(tuple(range(k)) in F._region_cache
                   for k in range(1, n + 1))

    def test_labels_match_a_plain_union_find(self):
        for seed in range(30):
            F = random_family("subcomplex", 12, seed, grid=7,
                              stars_per_member=3)
            walked = [A for A, hit in multinerve.families._nerve_walk(F)
                      if hit]
            regions = {multinerve.families._region(F, A): A
                       for A in [(), *walked]}
            for A in regions.values():
                labels, owner = multinerve.families._subcomplex_groups(F, A)
                want, want_owner = union_find_labels(family_region(F, A))
                assert [(c.canon, c.rep) for c in labels] == want, (seed, A)
                assert {v: owner(v) for v in want_owner} == want_owner
