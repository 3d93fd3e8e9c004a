"""Nerve, multinerve, reduced multinerve, projections, and map validation."""

import importlib
import random

import pytest
from helpers import (family_reduced_multinerve, fiber_sizes, monotone_witness,
                     poset_isomorphic, random_poset, segment_bijection,
                     small_family, twin_poset)

from multinerve import (CellTag, PosetError, SimplicialComplex, box,
                        box_family, canonical_projection, components,
                        j_index, multinerve, nerve, random_family,
                        reduced_betti, reduced_multinerve, validate_map)
from multinerve.fixtures import (blown_tetrahedron_family,
                                 box_circle_cover_family, corridor_box_family,
                                 double_edge_poset,
                                 interval_union_double_edge_family,
                                 two_arc_circle_family)

# the package exports the function multinerve.nerve, so fetch the module
nerve_module = importlib.import_module("multinerve.nerve")


class TestNerve:
    def test_single_connected_member(self):
        F = box_family(1, [[box((0, 1))]])
        N = nerve(F)
        assert len(N.vertices) == 1 and N.dim == 0

    def test_corridor_nerve_is_hollow_triangle(self):
        N = nerve(corridor_box_family())
        facets = [s for s in N.simplices
                  if not any(s < t for t in N.simplices)]
        assert sorted(tuple(sorted(s)) for s in facets) == \
            [(0, 1), (0, 2), (1, 2)]
        assert reduced_betti(N)[1] == 1

    def test_two_arc_nerve_is_contractible(self):
        N = nerve(two_arc_circle_family())
        assert frozenset({0, 1}) in N.simplices
        assert reduced_betti(N).is_trivial

    def test_empty_member_not_a_vertex(self):
        F = box_family(1, [[box((0, 1))], []])
        N = nerve(F)
        assert len(N.vertices) == 1


class TestMultinerve:
    def test_two_arc_instance_is_double_edge(self):
        M = multinerve(two_arc_circle_family())
        assert poset_isomorphic(M.poset, double_edge_poset())
        assert reduced_betti(M.poset)[1] == 1

    def test_single_connected_member(self):
        M = multinerve(box_family(1, [[box((0, 1))]]))
        assert M.poset.n_cells == 2  # least plus one vertex

    def test_box_circle_cover_is_double_edge(self):
        M = multinerve(box_circle_cover_family())
        assert poset_isomorphic(M.poset, double_edge_poset())

    def test_interval_union_instance_doubles_the_top_edge(self):
        # member 0 is disconnected, so the poset is a path of two edges;
        # the doubling shows up as a 2-to-1 fiber over the nerve edge
        F = interval_union_double_edge_family()
        M = multinerve(F)
        assert len(M.poset.cells_of_dim(0)) == 3
        assert len(M.poset.cells_of_dim(1)) == 2
        assert reduced_betti(M.poset).is_trivial
        pi = canonical_projection(M)
        assert pi.max_fiber == 2

    def test_disconnected_union_keeps_single_least(self):
        F = box_family(1, [[box((0, 1))], [box((2, 3))]])
        M = multinerve(F)
        assert M.poset.n_cells == 3
        assert reduced_betti(M.poset)[0] == 1

    def test_all_empty_family(self):
        F = box_family(1, [[], []])
        M = multinerve(F)
        assert M.poset.n_cells == 1
        assert reduced_betti(M.poset)[-1] == 1

    def test_fiber_sizes_match_component_counts(self):
        for F in (two_arc_circle_family(), corridor_box_family(),
                  blown_tetrahedron_family()):
            M = multinerve(F)
            by_subset = {}
            for tag in M.tags:
                if tag.subset:
                    by_subset[tag.subset] = by_subset.get(tag.subset, 0) + 1
            for A, count in by_subset.items():
                assert count == len(components(F, A))

    def test_multinerve_of_convex_family_is_nerve(self):
        for seed in range(8):
            F = random_family("box", 4, seed, ambient_dim=2, boxes_per_member=1)
            M = multinerve(F)
            pi = canonical_projection(M)
            assert pi.max_fiber == 1
            assert pi.bijective_on_dims_at_least(-1)

    def test_lower_segments_have_power_of_two_sizes(self):
        M = multinerve(two_arc_circle_family())
        for c in M.poset.cells():
            assert sum(M.poset.leq(t, c) for t in M.poset.cells()) == \
                2 ** (len(M.tags[c].subset))


class TestCanonicalProjection:
    def test_two_arc_projection_is_two_to_one_on_top(self):
        M = multinerve(two_arc_circle_family())
        pi = canonical_projection(M)
        assert pi.monotone and pi.dimension_preserving
        assert pi.max_fiber == 2
        assert segment_bijection(pi) == (True, None)

    def test_fibers_cover_the_nerve(self):
        M = multinerve(corridor_box_family())
        pi = canonical_projection(M)
        sizes = fiber_sizes(pi)
        assert set(sizes) == set(pi.target.cells())
        assert all(v >= 1 for v in sizes.values())


class TestReducedMultinerve:
    def test_t1_is_identity(self):
        F = two_arc_circle_family()
        M = multinerve(F)
        R, f = reduced_multinerve(F, 1)
        assert poset_isomorphic(M.poset, R.poset)
        assert f.max_fiber == 1
        assert f.bijective_on_dims_at_least(-1)

    def test_t_above_family_size_gives_nerve(self):
        F = two_arc_circle_family()
        R, f = reduced_multinerve(F, 3)
        assert poset_isomorphic(R.poset, nerve(F).as_poset())
        assert f.monotone and f.dimension_preserving

    def test_two_arc_t2_still_double_edge(self):
        F = two_arc_circle_family()
        R, f = reduced_multinerve(F, 2)
        assert poset_isomorphic(R.poset, double_edge_poset())
        assert f.bijective_on_dims_at_least(1)

    def test_quotient_flags_and_j_bound(self):
        for seed in range(6):
            for backend in ("box", "subcomplex"):
                F = random_family(backend, 3, seed, ambient_dim=1, grid=3)
                M = multinerve(F)
                jm = j_index(M.poset).value
                for t in (1, 2, 3):
                    R, f = reduced_multinerve(F, t)
                    assert f.monotone and f.dimension_preserving
                    assert f.bijective_on_dims_at_least(t - 1)
                    assert j_index(R.poset).value <= max(jm, t)

    def test_projection_of_reduced_is_at_most_component_bound(self):
        F = two_arc_circle_family()
        R, _ = reduced_multinerve(F, 2)
        pi = canonical_projection(R)
        assert pi.max_fiber == 2


def _tag(tag):
    return tag.subset, None if tag.component is None else tag.component.canon


def _cells(X) -> dict:
    """Each cell's tag mapped to its faces' tags."""
    P = X.poset
    cells = {_tag(X.tags[c]): tuple(_tag(X.tags[f]) for f in P.faces_of(c))
             for c in P.cells()}
    assert len(cells) == P.n_cells
    return cells


class TestTower:
    """M, R_t and the nerve's face poset, built as quotients of M's tags,
    against the nerve complex and an oracle from the family alone."""

    @pytest.mark.parametrize("seed,backend",
                             [(seed, backend) for seed in range(40)
                              for backend in ("box", "subcomplex")])
    def test_against_oracle(self, seed, backend):
        F = small_family(seed, backend)
        N = nerve(F).as_poset().export_records()
        for t in (None, *range(1, len(F) + 2)):
            X = multinerve(F) if t is None else reduced_multinerve(F, t)[0]
            assert _cells(X) == family_reduced_multinerve(F, t), t
            assert canonical_projection(X).target.export_records() == N, t

    @pytest.mark.parametrize("backend,n,seeds,options", [
        ("box", 5, range(6), {}),
        ("subcomplex", 5, range(6), {}),
        ("box", 10, range(1, 4), {"ambient_dim": 2, "boxes_per_member": 2}),
        ("subcomplex", 12, range(1, 4), {"grid": 7, "stars_per_member": 3})])
    def test_cells_numbered_in_sort_order(self, backend, n, seeds, options):
        # ``mnv gen`` families, up to the benchmark's ``oracle`` size: M is
        # numbered in tag order as it is built, with faces from the oracle
        for seed in seeds:
            F = random_family(backend, n, seed, **options)
            M = multinerve(F)
            assert list(M.tags) == sorted(M.tags, key=CellTag.sort_key)
            assert _cells(M) == family_reduced_multinerve(F, None), seed

    def test_reduced_multinerve_walks_the_family_once(self, monkeypatch):
        real, calls = nerve_module._nerve_walk, []

        def walk(F):
            calls.append(F)
            return real(F)
        monkeypatch.setattr(nerve_module, "_nerve_walk", walk)
        F = two_arc_circle_family()
        for t in (1, 2, 3):
            canonical_projection(reduced_multinerve(F, t)[0])
        assert calls == [F] * 3


class TestValidateMap:
    def test_identity(self):
        P = double_edge_poset()
        m = validate_map(tuple(P.cells()), P, P)
        assert m.monotone and m.dimension_preserving
        assert m.max_fiber == 1 and segment_bijection(m) == (True, None)

    def test_collapse_double_edge(self):
        P = double_edge_poset()
        Q = SimplicialComplex([(0, 1)]).as_poset()
        edge_q = Q.cells_of_dim(1)[0]
        a_q, b_q = Q.cells_of_dim(0)
        a, b = P.cells_of_dim(0)
        e1, e2 = P.cells_of_dim(1)
        mapping = {P.least: Q.least, a: a_q, b: b_q, e1: edge_q, e2: edge_q}
        m = validate_map(mapping, P, Q)
        assert m.monotone and m.dimension_preserving
        assert m.max_fiber == 2 and segment_bijection(m) == (True, None)

    def test_edge_to_vertex_is_not_dimension_preserving(self):
        P = SimplicialComplex([(0, 1)]).as_poset()
        Q = SimplicialComplex([(0,)]).as_poset()
        v = Q.cells_of_dim(0)[0]
        mapping = [Q.least if P.dim_of(c) == -1 else v for c in P.cells()]
        m = validate_map(mapping, P, Q)
        assert not m.dimension_preserving
        assert m.witnesses["dimension_preserving"] == P.cells_of_dim(1)[0]
        assert segment_bijection(m) == (None, None)

    def test_non_monotone_map_flagged(self):
        P = SimplicialComplex([(0,), (1,)]).as_poset()
        Q = SimplicialComplex([(0,), (1,)]).as_poset()
        u, v = P.cells_of_dim(0)
        x, y = Q.cells_of_dim(0)
        mapping = {P.least: x, u: x, v: y}  # least maps above a vertex
        m = validate_map(mapping, P, Q)
        assert not m.monotone
        assert not m.dimension_preserving

    def test_monotone_flag_matches_lower_set_oracle(self):
        # the maps the program builds, and identities of posets with twins,
        # each also with one cell sent elsewhere (to a cell of its own
        # dimension, so twins are often swapped): flag and witness against
        # the order read from lower sets
        rng = random.Random(21)
        maps = []
        for seed in range(6):
            for backend in ("box", "subcomplex"):
                F = small_family(seed, backend)
                for t in (1, 2, 3):
                    R, f = reduced_multinerve(F, t)
                    maps += [f, canonical_projection(R)]
        for _ in range(30):
            P = rng.choice((random_poset, twin_poset))(rng, n_vertices=4)
            maps.append(validate_map(tuple(P.cells()), P, P))
        flags = set()
        for pi in maps:
            mapping, Y = list(pi.mapping), pi.target
            for _ in range(2):
                m = validate_map(mapping, pi.source, Y)
                want = monotone_witness(m)
                assert m.monotone == (want is None)
                assert m.witnesses.get("monotone") == want
                flags.add(m.monotone)
                c = rng.choice(pi.source.cells())
                mapping[c] = rng.choice(Y.cells_of_dim(Y.dim_of(mapping[c])))
        assert flags == {True, False}

    def test_total_required(self):
        P = double_edge_poset()
        with pytest.raises(ValueError, match="every source cell"):
            validate_map((0, 0), P, P)

    def test_unknown_target_id_rejected(self):
        P = double_edge_poset()
        for bad in (P.n_cells, -1, "0"):
            mapping = list(P.cells())
            mapping[3] = bad
            with pytest.raises(PosetError, match="unknown cell id"):
                validate_map(mapping, P, P)
