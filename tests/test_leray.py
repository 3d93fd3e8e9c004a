"""Leray number and J index: exact values, witnesses, caps, sampling."""

import random
from itertools import combinations

import pytest

from helpers import (_lower_sets, cone_poset, cover_counts, dominated_by,
                     first_hit_witness, induced, j_oracle, leray_oracle,
                     poset_betti_gj, poset_leray_oracle, pruned_walk_oracle,
                     random_complex, random_poset, relabel, twin_poset,
                     upper_complexes, upper_interval_betti, vertex_sets,
                     with_isolated_vertices)

from multinerve import (CapExceeded, SimplicialComplex, box, box_family,
                        build_poset, chain_complex, j_index, leray_number,
                        multinerve, random_family, reduced_betti,
                        reduced_multinerve, region_betti, subcomplex_family)
from multinerve.fixtures import double_edge_poset
from multinerve.leray import LerayReport, Witness
from multinerve.poset import order_complex


class TestLerayNumber:
    def test_full_simplices_are_leray_zero(self):
        for n in range(4):
            K = SimplicialComplex([tuple(range(n + 1))])
            assert leray_number(K).value == 0
            assert leray_number(K).witness is None

    def test_boundary_of_triangle(self):
        rep = leray_number(SimplicialComplex([(0, 1), (1, 2), (0, 2)]))
        assert rep.value == 2
        assert rep.witness.S == (0, 1, 2) and rep.witness.j == 1

    def test_two_isolated_vertices(self):
        rep = leray_number(SimplicialComplex([(0,), (1,)]))
        assert rep.value == 1

    def test_double_edge(self):
        assert leray_number(double_edge_poset()).value == 2

    def test_empty_poset(self):
        assert leray_number(build_poset([])).value == 0

    def test_matches_definition_oracle(self):
        rng = random.Random(2)
        for _ in range(15):
            facets = [rng.sample(range(5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(6))]
            K = SimplicialComplex(facets)
            assert leray_number(K).value == leray_oracle(K)

    def test_witness_reproduces_value(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,), (4,)])
        rep = leray_number(K)
        sub = induced(K, rep.witness.S)
        assert dict(reduced_betti(sub).items()).get(rep.value - 1)

    def test_witness_is_lexicographically_smallest(self):
        # two disjoint hollow triangles: the witness must be the first one
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2),
                               (3, 4), (4, 5), (3, 5)])
        rep = leray_number(K)
        assert rep.value == 2
        assert rep.witness.S == (0, 1, 2)

    def test_cap_refusal_names_cap(self):
        K = SimplicialComplex([(i,) for i in range(6)])
        for index in (leray_number, j_index):
            with pytest.raises(CapExceeded, match=r"cap 4 \(at most 64 subsets\)"):
                index(K, cap=4)
        # past 64 vertices the count is written as a power
        K = SimplicialComplex([(i,) for i in range(70)])
        with pytest.raises(CapExceeded, match=r"cap 16 \(at most 2\^70 subsets\)"):
            j_index(K)


class TestJIndex:
    def test_full_simplex(self):
        assert j_index(SimplicialComplex([(0, 1, 2)])).value == 0

    def test_boundary_of_triangle_equals_leray(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
        assert j_index(K).value == leray_number(K).value == 2

    def test_double_edge(self):
        P = double_edge_poset()
        rep = j_index(P)
        assert rep.value == 2
        # witness: the subdivision of the whole poset is a 4-cycle
        assert rep.witness.j == 1

    def test_double_edge_upper_interval_shapes(self):
        P = double_edge_poset()
        _, sd = upper_complexes(P, P.least)
        assert reduced_betti(sd)[1] == 1
        a = P.cells_of_dim(0)[0]
        _, two_points = upper_complexes(P, a)
        assert reduced_betti(two_points)[0] == 1

    def test_witness_reproduces_value(self):
        P = double_edge_poset()
        rep = j_index(P)
        sub, old_ids = P.induced_with_map(rep.witness.S)
        local = {o: nw for nw, o in enumerate(old_ids)}
        sigma = local[rep.witness.sigma]
        up = [t for t in sub.cells() if t != sigma and sub.leq(sigma, t)]
        ddot = order_complex(up, sub.leq)
        assert reduced_betti(ddot)[rep.value - 1] != 0

    def test_witness_under_vertex_reorder(self):
        # the vertices renumbered in reverse: the same value, and the
        # witness is the first hit in the new numbering
        P = random_poset(random.Random(0), n_vertices=5, n_facets=4)
        Q = relabel(P, list(reversed(P.vertex_order)))
        rep = j_index(Q)
        assert rep.value == j_index(P).value == 2
        assert rep.witness == Witness(*first_hit_witness(Q, 2, links=True))
        assert rep.witness == Witness((2, 4), 1, 0)

    def test_witness_after_links_answered_at_other_floors(self):
        # a 10-vertex multinerve: J's witness is L's, at the least cell
        P = multinerve(random_family("box", 5, 795214, ambient_dim=2)).poset
        rep = j_index(P)
        assert rep.value == 2
        assert rep.witness == Witness((2, 3, 4, 8), 1, 0)
        w = rep.witness
        assert upper_interval_betti(P, w.S, w.sigma).get(1)

    def test_cap_refusal(self):
        K = SimplicialComplex([(i,) for i in range(20)])
        with pytest.raises(CapExceeded):
            j_index(K)


class TestJOracle:
    """J from L's walk against J from order complexes of chains,
    enumerated by the oracle."""

    @staticmethod
    def check(P):
        rep = j_index(P)
        assert rep.value == j_oracle(P)
        if rep.witness is not None:
            w = rep.witness
            assert upper_interval_betti(P, w.S, w.sigma).get(rep.value - 1)

    def test_random_posets_with_duplicated_cells(self):
        rng = random.Random(11)
        duplicated = 0
        for _ in range(15):
            P = random_poset(rng, n_vertices=5, n_facets=5, max_facet=4)
            duplicated += P.n_cells > len({P.vertices_of(c) for c in P.cells()})
            self.check(P)
        assert duplicated

    @pytest.mark.parametrize("backend,kw", [("box", {"ambient_dim": 1}),
                                            ("box", {"ambient_dim": 2}),
                                            ("subcomplex", {"grid": 3})])
    def test_multinerves_and_reduced_multinerves(self, backend, kw):
        for n in (3, 4):
            for seed in range(3):
                F = random_family(backend, n, seed, **kw)
                self.check(multinerve(F).poset)
                self.check(reduced_multinerve(F, 2)[0].poset)

    def test_cones(self):
        rng = random.Random(12)
        for _ in range(8):
            P = random_poset(rng, n_vertices=4, n_facets=4, max_facet=3)
            self.check(cone_poset(P))

    def test_isolated_vertices(self):
        rng = random.Random(13)
        for k in (1, 2, 3):
            for _ in range(4):
                P = random_poset(rng, n_vertices=4, n_facets=4, max_facet=3)
                self.check(with_isolated_vertices(P, k))

    @pytest.mark.parametrize("backend,kw", [
        ("box", {"ambient_dim": 1}),
        ("box", {"ambient_dim": 2}),
        ("subcomplex", {"grid": 4, "stars_per_member": 1}),
    ])
    def test_six_vertex_multinerves(self, backend, kw):
        checked = 0
        for seed in range(12):
            F = random_family(backend, 6, seed, boxes_per_member=1, **kw)
            P = multinerve(F).poset
            # past about 26 cells the oracle's chain enumeration takes
            # seconds per poset
            if len(P.vertex_order) == 6 and P.n_cells <= 26:
                self.check(P)
                checked += 1
        assert checked >= 5


class TestLerayAndJ:
    """Exact J is L (the theorem in ``leray``): j_index gives leray_number's
    value and mode, and its witness (S, j) with sigma the least cell."""

    @staticmethod
    def check(X):
        L, J = leray_number(X), j_index(X)
        assert (J.value, J.mode) == (L.value, L.mode)
        least = () if isinstance(X, SimplicialComplex) else 0
        w = L.witness
        assert J.witness == (w and Witness(w.S, w.j, least))
        return L, J

    def test_random_posets_with_duplicated_cells(self):
        rng = random.Random(21)
        duplicated = 0
        for _ in range(30):
            P = random_poset(rng, n_vertices=5, n_facets=5, max_facet=4)
            duplicated += P.n_cells > len({P.vertices_of(c) for c in P.cells()})
            self.check(P)
        assert duplicated

    def test_double_edge_cones_and_isolated_vertices(self):
        L, J = self.check(double_edge_poset())
        assert L.value == J.value == 2
        rng = random.Random(22)
        for k in (1, 2, 3):
            for _ in range(3):
                P = random_poset(rng, n_vertices=4, n_facets=4, max_facet=3)
                self.check(cone_poset(P))
                self.check(with_isolated_vertices(P, k))

    def test_complexes_give_witnesses_in_vertex_labels(self):
        K = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c"), ("d",)])
        L, J = self.check(K)
        assert L.witness == Witness(("a", "b", "c"), 1)
        assert J.witness == Witness(("a", "b", "c"), 1, ())
        rng = random.Random(23)
        for _ in range(15):
            facets = [rng.sample("uvwxy", rng.randrange(1, 4))
                      for _ in range(rng.randrange(6))]
            self.check(SimplicialComplex(facets))

    @pytest.mark.parametrize("backend,kw", [
        ("box", {"ambient_dim": 2}),
        ("subcomplex", {"grid": 4, "stars_per_member": 1}),
    ])
    def test_six_vertex_multinerves(self, backend, kw):
        for seed in range(4):
            F = random_family(backend, 6, seed, boxes_per_member=1, **kw)
            self.check(multinerve(F).poset)

    def test_exact_calls_select_from_x_alone(self, monkeypatch):
        # J = L, so an exact call selects every complex it ranks from X's
        # boundary, whose augmentation is the least cell
        from multinerve.homology import Boundary
        real, augmentations = Boundary.select, []

        def spy(self, cells):
            augmentations.extend(c for c, row in self.rows.items() if not row)
            return real(self, cells)
        monkeypatch.setattr(Boundary, "select", spy)
        rng = random.Random(24)
        for _ in range(10):
            P = random_poset(rng, n_vertices=5, n_facets=5, max_facet=4)
            for index in (leray_number, j_index):
                index(P)
        assert augmentations and set(augmentations) == {0}

    def test_cap_refusal(self):
        K = SimplicialComplex([(i,) for i in range(6)])
        with pytest.raises(CapExceeded) as L:
            leray_number(K, cap=4)
        with pytest.raises(CapExceeded) as J:
            j_index(K, cap=4)
        assert str(L.value) == str(J.value)

    def test_twins_with_cofaces(self):
        # cells copied with part of their upper star: the twins of the
        # theorem's direct sum, against the J oracle and the first hit from
        # the definition, which asks every upper interval
        rng = random.Random(25)
        with_coface = 0
        for _ in range(40):
            P = twin_poset(rng, n_vertices=rng.randrange(3, 6))
            lower = _lower_sets(P)
            twins = [c for c in P.cells() if P.dim_of(c) >= 1
                     and any(P.vertices_of(t) == P.vertices_of(c)
                             for t in P.cells() if t != c)]
            with_coface += any(c in lower[t] for c in twins
                               for t in P.cells() if t != c)
            L, J = self.check(P)
            assert J.value == j_oracle(P)
            want = first_hit_witness(P, J.value, links=True)
            assert J.witness == (want and Witness(*want))
            assert want is None or want[2] == P.least
        assert with_coface >= 10


class TestDomination:
    """The walk skips each X[S] whose homology a smaller subset gives (the lemma in ``leray``): values and witnesses against
    oracles that ask every induced subposet and every link."""

    @staticmethod
    def check(P):
        L, J = leray_number(P), j_index(P)
        assert L.value == poset_leray_oracle(P)
        if L.witness is not None:
            w = L.witness
            cells = [c for c in P.cells() if P.vertices_of(c) <= set(w.S)]
            assert poset_betti_gj(P, cells).get(L.value - 1)
        # past about 20 cells the J oracle's chain enumeration takes seconds
        if P.n_cells <= 20:
            assert J.value == j_oracle(P)
        if J.witness is not None:
            w = J.witness
            assert upper_interval_betti(P, w.S, w.sigma).get(J.value - 1)
        return L, J

    def test_lemma_against_link_homology(self):
        # wherever the test finds x dominated in S, X[S] has the homology of
        # X[S - x], read off the order complex of the least cell's link: on
        # the double edge, on a vertex with two covers by x, and on random
        # posets, twins and cones.  An unconditional pair is an edge of
        # ``adjacent``, which drops its direction: the definition says which
        # end x is dominated (by the other, in P[S] as in P), and it is that
        # end that leaves the homology alone
        from multinerve.leray import _dominated, _pairs, _vertex_masks
        rng = random.Random(33)
        randoms = [random_poset(rng, n_vertices=4, n_facets=4, max_facet=3)
                   for _ in range(30)]
        two_covers = build_poset([(-1, []), (0, [0]), (0, [0]), (0, [0]),
                                  (1, [2, 1]), (1, [2, 1]), (1, [3, 1]),
                                  (1, [3, 2]), (2, [7, 6, 4])])
        fired = skipped = directed = 0
        for P in ([double_edge_poset(), two_covers] + randoms
                  + [twin_poset(rng, n_vertices=4) for _ in range(20)]
                  + [cone_poset(P) for P in randoms]):
            bit = {v: 1 << i for i, v in enumerate(P.vertex_order)}
            verts, covers = vertex_sets(P), cover_counts(P)
            masks, unique = _vertex_masks(P)
            adjacent, pairs = _pairs(masks, unique)
            V = P.vertex_order
            for size in range(len(V) + 1):
                for S in combinations(V, size):
                    x = _dominated(pairs, sum(bit[v] for v in S))
                    ends = [(u, v) for u, v in combinations(S, 2)
                            if adjacent[bit[u]] & bit[v]]
                    if not (x or ends):
                        continue
                    fired += 1
                    here = upper_interval_betti(P, S, P.least)
                    cells = [c for c in P.cells() if verts[c] <= set(S)]

                    def without(v):
                        rest = [u for u in S if u != v]
                        return upper_interval_betti(P, rest, P.least)
                    if x:
                        [v] = [v for v in S if bit[v] == x]
                        assert here == without(v)
                        skipped += 1
                    for u, v in ends:
                        ways = [(a, b) for a, b in ((u, v), (v, u))
                                if dominated_by(a, b, P.cells(), verts,
                                                covers)]
                        assert ways
                        for a, b in ways:
                            assert dominated_by(a, b, cells, verts, covers)
                            assert here == without(a)
                            directed += 1
        assert fired > 300 and skipped > 150 and directed > 400

    def test_random_posets_with_duplicated_cells(self):
        rng = random.Random(31)
        duplicated = 0
        for _ in range(300):
            P = random_poset(rng, n_vertices=5, n_facets=5, max_facet=3)
            duplicated += P.n_cells > len({P.vertices_of(c) for c in P.cells()})
            self.check(P)
        assert duplicated >= 100

    def test_cones_and_isolated_vertices(self):
        rng = random.Random(32)
        for k in (1, 2, 3):
            for _ in range(10):
                P = random_poset(rng, n_vertices=4, n_facets=4, max_facet=3)
                self.check(cone_poset(P))
                self.check(with_isolated_vertices(P, k))

    @pytest.mark.parametrize("backend,kw", [
        ("box", {"ambient_dim": 1}),
        ("box", {"ambient_dim": 2}),
        ("subcomplex", {"grid": 4, "stars_per_member": 1}),
    ])
    def test_six_to_eight_vertex_multinerves(self, backend, kw):
        sizes = set()
        for n in (6, 7, 8):
            for seed in range(4):
                F = random_family(backend, n, seed, boxes_per_member=1, **kw)
                for P in (multinerve(F).poset, reduced_multinerve(F, 2)[0].poset):
                    sizes.add(len(P.vertex_order))
                    self.check(P)
        assert {6, 7, 8} <= sizes

    def test_double_edge_is_not_pruned(self):
        # x has two covers by y, so X[{x, y}], a circle, is asked
        P = double_edge_poset()
        L, J = self.check(P)
        assert L.witness == Witness((1, 2), 1)
        assert J.witness == Witness((1, 2), 1, 0)
        # the cone over it is contractible, and in it x is dominated by the
        # apex but not by y: the witness is still the double edge
        L, J = self.check(cone_poset(P))
        assert L.value == J.value == 2
        assert L.witness == Witness((1, 2), 1)
        assert J.witness == Witness((1, 2), 1, 0)

    def test_sixteen_vertex_box_multinerve(self, monkeypatch):
        from multinerve.homology import Boundary
        P = multinerve(random_family("box", 8, 1, ambient_dim=2,
                                     boxes_per_member=2)).poset
        assert len(P.vertex_order) == 16
        real, asked = Boundary.select, []

        def spy(self, cells):
            asked.append(cells)
            return real(self, cells)
        monkeypatch.setattr(Boundary, "select", spy)
        L = leray_number(P)
        assert L == LerayReport(1, "exact", Witness((1, 2), 0))
        # of 2^16 subsets, few X[S] are not dominated
        assert len(asked) <= 100
        assert j_index(P) == LerayReport(1, "exact", Witness((1, 2), 0, 0))


class TestIndependentSets:
    """The exact walk's subset source: the independent sets of a graph on
    the vertex bits, smallest first, then lexicographic, made lazily."""

    @staticmethod
    def walk(n, edges):
        from multinerve.leray import _independent
        adjacent = {1 << i: 0 for i in range(n)}
        for u, v in edges:
            adjacent[1 << u] |= 1 << v
            adjacent[1 << v] |= 1 << u
        return _independent(n, adjacent)

    @staticmethod
    def brute(n, edges):
        return [sum(1 << i for i in c) for k in range(n + 1)
                for c in combinations(range(n), k)
                if not any(u in c and v in c for u, v in edges)]

    def test_against_brute_force(self):
        rng = random.Random(71)
        for n in range(11):
            pairs = list(combinations(range(n), 2))
            graphs = [[], pairs] + [
                [e for e in pairs if rng.random() < p]
                for p in (0.1, 0.3, 0.5, 0.8) for _ in range(3)]
            for edges in graphs:
                assert list(self.walk(n, edges)) == self.brute(n, edges)

    def test_lazy(self):
        # 200,000 of the 2^64 subsets of 64 bits, in constant memory: a
        # whole level (C(64, 4) = 635,376 sets) would not fit in 1 MB
        import tracemalloc
        from itertools import islice
        tracemalloc.start()
        try:
            masks = self.walk(64, [])
            last = max(islice(masks, 200_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert last.bit_count() == 4
        assert peak < 1 << 20


class TestWalkOracle:
    """The exact walk ranks exactly the X[S] of its definition
    (``pruned_walk_oracle``: every subset in (size, lex) order, less the
    dominated ones and those below the floor's dimension), in the same
    order, with the same value and witness."""

    @staticmethod
    def check(P, monkeypatch):
        from multinerve.homology import Boundary
        real, ranked = Boundary.select, []

        def spy(self, cells):
            cells = tuple(cells)
            ranked.append(cells)
            return real(self, cells)
        monkeypatch.setattr(Boundary, "select", spy)
        value, hit, want = pruned_walk_oracle(P)
        for index, sigma in ((leray_number, None), (j_index, P.least)):
            del ranked[:]
            rep = index(P)
            assert ranked == want
            assert rep.value == value
            assert rep.witness == (hit and Witness(*hit, sigma))
        monkeypatch.undo()
        return len(want)

    def test_random_posets_with_duplicated_cells(self, monkeypatch):
        rng = random.Random(72)
        duplicated = ranked = 0
        for _ in range(300):
            P = random_poset(rng, n_vertices=5, n_facets=5, max_facet=3)
            duplicated += P.n_cells > len({P.vertices_of(c) for c in P.cells()})
            ranked += self.check(P, monkeypatch)
        assert duplicated >= 100 and ranked >= 300

    def test_twins_cones_and_isolated_vertices(self, monkeypatch):
        rng = random.Random(73)
        for _ in range(20):
            self.check(twin_poset(rng), monkeypatch)
        for k in (1, 2):
            for _ in range(8):
                P = random_poset(rng, n_vertices=4, n_facets=4, max_facet=3)
                self.check(cone_poset(P), monkeypatch)
                self.check(with_isolated_vertices(P, k), monkeypatch)
        self.check(double_edge_poset(), monkeypatch)
        self.check(cone_poset(double_edge_poset()), monkeypatch)

    @pytest.mark.parametrize("backend,kw", [
        ("box", {"ambient_dim": 1}),
        ("box", {"ambient_dim": 2}),
        ("subcomplex", {"grid": 4, "stars_per_member": 2}),
    ])
    def test_multinerves(self, backend, kw, monkeypatch):
        # 6-12 vertices for the multinerves, 4-6 for the reduced ones
        sizes = set()
        for n in (4, 5, 6):
            for seed in range(2):
                F = random_family(backend, n, seed, boxes_per_member=2, **kw)
                for P in (multinerve(F).poset,
                          reduced_multinerve(F, 2)[0].poset):
                    sizes.add(len(P.vertex_order))
                    self.check(P, monkeypatch)
        assert min(sizes) <= 6 and 10 <= max(sizes) <= 12


class TestWitnessOracle:
    """Each witness is the first hit from the definition: the first vertex
    set of the sorted vertices, smallest first, and in it the first cell
    (least cell first), with nonzero reduced homology in dimension
    value - 1 (``first_hit_witness``, which asks every induced subposet and
    every upper interval)."""

    @staticmethod
    def check(X):
        P = X.as_poset() if isinstance(X, SimplicialComplex) else X
        L, J = leray_number(X), j_index(X)
        for rep, links in ((L, False), (J, True)):
            want = first_hit_witness(P, rep.value, links)
            if want is not None and isinstance(X, SimplicialComplex):
                cell = X.ordered_simplices()
                S, j, *sigma = want
                want = (tuple(sorted(v for c in S for v in cell[c])), j,
                        *(tuple(sorted(cell[c])) for c in sigma))
            assert rep.witness == (None if want is None else Witness(*want))

    def test_random_posets_with_duplicated_cells(self):
        rng = random.Random(51)
        duplicated = 0
        for _ in range(200):
            P = random_poset(rng, n_vertices=5, n_facets=5, max_facet=3)
            duplicated += P.n_cells > len({P.vertices_of(c) for c in P.cells()})
            self.check(P)
        assert duplicated >= 60

    def test_cones_and_isolated_vertices(self):
        rng = random.Random(52)
        for k in (1, 2, 3):
            for _ in range(8):
                P = random_poset(rng, n_vertices=4, n_facets=4, max_facet=3)
                self.check(cone_poset(P))
                self.check(with_isolated_vertices(P, k))

    def test_random_complexes_in_vertex_labels(self):
        rng = random.Random(53)
        for _ in range(40):
            K = random_complex(rng, n_vertices=6, n_facets=6, max_facet=3)
            self.check(SimplicialComplex(
                [["uvwxyz"[v] for v in s] for s in K.simplices if s]))

    @pytest.mark.parametrize("backend,kw", [
        ("box", {"ambient_dim": 1}),
        ("box", {"ambient_dim": 2}),
        ("subcomplex", {"grid": 4, "stars_per_member": 1}),
    ])
    def test_six_to_eight_vertex_multinerves(self, backend, kw):
        sizes = set()
        for n in (6, 7, 8):
            for seed in range(4):
                F = random_family(backend, n, seed, boxes_per_member=1, **kw)
                P = multinerve(F).poset
                sizes.add(len(P.vertex_order))
                self.check(P)
        assert {6, 7, 8} <= sizes


class TestOnePass:
    """One walk gives values and witnesses: no subset is asked twice."""

    def test_no_vertex_set_selected_twice(self, monkeypatch):
        from multinerve.homology import Boundary
        real, selected = Boundary.select, []

        def spy(self, cells):
            cells = tuple(cells)
            selected.append(cells)
            return real(self, cells)
        monkeypatch.setattr(Boundary, "select", spy)
        rng, asked = random.Random(54), 0
        for P in [double_edge_poset()] + [random_poset(rng) for _ in range(20)]:
            for index in (leray_number, j_index):
                del selected[:]
                index(P)
                assert len(set(selected)) == len(selected)
                asked += len(selected)
        assert asked

    def test_fifteen_vertex_subcomplex_multinerve(self):
        P = multinerve(random_family("subcomplex", 9, 1, grid=5)).poset
        assert len(P.vertex_order) == 15
        assert (leray_number(P), j_index(P)) == (
            LerayReport(2, "exact", Witness((1, 3, 14), 1)),
            LerayReport(2, "exact", Witness((1, 3, 14), 1, 0)))


def subcomplex_region_betti(K):
    return region_betti(subcomplex_family(K, [K.simplices]), (0,))


def box_region_betti(K):
    # three boxes of R^2 around a common point: their nerve is K, a
    # 2-simplex, kept whole below the cut at dimension d = 2
    return region_betti(box_family(2, [[box((0, 3), (0, 3)),
                                        box((1, 4), (1, 4)),
                                        box((2, 5), (2, 5))]]), (0,))


class TestDDChecked:
    """d o d is checked on every boundary chain complexes are selected
    from: a sign flipped by the one signed-row builder on cells of
    dimension >= 2 must be caught by ``chain_complex``, ``leray_number``,
    ``j_index`` and both backends' ``region_betti``."""

    @pytest.fixture
    def flipped_signs(self, monkeypatch):
        from multinerve import homology
        real = homology._signed_rows

        def flipped(faces):
            rows = real(faces)
            for c, fs in enumerate(faces):
                if len(fs) >= 3:
                    f = fs[0]
                    rows[c][f] = -rows[c][f]
            return rows

        monkeypatch.setattr(homology, "_signed_rows", flipped)

    @pytest.mark.parametrize("fn", [chain_complex, leray_number, j_index,
                                    subcomplex_region_betti,
                                    box_region_betti])
    def test_flipped_sign_is_caught(self, flipped_signs, fn):
        with pytest.raises(AssertionError):
            fn(SimplicialComplex([(0, 1, 2)]))


class TestBoundary:
    """One ``Boundary`` (one d o d check) per call, exact or sampled, every
    selection with the least cell as its augmentation, and a cell's
    dimension in a selection is its row length."""

    @pytest.fixture
    def built(self, monkeypatch):
        from multinerve.homology import Boundary
        real, rows = Boundary.__init__, []

        def spy(self, r):
            rows.append(r)
            real(self, r)
        monkeypatch.setattr(Boundary, "__init__", spy)
        return rows

    @pytest.fixture
    def ranked(self, monkeypatch):
        from multinerve.homology import Boundary
        real, selected = Boundary.select, []

        def spy(self, cells):
            cc = real(self, cells)
            selected.append(cc)
            return cc
        monkeypatch.setattr(Boundary, "select", spy)
        return selected

    def test_one_per_exact_call(self, built, ranked):
        # the least cell's link is X itself, so it takes X's boundary, and
        # J = L asks no other link, exact or sampled
        rng, asked = random.Random(9), 0
        for P in [double_edge_poset()] + [random_poset(rng) for _ in range(10)]:
            for index in (leray_number, j_index):
                for kw in ({}, {"sample": 40, "seed": 1}):
                    del built[:], ranked[:]
                    index(P, **kw)
                    assert len(built) == 1 and built[0][0] == {}
                    asked += len(ranked)
        assert asked

    def test_link_rows_give_link_dimensions(self, built, ranked):
        # the one link ranked is the least cell's, X itself: its rows are
        # every cell, and a cell's dimension in it is its row length
        rng, seen = random.Random(8), 0
        for P in [double_edge_poset()] + [random_poset(rng) for _ in range(10)]:
            for kw in ({}, {"sample": 40, "seed": 1}):
                del built[:], ranked[:]
                j_index(P, **kw)
                [rows] = built
                lower = _lower_sets(P)
                assert set(rows) == {t for t in P.cells() if 0 in lower[t]}
                for cc in ranked:
                    # the least cell, 0, is the augmentation
                    assert cc.boundary[-1] == {0: {}}
                    for n, cells in cc.boundary.items():
                        assert all(P._dims[t] == n for t in cells)
                    seen += 1
        assert seen


class TestLJRelations:
    # leray_number and j_index run one walk, so each is checked against
    # its own brute-force oracle
    def test_l_le_j_on_random_posets(self):
        rng = random.Random(4)
        for _ in range(25):
            P = random_poset(rng, n_vertices=4, n_facets=4)
            assert leray_number(P).value == poset_leray_oracle(P)
            assert j_index(P).value == j_oracle(P)

    def test_l_eq_j_on_random_complexes(self):
        # J = L on complexes, and Leray numbers of complexes have their
        # own oracle (the full-subcomplex scan)
        rng = random.Random(5)
        for _ in range(15):
            facets = [rng.sample(range(5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(6))]
            K = SimplicialComplex(facets)
            want = leray_oracle(K)
            assert leray_number(K).value == want
            assert j_index(K).value == want

    def test_leray_zero_iff_simplex(self):
        rng = random.Random(6)
        seen_nonsimplex = False
        for _ in range(30):
            P = random_poset(rng, n_vertices=4, n_facets=3)
            zero = leray_number(P).value == 0
            # the face poset of one simplex: one top cell over all 2^(d+1)
            simplex = (len(P.cells_of_dim(P.dim)) == 1
                       and P.n_cells == 2 ** (P.dim + 1))
            assert zero == simplex
            seen_nonsimplex |= not zero
        assert seen_nonsimplex

    def test_j_monotone_under_induced_subposets(self):
        rng = random.Random(7)
        for _ in range(10):
            P = random_poset(rng, n_vertices=4, n_facets=4)
            full = j_index(P).value
            verts = list(P.vertex_order)
            for _ in range(3):
                R = rng.sample(verts, rng.randrange(len(verts) + 1))
                assert j_index(P.induced_with_map(R)[0]).value <= full


class TestSampling:
    def test_sampled_is_lower_bound_and_deterministic(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)])
        exact = leray_number(K).value
        a = leray_number(K, sample=40, seed=1)
        b = leray_number(K, sample=40, seed=1)
        assert a.mode == "sampled"
        assert a.value <= exact
        assert a == b

    def test_sampling_bypasses_cap(self):
        K = SimplicialComplex([(i, i + 1) for i in range(20)])
        rep = leray_number(K, cap=4, sample=10, seed=0)
        assert rep.mode == "sampled"

    def test_j_sampled(self):
        P = double_edge_poset()
        rep = j_index(P, sample=60, seed=3)
        assert rep.mode == "sampled"
        assert rep.value <= 2

    def test_sampled_witness_in_complex_labels(self):
        K = SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")])
        rep = leray_number(K, sample=30, seed=1)
        assert rep.witness.S == ("a", "b", "c")

    def test_j_sampled_is_l_sampled_at_the_least_cell(self):
        # J = L, so sampled J draws L's subsets and reports L's value and
        # witness, with sigma the least cell
        rng, hits = random.Random(17), 0
        spaces = ([double_edge_poset()]
                  + [random_poset(rng, n_vertices=6, n_facets=6)
                     for _ in range(15)]
                  + [twin_poset(rng) for _ in range(15)]
                  + [random_complex(rng) for _ in range(10)])
        for X in spaces:
            least = () if isinstance(X, SimplicialComplex) else 0
            for n, seed in ((10, 1), (25, 2), (60, 3)):
                L = leray_number(X, sample=n, seed=seed)
                J = j_index(X, sample=n, seed=seed)
                w = L.witness and Witness(L.witness.S, L.witness.j, least)
                assert J == LerayReport(L.value, "sampled", w)
                hits += w is not None
        assert hits >= 60
