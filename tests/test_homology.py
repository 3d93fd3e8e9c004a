"""Homology core: chain complexes, exact Betti numbers, Euler characteristic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (betti_oracle_gj, betti_oracle_lattice, betti_sum_check,
                     box_nerve, dense_boundaries, family_region,
                     gauss_jordan_rank, random_complex, random_poset, relabel,
                     small_family, with_isolated_vertices)

from multinerve import (BettiVector, SimplicialComplex, box, box_family,
                        build_poset, chain_complex, euler_characteristic,
                        is_acyclic_with_slack, leray_number, random_family,
                        reduced_betti, region_betti, sparse_rank,
                        verify_multinerve_theorem)
from multinerve.fixtures import cycle_complex, double_edge_poset
from multinerve.homology import ChainComplex, top_nonzero_betti


def bv(d):
    return BettiVector.from_dict(d)


class TestSparseRank:
    def test_empty(self):
        assert sparse_rank([]) == 0
        assert sparse_rank([{}]) == 0

    def test_identity(self):
        assert sparse_rank([{i: 1} for i in range(5)]) == 5

    def test_dependent_rows(self):
        rows = [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1, 2: -1}]
        assert sparse_rank(rows) == 2

    def test_zero_entries_count_as_absent(self):
        assert sparse_rank([{0: 0}]) == 0
        assert sparse_rank([{1: 1}, {0: 0, 1: 1}]) == 1
        assert sparse_rank([{0: 0, 1: 1}, {1: 1}]) == 1

    @staticmethod
    def _random_matrix(rng):
        """Up to 12x12: random rows with entries in -3..3, and rows that
        are sums or multiples of earlier rows, so reductions take several steps and
        the gcd division is exercised."""
        nr, nc = rng.randrange(1, 13), rng.randrange(1, 13)
        dense = []
        for _ in range(nr):
            if dense and rng.random() < 0.4:
                a, b = rng.choice(dense), rng.choice(dense)
                k, m = rng.choice((-2, -1, 1, 2, 3)), rng.choice((-1, 0, 1))
                dense.append([k * x + m * y for x, y in zip(a, b)])
            else:
                dense.append([rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3))
                              for _ in range(nc)])
        return dense

    def test_matches_dense_oracle_on_random_matrices(self):
        from helpers import gauss_jordan_rank
        rng = random.Random(3)
        for _ in range(300):
            dense = self._random_matrix(rng)
            sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
            assert sparse_rank(sparse) == gauss_jordan_rank(dense)
            padded = [dict(enumerate(row)) for row in dense]
            assert sparse_rank(padded) == gauss_jordan_rank(dense)

    def test_rows_are_not_mutated(self):
        import copy
        rng = random.Random(5)
        for _ in range(100):
            dense = self._random_matrix(rng)
            for sparse in ([{j: x for j, x in enumerate(row) if x}
                            for row in dense],
                           [dict(enumerate(row)) for row in dense]):
                before = copy.deepcopy(sparse)
                sparse_rank(sparse)
                assert sparse == before


class TestChainComplex:
    def test_single_vertex_augmentation(self):
        # rows are keyed by cell id: the empty simplex is cell 0, the
        # vertex cell 1, and the augmentation row of dimension -1 is empty
        cc = chain_complex(SimplicialComplex([(0,)]))
        assert cc.size(0) == 1 and cc.size(-1) == 1
        assert cc.boundary[0] == {1: {0: 1}}
        assert cc.boundary[-1] == {0: {}}

    def test_double_edge_boundary_rows(self):
        cc = chain_complex(double_edge_poset())
        assert cc.size(1) == 2 and cc.size(0) == 2
        # each edge row is (+1, -1) up to the vertex order
        for row in cc.boundary[1].values():
            assert sorted(row.values()) == [-1, 1]

    def test_empty_poset(self):
        cc = chain_complex(build_poset([]))
        assert cc.size(-1) == 1 and cc.size(0) == 0

    def test_dd_zero_is_asserted(self):
        # hand-built rows violating d o d = 0 must be rejected: the least
        # cell 0, vertices 1 and 2, and an edge 3 with entries +1, +1
        from multinerve.homology import Boundary
        with pytest.raises(AssertionError):
            Boundary({0: {}, 1: {0: 1}, 2: {0: 1}, 3: {1: 1, 2: 1}})


class TestReducedBetti:
    def test_boundary_of_triangle(self):
        assert reduced_betti(SimplicialComplex([(0, 1), (1, 2), (0, 2)])) == bv({1: 1})

    def test_full_simplices_are_trivial(self):
        for n in range(4):
            K = SimplicialComplex([tuple(range(n + 1))])
            assert reduced_betti(K).is_trivial

    def test_empty_space(self):
        assert reduced_betti(build_poset([])) == bv({-1: 1})
        assert reduced_betti(SimplicialComplex()) == bv({-1: 1})

    def test_double_edge_is_a_circle(self):
        assert reduced_betti(double_edge_poset()) == bv({1: 1})

    def test_two_points(self):
        assert reduced_betti(SimplicialComplex([(0,), (1,)])) == bv({0: 1})

    def test_matches_gj_oracle_on_samples(self):
        rng = random.Random(11)
        for _ in range(25):
            facets = [rng.sample(range(5), rng.randrange(1, 4))
                      for _ in range(rng.randrange(7))]
            K = SimplicialComplex(facets)
            assert dict(reduced_betti(K).items()) == betti_oracle_gj(K)

    def test_matches_gj_oracle_on_all_5_vertex_classes(self):
        from helpers import all_complexes_up_to_iso
        for K in all_complexes_up_to_iso(5):
            assert dict(reduced_betti(K).items()) == betti_oracle_gj(K)

    def test_matches_lattice_oracle_spot(self):
        K = SimplicialComplex([(0, 1, 2), (2, 3), (0, 3)])
        assert dict(reduced_betti(K).items()) == betti_oracle_lattice(K)

    def test_top_nonzero_scan(self):
        K = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)])
        assert top_nonzero_betti(K, floor=0) == 1
        assert top_nonzero_betti(K, floor=2) is None
        full = SimplicialComplex([(0, 1, 2)])
        assert top_nonzero_betti(full, floor=0) is None

    def test_top_nonzero_reaches_dimension_minus_one(self):
        assert top_nonzero_betti(SimplicialComplex([]), -1) == -1
        assert top_nonzero_betti(build_poset([]), -1) == -1
        assert top_nonzero_betti(SimplicialComplex([]), 0) is None

    def test_top_nonzero_matches_reduced_betti_at_every_floor(self):
        rng = random.Random(14)
        spaces = [random_poset(rng) for _ in range(20)]
        spaces += [random_complex(rng) for _ in range(20)]
        spaces.append(SimplicialComplex([]))
        for X in spaces:
            support = [n for n, _ in reduced_betti(X).items()]
            top = chain_complex(X).top
            for floor in range(-1, top + 2):
                above = [n for n in support if n >= floor]
                assert top_nonzero_betti(X, floor) == \
                    (max(above) if above else None)


def _dense_rank(cc: ChainComplex, n: int) -> int:
    """Rank of d_n by dense Gauss-Jordan elimination over Q."""
    rows = list(cc.boundary.get(n, {}).values())
    cols = sorted({f for row in rows for f in row})
    return gauss_jordan_rank([[row.get(f, 0) for f in cols] for row in rows])


@pytest.fixture
def low_ranks(monkeypatch):
    """Check every rank of d_n asked while the fixture is on, cleared ones
    too, against the dense rank of all of d_n's rows, and check that the
    rows it eliminates are d_n's but those of the n-cells keying a pivot
    of d_{n+1}; the list of (n, augmentation cell or None, rows cleared)
    asked, the augmentation read for n <= 1 only."""
    from multinerve import homology
    real, real_rank, asked, fed = (ChainComplex.rank_boundary,
                                   homology.sparse_rank, [], [])

    def sparse_rank(rows, *pivots):
        fed.append(rows := list(rows))
        return real_rank(rows, *pivots)

    def rank_boundary(cc, n):
        del fed[:]
        out = real(cc, n)
        assert out == _dense_rank(cc, n), (n, cc.boundary)
        rows, cleared = cc.boundary.get(n), 0
        if n >= 2 and rows:
            done = (cc.cleared or {}).get(n + 1, {})
            kept = [r for c, r in rows.items() if c not in done]
            assert fed == [kept], n
            cleared = len(rows) - len(kept)
        aug = next(iter(cc.boundary[-1])) if n <= 1 else None
        asked.append((n, aug, cleared))
        return out
    monkeypatch.setattr(homology, "sparse_rank", sparse_rank)
    monkeypatch.setattr(ChainComplex, "rank_boundary", rank_boundary)
    return asked


class TestLowRanks:
    """Every rank the program takes, d_0 and d_1 read off without
    elimination and the others eliminated top down with clearing, against
    dense Gauss-Jordan rank on every complex the program ranks."""

    def test_double_edge(self):
        # 2 vertices joined by 2 edges: one independent edge
        cc = chain_complex(double_edge_poset())
        assert cc.rank_boundary(0) == _dense_rank(cc, 0) == 1
        assert cc.rank_boundary(1) == _dense_rank(cc, 1) == 1

    def test_isolated_vertices(self):
        discrete = SimplicialComplex([(0,), (1,), (2,)])
        cc = chain_complex(discrete)
        assert cc.rank_boundary(0) == 1 and cc.rank_boundary(1) == 0
        assert reduced_betti(discrete) == bv({0: 2})
        rng = random.Random(15)
        for _ in range(20):
            P = with_isolated_vertices(random_poset(rng), rng.randrange(1, 4))
            cc = chain_complex(P)
            for n in (0, 1):
                assert cc.rank_boundary(n) == _dense_rank(cc, n)

    def test_empty_complex(self):
        for X in (SimplicialComplex([]), build_poset([])):
            cc = chain_complex(X)
            assert cc.rank_boundary(0) == cc.rank_boundary(1) == 0
            assert reduced_betti(X) == bv({-1: 1})

    def test_x_s_of_random_posets_exact_and_sampled(self, low_ranks):
        rng = random.Random(16)
        for _ in range(60):
            P = random_poset(rng, max_duplications=6)
            leray_number(P)
            leray_number(P, sample=30, seed=1)
        # every X[S] has the least cell as its augmentation
        assert {aug for n, aug, _ in low_ranks if n <= 1} == {0}
        assert {n for n, _, _ in low_ranks} >= {0, 1, 2}

    def test_multinerves_clear_rows(self, low_ranks):
        # M's ranks are taken top down, and some skip the rows of cells
        # that key a pivot of the rank above
        for backend in ("box", "subcomplex"):
            for seed in range(20):
                F = small_family(seed, backend)
                if is_acyclic_with_slack(F, 0)[0]:
                    verify_multinerve_theorem(F, 0)
        assert {n for n, _, _ in low_ranks} >= {0, 1, 2, 3}
        assert any(cleared for _, _, cleared in low_ranks)

    def test_box_nerves_and_subcomplex_regions(self, low_ranks, monkeypatch):
        # both backends count a region's cells and ranks (``_region_ranks``),
        # checked here against the dense boundaries of its complex rebuilt:
        # a subcomplex region itself, or for a box region the meets of every
        # set of at most d + 1 of its distinct boxes, which the clique
        # complex of their overlap graph must match
        from multinerve import families
        real, counted = families._region_ranks, []

        def counts(F, A):
            sizes, ranks = real(F, A)
            region = family_region(F, A)
            K = SimplicialComplex(
                region if F.backend == "subcomplex" else
                box_nerve(list(dict.fromkeys(region)), F.ambient + 1))
            basis, dense = dense_boundaries(K)
            assert sizes == {d: len(b) for d, b in basis.items()}, A
            assert {d: ranks.get(d, 0) for d in dense} == \
                {d: gauss_jordan_rank(rows) for d, rows in dense.items()}, A
            counted.append((F.backend, ranks))
            return sizes, ranks
        monkeypatch.setattr(families, "_region_ranks", counts)
        for backend in ("box", "subcomplex"):
            for seed in range(25):
                F = small_family(seed, backend)
                region_betti(F, ())
                is_acyclic_with_slack(F, 0)
            is_acyclic_with_slack(
                random_family(backend, 5, 3, ambient_dim=2), 0)
            assert {n for b, ranks in counted if b == backend
                    for n, r in ranks.items() if r} >= {0, 1, 2}
        # d_0 and d_1 come from a region's groups, never from rank_boundary
        assert min(n for n, _, _ in low_ranks) == 2
        # in R^3, cliques of 4 boxes: d_3 is eliminated and clears d_2's
        # rows; tangent boxes do not overlap, twins and nested boxes do
        del low_ranks[:], counted[:]
        cube = box((0, 4), (0, 4), (0, 4))
        for F in (box_family(3, [
                [cube, box((1, 2), (1, 2), (1, 2))],
                [box((0, 1), (0, 1), (0, 1)), box((1, 2), (0, 1), (0, 1))],
                [cube, box((Fraction(1, 2), 3), (0, 2), (1, 3))],
                [box((Fraction(1, 2), 3), (Fraction(1, 2), 3), (0, 1))],
                [box((1, 3), (1, 3), (0, 4)), box((3, 4), (0, 4), (0, 4))]]),
                random_family("box", 5, 7, ambient_dim=3, boxes_per_member=3)):
            region_betti(F, ())
            is_acyclic_with_slack(F, 0)
        assert {n for _, ranks in counted for n, r in ranks.items() if r} \
            == {0, 1, 2, 3}
        assert any(cleared for n, _, cleared in low_ranks if n == 2)


class TestEuler:
    @pytest.mark.parametrize("K, chi", [
        (SimplicialComplex([(0, 1), (1, 2), (0, 2)]), 0),
        (SimplicialComplex([(0, 1, 2)]), 1),
    ])
    def test_values(self, K, chi):
        assert euler_characteristic(K) == chi

    def test_double_edge(self):
        assert euler_characteristic(double_edge_poset()) == 0


complexes = st.lists(
    st.sets(st.integers(0, 4), min_size=1, max_size=3),
    min_size=0, max_size=6).map(SimplicialComplex)


@st.composite
def posets(draw):
    seed = draw(st.integers(0, 10 ** 6))
    return random_poset(random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(posets())
def test_dd_zero_on_random_posets(P):
    chain_complex(P)  # d o d = 0 is checked at build time


@settings(max_examples=40, deadline=None)
@given(posets())
def test_euler_identity_on_random_posets(P):
    assert betti_sum_check(P)


@settings(max_examples=40, deadline=None)
@given(complexes, st.randoms(use_true_random=False))
def test_betti_invariant_under_vertex_reordering(K, rnd):
    P = K.as_poset()
    order = list(P.vertex_order)
    rnd.shuffle(order)
    assert reduced_betti(relabel(P, order)) == reduced_betti(P)


@settings(max_examples=40, deadline=None)
@given(posets(), st.randoms(use_true_random=False))
def test_poset_betti_invariant_under_vertex_reordering(P, rnd):
    order = list(P.vertex_order)
    rnd.shuffle(order)
    assert reduced_betti(relabel(P, order)) == reduced_betti(P)


def test_circle_of_any_length():
    for k in range(3, 7):
        assert reduced_betti(cycle_complex(k)) == bv({1: 1})
