"""Poset construction, validation errors, order complexes, subdivisions."""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (_lower_sets, boolean_lower_segments, classical_sd,
                     all_complexes_on, complexes_isomorphic, cone_poset,
                     poset_isomorphic, random_poset, relabel,
                     simplices_of_dim, twin_poset, upper_complexes,
                     vertex_sets)

from multinerve import (PosetError, SimplicialComplex, barycentric_subdivision,
                        build_poset, order_complex, reduced_betti)
from multinerve.cli import main
from multinerve.fixtures import double_edge_poset


class TestBuildPoset:
    def test_empty_records_give_least_only(self):
        P = build_poset([])
        assert P.n_cells == 1 and P.dim == -1
        assert P.vertices_of(P.least) == frozenset()

    def test_double_edge_is_valid_but_not_a_complex(self):
        P = double_edge_poset()
        assert P.n_cells == 5
        e1, e2 = P.cells_of_dim(1)
        assert P.vertices_of(e1) == P.vertices_of(e2)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(PosetError, match="repeated vertex"):
            build_poset([(-1, ()), (0, (0,)), (1, (1, 1))])

    def test_missing_least_rejected(self):
        with pytest.raises(PosetError, match="least"):
            build_poset([(0, ())])

    def test_second_least_rejected(self):
        with pytest.raises(PosetError, match="unique"):
            build_poset([(-1, ()), (-1, ())])

    def test_dangling_face_rejected(self):
        with pytest.raises(PosetError, match="dangling"):
            build_poset([(-1, ()), (0, (0,)), (0, (0,)), (1, (2, 5))])

    def test_face_dimension_mismatch_rejected(self):
        with pytest.raises(PosetError, match="dimension"):
            build_poset([(-1, ()), (0, (0,)), (1, (0, 1))])

    def test_simplicial_identity_violation_rejected(self):
        with pytest.raises(PosetError, match="simplicial identity"):
            build_poset(BAD_IDENTITY)
        # the same data without the 3-cell is a legitimate simplicial poset
        build_poset(BAD_IDENTITY[:-1])

    def test_triangle_over_doubled_edge_is_legitimate(self):
        records = [
            (-1, ()),
            (0, (0,)), (0, (0,)), (0, (0,)),           # a, b, c = 1, 2, 3
            (1, (2, 1)), (1, (3, 1)), (1, (3, 2)),      # ab, ac, bc = 4, 5, 6
            (1, (3, 2)),                                 # bc' = 7
            (2, (7, 5, 4)),                              # triangle on bc'
        ]
        build_poset(records)

    def test_lower_segments_are_boolean(self):
        P = double_edge_poset()
        for c in P.cells():
            assert sum(P.leq(t, c) for t in P.cells()) == \
                2 ** (P.dim_of(c) + 1)

    def test_corrupted_records_rejected_or_boolean(self):
        # the checks build_poset makes imply Boolean lower segments (its
        # docstring proves it): each corrupted record list is rejected or
        # gives a poset whose lower segments the oracle finds Boolean
        rng = random.Random(41)
        rejected = built = 0
        for _ in range(1500):
            source = rng.choice((random_poset, twin_poset))
            P = source(rng, n_vertices=5, n_facets=5, max_facet=4)
            if rng.random() < 0.3:
                P = cone_poset(P)
            records = [[r.dim, list(r.faces)] for r in P.export_records()]
            for _ in range(rng.randrange(1, 3)):
                i = rng.randrange(len(records))
                dim, faces = records[i]
                kind = rng.randrange(4)
                if kind == 0 and faces:
                    # a face replaced by another cell of the same dimension
                    same = [c for c in range(i) if records[c][0] == dim - 1]
                    faces[rng.randrange(len(faces))] = rng.choice(same)
                elif kind == 1 and len(faces) >= 2:
                    a, b = rng.sample(range(len(faces)), 2)
                    faces[a], faces[b] = faces[b], faces[a]
                elif kind == 2 and faces:
                    # a copy of the cell with one face replaced
                    same = [c for c in range(len(records))
                            if records[c][0] == dim - 1]
                    copy = list(faces)
                    copy[rng.randrange(len(copy))] = rng.choice(same)
                    records.append([dim, copy])
                elif faces:
                    faces[rng.randrange(len(faces))] = rng.randrange(i)
            try:
                Q = build_poset(records)
            except PosetError:
                rejected += 1
                continue
            assert boolean_lower_segments(Q)
            built += 1
        assert rejected >= 500 and built >= 200

    def test_round_trip(self):
        for P in (double_edge_poset(), SimplicialComplex([(0, 1, 2), (2, 3)]).as_poset()):
            Q = build_poset(P.export_records())
            assert poset_isomorphic(P, Q)


# tetrahedron over a duplicated edge cd/cd': the triangles acd and bcd use
# different copies, so d_0 d_1 and d_0 d_0 of the 3-cell land on different
# cells
BAD_IDENTITY = [
    (-1, ()),
    (0, (0,)), (0, (0,)), (0, (0,)), (0, (0,)),   # a b c d = 1..4
    (1, (2, 1)), (1, (3, 1)), (1, (4, 1)),         # ab ac ad = 5..7
    (1, (3, 2)), (1, (4, 2)),                      # bc bd = 8, 9
    (1, (4, 3)), (1, (4, 3)),                      # cd cd' = 10, 11
    (2, (8, 6, 5)),                                # abc = 12
    (2, (9, 7, 5)),                                # abd = 13
    (2, (10, 7, 6)),                               # acd = 14, uses cd
    (2, (11, 9, 8)),                               # bcd = 15, uses cd'
    (3, (15, 14, 13, 12)),
]

# one crafted record list per check of build_poset, with its exact message
POSET_ERRORS = [
    ([(0, ())],
     "missing least element: no (-1)-dimensional cell declared"),
    ([(-1, ()), (0, (0,)), (-1, ())],
     "cell 2: second (-1)-dimensional cell, least element must be unique"),
    ([(-1, ()), (-2, ())], "cell 1: dimension -2 below -1"),
    ([(-1, ()), (0, ())], "cell 1: expected 1 faces, got 0"),
    ([(-1, ()), (0, (0,)), (1, (1, 3))], "cell 2: dangling face reference 3"),
    ([(-1, ()), (0, (0,)), (1, (0, 1))],
     "cell 2: face 0 has dimension -1, expected 0"),
    ([(-1, ()), (0, (0,)), (1, (1, 1))],
     "cell 2: repeated vertex (has 1 distinct vertices, needs 2)"),
    ([(-1, ()), (0, (0,)), (0, (0,)), (0, (0,)), (1, (2, 1)), (1, (3, 1)),
      (1, (3, 2)), (2, (4, 4, 4))],
     "cell 7: repeated vertex (has 2 distinct vertices, needs 3)"),
    ([(-1, ()), (0, (0,)), (0, (0,)), (1, (1, 2))],
     "cell 3: face 0 drops the wrong vertex "
     "(face order inconsistent with vertex order)"),
    (BAD_IDENTITY, "cell 16: simplicial identity violated at faces (0, 1)"),
]


class TestErrorMessages:
    """Each PosetError of build_poset, byte for byte, and its exit code and
    stderr line through ``mnv homology`` on a poset.v1 file."""

    @pytest.mark.parametrize("records, message", POSET_ERRORS)
    def test_message(self, records, message):
        with pytest.raises(PosetError) as err:
            build_poset(records)
        assert str(err.value) == message

    @pytest.mark.parametrize("records, message", POSET_ERRORS)
    def test_exit_2_through_homology(self, tmp_path, records, message):
        lines = ["poset v1"] + [" ".join(map(str, (i, d, *fs)))
                                for i, (d, fs) in enumerate(records)]
        path = tmp_path / "bad.poset"
        path.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["homology", str(path)])
        assert code == 2 and out.getvalue() == ""
        if "dangling" in message:
            # the parser refuses a face it has not read yet, first
            message = "cell 2 references undeclared cell 3"
            where = 4  # the header is line 1
        elif message.startswith("cell "):
            # the line of the cell at fault: cell i is on line i + 2
            where = int(message.split()[1].rstrip(":")) + 2
        else:
            where = 1  # no one cell is at fault: the header's line
        assert err.getvalue() == f"mnv: {path}:{where}: {message}\n"


class TestVerticesAndInduced:
    def test_vertices_of(self):
        P = double_edge_poset()
        a, b = P.cells_of_dim(0)
        e = P.cells_of_dim(1)[0]
        assert P.vertices_of(a) == {a}
        assert P.vertices_of(e) == {a, b}
        assert P.vertices_of(P.least) == frozenset()

    def test_vertices_of_unknown_cell(self):
        with pytest.raises(PosetError, match="unknown"):
            double_edge_poset().vertices_of(99)

    @pytest.mark.parametrize("accessor", ["dim_of", "faces_of", "vertices_of"])
    def test_accessors_check_cell_ids(self, accessor):
        # the Leray/J loops read the cell tuples directly, on P's own ids;
        # the public accessors keep the check
        P = double_edge_poset()
        for bad in (-1, P.n_cells, "0"):
            with pytest.raises(PosetError, match="unknown cell id"):
                getattr(P, accessor)(bad)

    def test_leq_checks_both_cell_ids(self):
        P = double_edge_poset()
        for bad in (-1, P.n_cells, "0"):
            for args in ((bad, P.least), (P.least, bad)):
                with pytest.raises(PosetError, match="unknown cell id"):
                    P.leq(*args)

    def test_induced_full_and_empty(self):
        P = double_edge_poset()
        assert P.induced_with_map(P.vertices)[0].n_cells == P.n_cells
        assert P.induced_with_map(())[0].n_cells == 1

    def test_induced_single_vertex(self):
        P = double_edge_poset()
        a = P.cells_of_dim(0)[0]
        Q = P.induced_with_map({a})[0]
        assert Q.n_cells == 2 and Q.dim == 0

    def test_induced_unknown_vertex(self):
        with pytest.raises(PosetError, match="unknown"):
            double_edge_poset().induced_with_map({77})


class TestOrderComplex:
    def test_antichain(self):
        K = order_complex(range(4), lambda a, b: a == b)
        assert K.dim == 0 and len(K.vertices) == 4

    def test_chain_gives_full_simplex(self):
        K = order_complex(range(3), lambda a, b: a <= b)
        assert frozenset({0, 1, 2}) in K.simplices
        assert len(K.simplices) == 8

    def test_double_edge_minus_least_is_4_cycle(self):
        P = double_edge_poset()
        elems = [c for c in P.cells() if c != P.least]
        K = order_complex(elems, P.leq)
        assert len(K.vertices) == 4
        assert len(simplices_of_dim(K, 1)) == 4
        assert reduced_betti(K)[1] == 1


class TestBarycentricSubdivision:
    def test_point(self):
        K = barycentric_subdivision(SimplicialComplex([(0,)]).as_poset())
        assert len(K.vertices) == 1 and K.dim == 0

    def test_double_edge_subdivides_to_4_cycle(self):
        K = barycentric_subdivision(double_edge_poset())
        assert len(K.vertices) == 4 and len(simplices_of_dim(K, 1)) == 4
        assert reduced_betti(K)[1] == 1

    def test_triangle_subdivides_into_6(self):
        K = barycentric_subdivision(SimplicialComplex([(0, 1, 2)]).as_poset())
        assert len(simplices_of_dim(K, 2)) == 6

    def test_top_cells_multiply_by_factorials(self):
        for d in range(1, 4):
            P = SimplicialComplex([tuple(range(d + 1))]).as_poset()
            sd = barycentric_subdivision(P)
            import math
            assert len(simplices_of_dim(sd, d)) == math.factorial(d + 1)

    def test_matches_classical_subdivision_on_small_complexes(self):
        # brute force over every complex on <= 3 labeled vertices, plus a
        # sample on 4: compare against the subset-chain construction
        for K in all_complexes_on((0, 1, 2)):
            got = barycentric_subdivision(K.as_poset())
            want = classical_sd(K)
            assert complexes_isomorphic(got, want) or \
                len(got.simplices) == len(want.simplices) <= 2

    def test_matches_classical_on_4_vertices_sample(self):
        rng = random.Random(5)
        for _ in range(10):
            facets = [rng.sample(range(4), rng.randrange(1, 4))
                      for _ in range(rng.randrange(1, 5))]
            K = SimplicialComplex(facets)
            got = barycentric_subdivision(K.as_poset())
            want = classical_sd(K)
            # same f-vector and homology; full isomorphism is brute-force
            # expensive at this vertex count
            assert {d: len(simplices_of_dim(got, d)) for d in range(got.dim + 1)} \
                == {d: len(simplices_of_dim(want, d)) for d in range(want.dim + 1)}
            assert reduced_betti(got) == reduced_betti(want)


class TestUpperComplexes:
    def test_least_gives_subdivision(self):
        P = double_edge_poset()
        _, ddot = upper_complexes(P, P.least)
        assert ddot == barycentric_subdivision(P)

    def test_maximal_cell_gives_empty(self):
        P = double_edge_poset()
        top = P.cells_of_dim(1)[0]
        D, ddot = upper_complexes(P, top)
        assert len(ddot.simplices) == 1  # only the empty simplex
        assert len(D.vertices) == 1

    def test_vertex_of_double_edge_sees_two_points(self):
        P = double_edge_poset()
        a = P.cells_of_dim(0)[0]
        _, ddot = upper_complexes(P, a)
        assert ddot.dim == 0 and len(ddot.vertices) == 2

    def test_closed_interval_is_contractible(self):
        P = SimplicialComplex([(0, 1, 2)]).as_poset()
        for c in P.cells():
            D, _ = upper_complexes(P, c)
            assert reduced_betti(D).is_trivial


class TestComplexNumbering:
    @staticmethod
    def _spy_numbering(monkeypatch) -> list:
        """The simplex sets that ``SimplicialComplex`` numbers from now on."""
        numbered, real = [], SimplicialComplex._number

        def spy(self, sims):
            numbered.append(sims)
            real(self, sims)
        monkeypatch.setattr(SimplicialComplex, "_number", spy)
        return numbered

    def test_dim_is_found_once_per_complex(self, monkeypatch):
        # the family oracle reads dim T per family; it is read off the
        # numbering kept when the complex is built, with no scan
        from multinerve import poset
        numbered = self._spy_numbering(monkeypatch)
        T = SimplicialComplex([(0, 1, 2), (2, 3)])
        scans = []

        def spy(*args, **kwargs):
            scans.append(args)
            return max(*args, **kwargs)
        monkeypatch.setattr(poset, "max", spy, raising=False)
        assert [T.dim for _ in range(3)] == [2, 2, 2]
        assert len(numbered) == 1 and scans == []
        assert SimplicialComplex([]).dim == -1

    def test_order_is_computed_once_per_complex(self, monkeypatch):
        # a subcomplex family's triangulation T is read by parse_family, by
        # the family oracle and by write_family (the instance id, in each
        # report); it is numbered once, when parse_family builds it
        from multinerve import (instance_id, random_family,
                                verify_multinerve_theorem)
        from multinerve.formats import parse_family, write_family
        text = write_family(random_family("subcomplex", 12, 0, grid=7,
                                          stars_per_member=3))
        numbered = self._spy_numbering(monkeypatch)
        F = parse_family(text)
        T = F.ambient
        verify_multinerve_theorem(F, 0)
        instance_id(F)
        T.as_poset()
        assert len(numbered) == 1 and numbered[0] >= T.simplices
        order = T.ordered_simplices()
        assert isinstance(order, tuple) and order is T.ordered_simplices()
        assert T.simplex_ids() == {s: i for i, s in enumerate(order)}
        assert T.ordered_tuples() == tuple(tuple(sorted(s)) for s in order)


@st.composite
def posets(draw):
    seed = draw(st.integers(0, 10 ** 6))
    return random_poset(random.Random(seed))


@settings(max_examples=40, deadline=None)
@given(posets())
def test_round_trip_random(P):
    assert poset_isomorphic(P, build_poset(P.export_records()))


@settings(max_examples=40, deadline=None)
@given(posets())
def test_lower_segments_random(P):
    for c in P.cells():
        seg = [t for t in P.cells() if P.leq(t, c)]
        assert len(seg) == 2 ** (P.dim_of(c) + 1)
        # no two members of one segment share a vertex set
        assert len({P.vertices_of(t) for t in seg}) == len(seg)


@st.composite
def twin_posets(draw):
    seed = draw(st.integers(0, 10 ** 6))
    return twin_poset(random.Random(seed), n_vertices=4)


@settings(max_examples=40, deadline=None)
@given(st.one_of(posets(), twin_posets()))
def test_leq_matches_lower_sets(P):
    # twins share a vertex mask, so the face walk, not the masks, tells
    # them apart
    lower = _lower_sets(P)
    assert [[P.leq(a, b) for a in P.cells()] for b in P.cells()] == \
        [[a in lower[b] for a in P.cells()] for b in P.cells()]


@settings(max_examples=40, deadline=None)
@given(posets(), st.randoms(use_true_random=False))
def test_vertex_sets_under_reordering_and_inducing(P, rng):
    # vertices_of reads vertex masks, which a renumbering of the vertices
    # or an induced subposet re-bits; the oracle rebuilds them from the
    # faces
    order = list(P.vertex_order)
    rng.shuffle(order)
    for X in (P, relabel(P, order)):
        want = vertex_sets(X)
        assert [X.vertices_of(c) for c in X.cells()] == want
        V = X.vertex_order
        S = set(rng.sample(V, rng.randrange(len(V) + 1)))
        sub, keep = X.induced_with_map(S)
        assert keep == tuple(c for c in X.cells() if want[c] <= S)
        assert [frozenset(keep[v] for v in sub.vertices_of(i))
                for i in sub.cells()] == [want[c] for c in keep]


@settings(max_examples=25, deadline=None)
@given(posets())
def test_sd_preserves_homology_random(P):
    assert reduced_betti(P) == reduced_betti(barycentric_subdivision(P))
