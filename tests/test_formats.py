"""Text formats: round trips and parse-error reporting."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import poset_isomorphic

from multinerve import (PosetError, SimplicialComplex, box, box_family,
                        reduced_betti, subcomplex_family)
from multinerve.fixtures import double_edge_poset, two_arc_circle_family
from multinerve.formats import (ParseError, load_text, parse_betti,
                                parse_complex, parse_family, parse_poset,
                                write_betti, write_complex, write_family,
                                write_poset)


class TestPosetRoundTrip:
    def test_double_edge(self):
        P = double_edge_poset()
        Q = parse_poset(write_poset(P))
        assert poset_isomorphic(P, Q)

    def test_least_only(self):
        from multinerve import build_poset
        P = build_poset([])
        assert parse_poset(write_poset(P)).n_cells == 1

    def test_labeled_export_reparses(self):
        from multinerve import multinerve
        from multinerve.cli import _tag_lines
        M = multinerve(two_arc_circle_family())
        text = write_poset(M.poset, labels=_tag_lines(M))
        assert "| A=" in text
        Q = parse_poset(text)
        assert poset_isomorphic(M.poset, Q)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_poset("poset v2\n0 -1\n")

    def test_dangling_face_cited(self):
        with pytest.raises(ParseError, match="undeclared cell 7"):
            parse_poset("poset v1\n0 -1\n1 0 0\n2 1 7 1\n")

    def test_invariant_violation_names_cell(self):
        # edge with a repeated vertex
        with pytest.raises(ParseError, match="repeated vertex"):
            parse_poset("poset v1\n0 -1\n1 0 0\n2 1 1 1\n")

    def test_error_cites_file_and_line(self):
        with pytest.raises(ParseError) as exc:
            parse_poset("poset v1\n0 -1\nbogus line here\n", path="input.poset")
        assert "input.poset:3" in str(exc.value)


class TestComplexRoundTrip:
    def test_round_trip(self):
        K = SimplicialComplex([(0, 1, 2), (2, 3)])
        assert parse_complex(write_complex(K)) == K

    def test_empty_complex(self):
        K = SimplicialComplex()
        assert parse_complex(write_complex(K)) == K

    def test_closure_violation_rejected(self):
        with pytest.raises(ParseError, match="closed downward"):
            parse_complex("complex v1\n0 1\n")

    @pytest.mark.parametrize("text,line,named", [
        ("complex v1\n3 4\n0 1 2\n0\n", 2, "[3, 4]"),
        ("complex v1\n0 1 2\n1\n2 3\n0\n", 4, "[2, 3]"),
        ("complex v1\n0 1 2\n0 1\n0\n1\n", 2, "[0, 1, 2]")])
    def test_first_missing_face_in_canonical_order(self, text, line, named):
        # several simplices miss faces: the first in canonical order (by
        # dimension, then sorted vertex list) is named, at its own line
        with pytest.raises(ParseError) as exc:
            parse_complex(text)
        assert str(exc.value) == (f"<string>:{line}: complex not closed "
                                  f"downward: missing face of {named}")

    @pytest.mark.parametrize("text,message", [
        ("complex v1\n0\n1\n\n1 0\n0 1\n", "f:6: simplex '0 1' repeats line 5"),
        ("complex v1\n0\n1\n1 1\n", "f:4: repeated vertex in simplex '1 1'"),
        ("family v1 subcomplex 1\ncomplex v1\n0\n1\n0 1\n1\nend complex\n",
         "f:6: simplex '1' repeats line 4"),
        ("family v1 subcomplex 1\ncomplex v1\n0\n1\n0 x\nend complex\n",
         "f:5: vertex ids must be integers")])
    def test_repeated_vertex_or_simplex_cites_its_lines(self, text, message):
        with pytest.raises(ParseError) as exc:
            load_text(text, "f")
        assert str(exc.value) == message


class TestFamilyRoundTrip:
    def test_subcomplex_family(self):
        F = two_arc_circle_family()
        G = parse_family(write_family(F))
        assert G.backend == "subcomplex"
        assert G.ambient == F.ambient
        assert [m.simplices for m in G.members] == [m.simplices for m in F.members]
        assert G.gamma_dim == F.gamma_dim

    def test_box_family(self):
        F = box_family(2, [[box((0, 1), (2, 3))], [box((0, 2), (0, 2))]])
        G = parse_family(write_family(F))
        assert G.backend == "box" and G.ambient == 2
        assert [m.boxes for m in G.members] == [m.boxes for m in F.members]

    def test_gamma_dim_persisted_when_overridden(self):
        F = box_family(1, [[box((0, 1))]], gamma_dim=5)
        text = write_family(F)
        assert "gamma-dim 5" in text
        assert parse_family(text).gamma_dim == 5

    def test_gamma_dim_override_at_parse(self):
        F = box_family(1, [[box((0, 1))]])
        G = parse_family(write_family(F), gamma_dim_override=7)
        assert G.gamma_dim == 7

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="denominator"):
            parse_family("family v1 box 1\nmember\nbox 3/0 4/1\n")

    def test_degenerate_box_rejected(self):
        with pytest.raises(ParseError, match="lo < hi"):
            parse_family("family v1 box 1\nmember\nbox 1/1 1/1\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParseError, match="expected 4 rationals"):
            parse_family("family v1 box 2\nmember\nbox 0/1 1/1\n")

    def test_empty_member_round_trips(self):
        F = box_family(1, [[box((0, 1))], []])
        G = parse_family(write_family(F))
        assert len(G.members[1].boxes) == 0

    def test_unknown_backend(self):
        with pytest.raises(ParseError, match="backend"):
            parse_family("family v1 disk 2\n")

    @pytest.mark.parametrize("text,message", [
        ("family v1 box -2\n", "box ambient dimension must be >= 1, got -2"),
        ("family v1 box 0\n", "box ambient dimension must be >= 1, got 0"),
        ("family v1 box 0\nmember\n", "box ambient dimension must be >= 1"),
        ("family v1 box 1\ngamma-dim -1\nmember\nbox 0 1\n",
         "2: gamma-dim must be >= 0, got -1"),
        ("family v1 subcomplex 0\ngamma-dim -4\ncomplex v1\n0\nend complex\n",
         "2: gamma-dim must be >= 0, got -4"),
    ])
    def test_out_of_range_header_values_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_family(text)

    @pytest.mark.parametrize("text,message", [
        ("family v1 box 1\ngamma-dimXYZ 3\nmember\nbox 0 1\n",
         "f:2: expected 'member' or 'box', got 'gamma-dimXYZ'"),
        ("family v1 subcomplex 0\ngamma-dim3 3\ncomplex v1\n0\nend complex\n",
         "f:2: expected embedded 'complex v1' block"),
    ])
    def test_gamma_dim_token_matched_exactly(self, text, message):
        # only the token 'gamma-dim' starts the gamma-dim line; a longer
        # token is an unexpected line, not a gamma-dim of 3
        with pytest.raises(ParseError) as exc:
            parse_family(text, "f")
        assert str(exc.value) == message

    def test_box_endpoints_written_reduced(self):
        # endpoints are held on the grid of their least common denominator
        # and written back as reduced p/q, however the file spelled them
        F = parse_family("family v1 box 2\nmember\nbox 2/4 1 -6/9 0\n"
                         "member\nbox 1/5 3/7 -1 10/14\n")
        assert F.scale == 2 * 3 * 5 * 7
        assert write_family(F) == ("family v1 box 2\nmember\n"
                                   "box 1/2 1/1 -2/3 0/1\nmember\n"
                                   "box 1/5 3/7 -1/1 5/7\n")
        assert write_family(F) == write_family(box_family(2, [
            list(m.boxes) for m in F.members]))

    def test_unknown_simplex_id(self):
        text = ("family v1 subcomplex 1\ncomplex v1\n0\n1\n0 1\nend complex\n"
                "member 9\n")
        with pytest.raises(ParseError, match="unknown simplex id 9"):
            parse_family(text)


class TestBetti:
    def test_round_trip(self):
        b = reduced_betti(double_edge_poset())
        assert parse_betti(write_betti(b)) == b

    def test_negative_dimension_allowed(self):
        assert parse_betti("-1 1\n")[-1] == 1

    @pytest.mark.parametrize("text,message", [
        pytest.param("0 1\n1 -1\n", "f:2: Betti number must be >= 0, got -1",
                     id="value"),
        pytest.param("0 1\n-7 3\n", "f:2: dimension must be >= -1, got -7",
                     id="dim"),
        pytest.param("0 1\n\n0 2\n", "f:3: dimension 0 repeats line 1",
                     id="repeat"),
        pytest.param("1 0\n1 0\n", "f:2: dimension 1 repeats line 1",
                     id="repeat-zero"),
    ])
    def test_refuses_out_of_range(self, text, message):
        # no Betti vector has a negative entry or a dimension below -1,
        # and a dimension given twice would keep only one of its values
        with pytest.raises(ParseError) as exc:
            parse_betti(text, "f")
        assert str(exc.value) == message


class TestLoadDispatch:
    def test_dispatch_by_header(self):
        assert poset_isomorphic(load_text(write_poset(double_edge_poset())),
                                double_edge_poset())
        K = SimplicialComplex([(0, 1)])
        assert load_text(write_complex(K)) == K
        F = load_text(write_family(two_arc_circle_family()))
        assert F.backend == "subcomplex"

    def test_unknown_header(self):
        with pytest.raises(ParseError, match="unrecognized header"):
            load_text("graph v1\n")


# headers and lines the parsers know, mixed with arbitrary text, so that the
# drawn inputs get past the header check
_TOKENS = ["poset v1", "complex v1", "family v1 box", "family v1 subcomplex",
           "gamma-dim", "member", "box", "end complex", "|", "0", "1", "2",
           "-1", "-3", "1/2", "3/0", "x", " ", "\n", "\n", "\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=4)),
                max_size=30))
def test_load_text_raises_only_parse_errors(parts):
    try:
        load_text(" ".join(parts))
    except (ParseError, PosetError):
        pass


# every integer field of the formats: (parser, text with the field as {},
# its message), the message citing the text's path and the field's line.
# int() alone would read '1_0' as 10 and '١' (Arabic-Indic one) as 1
_INT_FIELDS = {
    "poset-id": (parse_poset, "poset v1\n0 -1\n{} 0 0\n",
                 "3: ids and dimensions must be integers"),
    "poset-dim": (parse_poset, "poset v1\n0 {}\n",
                  "2: ids and dimensions must be integers"),
    "poset-face": (parse_poset, "poset v1\n0 -1\n1 0 0\n2 0 0\n3 1 2 {}\n",
                   "5: ids and dimensions must be integers"),
    "complex-vertex": (parse_complex, "complex v1\n0\n{}\n",
                       "3: vertex ids must be integers"),
    "family-ambient": (parse_family, "family v1 box {}\nmember\nbox 0 1\n",
                       "1: ambient descriptor must be an integer"),
    "gamma-dim": (parse_family,
                  "family v1 box 1\ngamma-dim {}\nmember\nbox 0 1\n",
                  "2: gamma-dim must be an integer"),
    "block-vertex": (parse_family, "family v1 subcomplex 0\ncomplex v1\n"
                                   "{}\nend complex\n",
                     "3: vertex ids must be integers"),
    "member-id": (parse_family, "family v1 subcomplex 1\ncomplex v1\n0\n1\n"
                                "0 1\nend complex\nmember {}\n",
                  "7: simplex ids must be integers"),
    "numerator": (parse_family, "family v1 box 1\nmember\nbox {} 2\n",
                  "3: expected rational p/q, got '{}'"),
    "denominator": (parse_family, "family v1 box 1\nmember\nbox 0/{} 2\n",
                    "3: expected rational p/q, got '0/{}'"),
    "betti-dim": (parse_betti, "0 1\n{} 1\n",
                  "2: dimensions and values must be integers"),
    "betti-value": (parse_betti, "0 1\n1 {}\n",
                    "2: dimensions and values must be integers"),
}

# signed spellings each field's range takes; the others are refused by a
# range check, not as non-integers
_SIGNED = {"poset-id": ("+1",), "poset-dim": ("-1",), "poset-face": ("+1",),
           "complex-vertex": ("+1", "-1"), "family-ambient": ("+1",),
           "gamma-dim": ("+1",), "block-vertex": ("+1", "-1"),
           "member-id": ("+1",), "numerator": ("+1", "-1"),
           "denominator": ("+1",), "betti-dim": ("+1", "-1"),
           "betti-value": ("+1",)}

_WRITERS = {parse_poset: write_poset, parse_complex: write_complex,
            parse_family: write_family, parse_betti: write_betti}


@pytest.mark.parametrize("field,spelling,refused", [
    *((f, s, True) for f in _INT_FIELDS for s in ("1_0", "١", "x", "1.0")),
    *((f, s, False) for f, signed in _SIGNED.items() for s in signed),
    # a rational is one integer, or two around one '/': an empty side or a
    # second '/' is no rational (neither '1/' nor '1/2/3' reads as 1)
    *(("numerator", s, True) for s in ("1/", "/2", "/", "1/2/3", "1//2")),
])
def test_integer_fields_read_one_way(field, spelling, refused):
    parse, template, message = _INT_FIELDS[field]
    text = template.replace("{}", spelling)
    if refused:
        with pytest.raises(ParseError) as exc:
            parse(text, "f")
        assert str(exc.value) == "f:" + message.replace("{}", spelling)
    else:
        # a sign is read as int() reads it: '+1' is 1
        write = _WRITERS[parse]
        plain = template.replace("{}", str(int(spelling)))
        assert write(parse(text)) == write(parse(plain))
