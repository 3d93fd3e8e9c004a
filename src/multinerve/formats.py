"""Line-oriented text formats: poset.v1, complex.v1, family.v1, betti.v1.

All files are UTF-8 with LF endings; integer fields are ASCII decimal
digits with an optional sign, read by ``_ints`` alone.  Parsers validate
the declared format version and re-run the full build validation, so a
file that parses always yields a structurally sound object.  Parse errors
cite file, line, and what was expected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .families import (FamilyError, SetFamily, _bad_interval, _id_family,
                       _rational_family)
from .homology import BettiVector
from .poset import (CellRecord, PosetError, SimplicialComplex,
                    SimplicialPoset, _bit_ids, build_poset)

FORMAT_VERSIONS = ("poset.v1", "complex.v1", "family.v1", "betti.v1",
                   "leray.v1", "report.v1")


class ParseError(ValueError):
    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


def _ints(text: str, path: str, lineno: int, message: str) -> list[int]:
    """The whitespace-separated integers of text, each ASCII decimal digits
    with an optional sign, or ParseError(path, lineno, message).  int()
    alone also reads '_' between digits ('1_0' as 10) and non-ASCII digits
    ('\u0661' as 1), which no format allows.  Text with no field, as a side
    of the rational '1/', is refused too."""
    fields = text.split()
    if fields and text.isascii() and "_" not in text:
        try:
            return list(map(int, fields))
        except ValueError:
            pass
    raise ParseError(path, lineno, message)


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield i, line


# -- poset.v1 ---------------------------------------------------------------


def write_poset(X: SimplicialPoset, labels: Sequence[str] | None = None) -> str:
    """poset.v1 serialization; cells are renumbered by dimension, then id,
    so that every face precedes its cofaces and the vertex order stays."""
    dims, faces = X._dims, X._faces  # X's own ids, so read directly
    order = sorted(X.cells(), key=dims.__getitem__)  # stable: ids ascend
    new_id = {c: i for i, c in enumerate(order)}
    out = ["poset v1"]
    for c in order:
        fields = [str(new_id[c]), str(dims[c])]
        fields.extend(str(new_id[f]) for f in faces[c])
        line = " ".join(fields)
        if labels is not None and labels[c]:
            line += f" | {labels[c]}"
        out.append(line)
    return "\n".join(out) + "\n"


def parse_poset(text: str, path: str = "<string>") -> SimplicialPoset:
    it = _lines(text)
    try:
        first, header = next(it)
    except StopIteration:
        raise ParseError(path, 1, "empty file, expected 'poset v1' header")
    if header != "poset v1":
        raise ParseError(path, first, f"expected 'poset v1' header, got {header!r}")
    records: list[CellRecord] = []
    seen: dict[int, int] = {}
    for lineno, line in it:
        body = line.split("|")[0].strip()
        parts = body.split()
        if len(parts) < 2:
            raise ParseError(path, lineno, "expected '<id> <dim> <faces...>'")
        cid, dim, *faces = _ints(body, path, lineno,
                                 "ids and dimensions must be integers")
        if cid != len(records):
            raise ParseError(path, lineno, f"cell ids must be consecutive from 0, got {cid}")
        for f in faces:
            if f not in seen:
                raise ParseError(path, lineno, f"cell {cid} references undeclared cell {f}")
        seen[cid] = lineno
        records.append(CellRecord(dim, tuple(faces)))
    try:
        return build_poset(records)
    except PosetError as e:
        # a cell's error cites the cell's line, any other the header's
        raise ParseError(path, seen.get(e.at, first), str(e))


# -- complex.v1 -------------------------------------------------------------


def write_complex(K: SimplicialComplex) -> str:
    """complex.v1: one nonempty simplex per line, its vertices sorted, in
    canonical order (by dimension, then sorted vertex list).  A family.v1
    member lists a simplex by its place in that order (``simplex_ids``
    less one, as the empty simplex, id 0, is not listed), whatever the
    order of the lines of its complex block."""
    out = ["complex v1"]
    out.extend(" ".join(map(str, t)) for t in K.ordered_tuples()[1:])
    return "\n".join(out) + "\n"


def parse_complex(text: str, path: str = "<string>") -> SimplicialComplex:
    it = _lines(text)
    try:
        lineno, header = next(it)
    except StopIteration:
        raise ParseError(path, 1, "empty file, expected 'complex v1' header")
    if header != "complex v1":
        raise ParseError(path, lineno, f"expected 'complex v1' header, got {header!r}")
    return _complex_lines(it, path)


def _complex_lines(lines, path: str) -> SimplicialComplex:
    """The complex whose simplices are the numbered lines (after the
    header): a vertex repeated within a line, or a simplex repeated on a
    second line, or a simplex missing a face, is refused, citing the line
    (and the first one)."""
    first: dict[frozenset, int] = {}
    for lineno, line in lines:
        verts = _ints(line, path, lineno, "vertex ids must be integers")
        s = frozenset(verts)
        if len(s) != len(verts):
            raise ParseError(path, lineno, f"repeated vertex in simplex {line!r}")
        if s in first:
            raise ParseError(path, lineno, f"simplex {line!r} repeats "
                                           f"line {first[s]}")
        first[s] = lineno
    try:
        return SimplicialComplex(first, closed=True)
    except PosetError as e:
        raise ParseError(path, first[e.at], str(e))


# -- family.v1 --------------------------------------------------------------


def _fmt_rational(x: int, scale: int) -> str:
    """The grid endpoint x, over scale, as a reduced 'p/q'."""
    g = gcd(x, scale)
    return f"{x // g}/{scale // g}"


def _parse_rational(tok: str, path: str, lineno: int) -> tuple[int, int]:
    """The rational tok, 'p/q' or 'p', as (p, q) with q > 0: an empty side
    ('1/') or a second '/' ('1/2/3') is refused, as no integer."""
    num, slash, den = tok.partition("/")
    message = f"expected rational p/q, got {tok!r}"
    num_i, den_i = (_ints(num, path, lineno, message)
                    + _ints(den if slash else "1", path, lineno, message))
    if den_i <= 0:
        raise ParseError(path, lineno, f"rational {tok!r} has non-positive denominator")
    return num_i, den_i


def write_family(F: SetFamily) -> str:
    if F.backend == "subcomplex":
        out = [f"family v1 subcomplex {F.ambient.dim}"]
        if F.gamma_dim_assumed:
            out.append(f"gamma-dim {F.gamma_dim}")
        out.append(write_complex(F.ambient).rstrip("\n"))
        out.append("end complex")
        for m in F.members:
            out.append("member" + "".join(f" {i - 1}" for i in _bit_ids(m.mask)))
        return "\n".join(out) + "\n"
    out = [f"family v1 box {F.ambient}"]
    if F.gamma_dim_assumed:
        out.append(f"gamma-dim {F.gamma_dim}")
    for m in F.members:
        out.append("member")
        for b in m.grid:
            out.append("box " + " ".join(_fmt_rational(x, F.scale)
                                         for iv in b for x in iv))
    return "\n".join(out) + "\n"


def parse_family(text: str, path: str = "<string>",
                 gamma_dim_override: int | None = None) -> SetFamily:
    lines = list(_lines(text))
    if not lines:
        raise ParseError(path, 1, "empty file, expected 'family v1 ...' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "family" or parts[1] != "v1":
        raise ParseError(path, lineno, "expected 'family v1 <backend> <ambient>' header")
    backend = parts[2]
    if backend not in ("subcomplex", "box"):
        raise ParseError(path, lineno, f"unknown backend {parts[2]!r}")
    [ambient] = _ints(parts[3], path, lineno,
                      "ambient descriptor must be an integer")
    if backend == "box" and ambient < 1:
        raise ParseError(path, lineno, f"box ambient dimension must be >= 1, got {ambient}")

    pos = 1
    gamma_dim = None
    if pos < len(lines) and lines[pos][1].split()[0] == "gamma-dim":
        lineno, line = lines[pos]
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(path, lineno, "expected 'gamma-dim <int>'")
        [gamma_dim] = _ints(toks[1], path, lineno,
                            "gamma-dim must be an integer")
        if gamma_dim < 0:
            raise ParseError(path, lineno, f"gamma-dim must be >= 0, got {gamma_dim}")
        pos += 1
    if gamma_dim_override is not None:
        gamma_dim = gamma_dim_override

    if backend == "box":
        members: list[list[tuple]] = []
        for lineno, line in lines[pos:]:
            toks = line.split()
            if toks[0] == "member":
                if len(toks) != 1:
                    raise ParseError(path, lineno, "box members start with a bare 'member' line")
                members.append([])
            elif toks[0] == "box":
                if not members:
                    raise ParseError(path, lineno, "'box' line before any 'member'")
                vals = [_parse_rational(t, path, lineno) for t in toks[1:]]
                if len(vals) != 2 * ambient:
                    raise ParseError(path, lineno,
                                     f"expected {2 * ambient} rationals for a "
                                     f"{ambient}-dimensional box")
                b = tuple(zip(vals[::2], vals[1::2]))
                for (p, q), (r, s) in b:
                    if not p * s < r * q:
                        raise ParseError(path, lineno, _bad_interval(
                            Fraction(p, q), Fraction(r, s)))
                members[-1].append(b)
            else:
                raise ParseError(path, lineno, f"expected 'member' or 'box', got {toks[0]!r}")
        return _rational_family(ambient, members, gamma_dim)

    # subcomplex backend: embedded complex block, then member id lists
    if pos >= len(lines) or lines[pos][1] != "complex v1":
        raise ParseError(path, lines[pos][0] if pos < len(lines) else lineno,
                         "expected embedded 'complex v1' block")
    start = pos = pos + 1
    while pos < len(lines) and lines[pos][1] != "end complex":
        pos += 1
    if pos >= len(lines):
        raise ParseError(path, lines[-1][0], "missing 'end complex'")
    T = _complex_lines(lines[start:pos], path)
    if T.dim != ambient:
        raise ParseError(path, lines[pos][0],
                         f"triangulation dimension {T.dim} != declared {ambient}")
    pos += 1
    # member ids count T's nonempty simplices in canonical order
    n_ids = len(T.ordered_simplices()) - 1
    members = []
    for lineno, line in lines[pos:]:
        toks = line.split()
        if toks[0] != "member":
            raise ParseError(path, lineno, f"expected 'member', got {toks[0]!r}")
        sids = _ints(line[len("member"):], path, lineno,
                     "simplex ids must be integers") if toks[1:] else []
        for sid in sids:
            if not 0 <= sid < n_ids:
                raise ParseError(path, lineno, f"unknown simplex id {sid}")
        members.append((lineno, [sid + 1 for sid in sids]))
    try:
        return _id_family(T, (ids for _, ids in members), gamma_dim)
    except FamilyError as e:
        raise ParseError(path, members[e.at][0], str(e))


# -- betti.v1 ---------------------------------------------------------------


def write_betti(b: BettiVector) -> str:
    return "".join(f"{d} {v}\n" for d, v in b.items())


def parse_betti(text: str, path: str = "<string>") -> BettiVector:
    """A reduced Betti vector, one '<dim> <value>' line per dimension: a
    dimension below -1, a negative value or a dimension given on a second
    line is refused, citing the line (and the first one)."""
    entries, first = {}, {}
    for lineno, line in _lines(text):
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(path, lineno, "expected '<dim> <value>'")
        d, v = _ints(line, path, lineno, "dimensions and values must be integers")
        if d < -1:
            raise ParseError(path, lineno, f"dimension must be >= -1, got {d}")
        if v < 0:
            raise ParseError(path, lineno, f"Betti number must be >= 0, got {v}")
        if d in first:
            raise ParseError(path, lineno, f"dimension {d} repeats line {first[d]}")
        entries[d], first[d] = v, lineno
    return BettiVector.from_dict(entries)


# -- header dispatch --------------------------------------------------------


def load_text(text: str, path: str = "<string>"):
    """Parse by declared header: poset, complex, or family."""
    for _, line in _lines(text):
        first = line
        break
    else:
        raise ParseError(path, 1, "empty file")
    if first == "poset v1":
        return parse_poset(text, path)
    if first == "complex v1":
        return parse_complex(text, path)
    if first.startswith("family v1"):
        return parse_family(text, path)
    raise ParseError(path, 1, f"unrecognized header {first!r} "
                              "(expected poset/complex/family v1)")


def load_path(path) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        return load_text(fh.read(), str(path))
