"""Simplicial posets and simplicial complexes.

A simplicial poset is stored as a flat list of cells.  Each cell knows its
dimension and an ordered tuple of faces (the indexed face operators); the
unique (-1)-dimensional cell is the least element.  Vertex sets do not
determine cells here, which is precisely what separates a simplicial poset
from a simplicial complex, so faces are kept as explicit id sequences.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

CellId = int


class PosetError(ValueError):
    """Raised when cell data violates a simplicial-poset invariant; ``at`` is
    the simplex (or, from ``build_poset``, the cell id) at fault, when there
    is one."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


@dataclass(frozen=True)
class CellRecord:
    """Raw input for one cell: its dimension and ordered face ids."""

    dim: int
    faces: tuple[CellId, ...]


def _as_records(records: Iterable) -> list[CellRecord]:
    out = []
    for rec in records:
        if isinstance(rec, CellRecord):
            out.append(rec)
        else:
            dim, faces = rec
            out.append(CellRecord(int(dim), tuple(int(f) for f in faces)))
    return out


def _bits(m: int):
    """The set bits of m, lowest first, each as an int."""
    while m:
        b = m & -m
        yield b
        m ^= b


def _bit_ids(m: int):
    """The positions of the set bits of m, lowest first."""
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


class SimplicialPoset:
    """A validated finite simplicial poset with least element.

    Immutable after construction; build instances through :func:`build_poset`.
    A cell's vertex set is kept as an int mask (``_verts``): bit k is the
    k-th vertex of ``vertex_order``, the 0-cells in id order.
    """

    __slots__ = ("_dims", "_faces", "_verts", "least", "_by_dim")

    def __init__(self, dims, faces, verts, least):
        self._dims: tuple[int, ...] = dims
        self._faces: tuple[tuple[CellId, ...], ...] = faces
        self._verts: tuple[int, ...] = verts
        self.least: CellId = least
        by_dim: dict[int, list[CellId]] = {}
        for c, d in enumerate(dims):
            by_dim.setdefault(d, []).append(c)
        self._by_dim = {d: tuple(cs) for d, cs in by_dim.items()}

    # -- basic queries ----------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self._dims)

    @property
    def dim(self) -> int:
        """Largest cell dimension; -1 when only the least element exists."""
        return max(self._dims)

    def cells(self) -> range:
        return range(self.n_cells)

    def dim_of(self, c: CellId) -> int:
        self._check_cell(c)
        return self._dims[c]

    def faces_of(self, c: CellId) -> tuple[CellId, ...]:
        self._check_cell(c)
        return self._faces[c]

    def vertices_of(self, c: CellId) -> frozenset:
        self._check_cell(c)
        order = self.vertex_order
        return frozenset(map(order.__getitem__, _bit_ids(self._verts[c])))

    @property
    def vertex_order(self) -> tuple[CellId, ...]:
        """The 0-cells in id order: the k-th has bit k in a vertex mask."""
        return self._by_dim.get(0, ())

    @property
    def vertices(self) -> tuple[CellId, ...]:
        return self.vertex_order

    def cells_of_dim(self, d: int) -> tuple[CellId, ...]:
        return self._by_dim.get(d, ())

    def _check_cell(self, c: CellId) -> None:
        if not (isinstance(c, int) and 0 <= c < self.n_cells):
            raise PosetError(f"unknown cell id {c!r}")

    # -- order structure --------------------------------------------------

    def leq(self, a: CellId, b: CellId) -> bool:
        """a <= b: vert a is a subset of vert b, and dropping b's other
        vertices one face at a time, face k dropping the k-th, lands on a.
        b's lower interval is Boolean (see ``build_poset``), so its one cell
        on vert a is that walk's end, whichever order the vertices go in."""
        self._check_cell(a)
        self._check_cell(b)
        return self._below(a, b)

    def _below(self, a: CellId, b: CellId) -> bool:
        """``leq`` on checked ids."""
        verts, faces = self._verts, self._faces
        if verts[a] & ~verts[b]:
            return False
        for v in _bits(verts[b] & ~verts[a]):
            b = faces[b][(verts[b] & (v - 1)).bit_count()]
        return b == a

    # -- derived posets ---------------------------------------------------

    def induced_with_map(self, S: Iterable[CellId]) -> tuple["SimplicialPoset", tuple[CellId, ...]]:
        """Induced subposet together with the original id of each new cell."""
        S = frozenset(S)
        V = self.vertex_order
        unknown = S - set(V)
        if unknown:
            raise PosetError(f"unknown vertices {sorted(unknown)!r}")
        if len(S) == len(V):
            return self, tuple(self.cells())
        # the kept vertices' bits, and each one's bit in the subposet
        kept = [1 << k for k, v in enumerate(V) if v in S]
        outside = ~sum(kept)
        new_bit = {b: 1 << j for j, b in enumerate(kept)}
        keep = [c for c, m in enumerate(self._verts) if not m & outside]
        new_id = {c: i for i, c in enumerate(keep)}
        dims = tuple(self._dims[c] for c in keep)
        faces = tuple(tuple(new_id[f] for f in self._faces[c]) for c in keep)
        verts = tuple(sum(map(new_bit.__getitem__, _bits(self._verts[c])))
                      for c in keep)
        sub = SimplicialPoset(dims, faces, verts, new_id[self.least])
        return sub, tuple(keep)

    def export_records(self) -> list[CellRecord]:
        return [CellRecord(self._dims[c], self._faces[c]) for c in self.cells()]


def build_poset(cell_records: Iterable) -> SimplicialPoset:
    """Validate raw cell records and assemble a simplicial poset.

    Records are positional: cell i may only reference faces with id < i.  The
    unique (-1)-cell must be declared explicitly unless the record list is
    empty, in which case the least-only poset (the empty space) is returned.

    The checks are: face dimensions, n + 1 distinct vertices per n-cell,
    face k drops the k-th vertex, and the simplicial identities
    d_a d_b = d_{b-1} d_a for a < b.  Together they make every lower
    segment Boolean, one cell per vertex subset, so that is not checked
    apart.  By induction on the dimension of a cell c with vertices
    v_0 < ... < v_n in the vertex order: a cell strictly below c lies below
    some face f_k, whose vertex set is vert c - v_k, so c is the one cell
    below c on vert c.  A proper subset U of vert c misses some v_k, and
    f_k has a cell on U below it, by induction.  Cells on U below f_a and
    below f_b (a < b) are both the one cell on U below their shared face
    d_a f_b = d_{b-1} f_a, whose vertex set vert c - {v_a, v_b} holds U:
    by induction f_a has one cell on U below it, and the one below
    d_{b-1} f_a is such a cell; likewise for f_b.

    Vertex sets are int masks: the k-th 0-cell has bit k, a cell's mask is
    the union (``|``) of its faces' masks, and its distinct vertices are
    the mask's ``bit_count``.  The vertex order is the 0-cells in id order,
    so a mask's k-th lowest set bit is the cell's k-th vertex, which face k
    must drop.  These are the masks ``SimplicialPoset._verts`` keeps.
    """
    records = _as_records(cell_records)
    if not records:
        records = [CellRecord(-1, ())]

    least_ids = [i for i, r in enumerate(records) if r.dim == -1]
    if not least_ids:
        raise PosetError("missing least element: no (-1)-dimensional cell declared")
    if len(least_ids) > 1:
        raise PosetError(f"cell {least_ids[1]}: second (-1)-dimensional cell, "
                         "least element must be unique", least_ids[1])
    least = least_ids[0]

    dims, faces, masks, n_vertices = [], [], [], 0
    for i, rec in enumerate(records):
        if rec.dim < -1:
            raise PosetError(f"cell {i}: dimension {rec.dim} below -1", i)
        if len(rec.faces) != rec.dim + 1:
            raise PosetError(f"cell {i}: expected {rec.dim + 1} faces, "
                             f"got {len(rec.faces)}", i)
        for f in rec.faces:
            if not 0 <= f < i:
                raise PosetError(f"cell {i}: dangling face reference {f}", i)
            if dims[f] != rec.dim - 1:
                raise PosetError(f"cell {i}: face {f} has dimension {dims[f]}, "
                                 f"expected {rec.dim - 1}", i)
        dims.append(rec.dim)
        faces.append(rec.faces)
        if rec.dim == -1:
            masks.append(0)
        elif rec.dim == 0:
            masks.append(1 << n_vertices)
            n_vertices += 1
        else:
            m = 0
            for f in rec.faces:
                m |= masks[f]
            n = m.bit_count()
            if n != rec.dim + 1:
                raise PosetError(f"cell {i}: repeated vertex "
                                 f"(has {n} distinct vertices, "
                                 f"needs {rec.dim + 1})", i)
            masks.append(m)

    # face k of a cell drops the k-th smallest vertex: its lowest set bit
    # once the k lower ones are peeled off
    for i, rec in enumerate(records):
        if rec.dim < 1:
            continue
        rest = m = masks[i]
        for k, f in enumerate(rec.faces):
            low = rest & -rest
            if masks[f] != m ^ low:
                raise PosetError(f"cell {i}: face {k} drops the wrong vertex "
                                 "(face order inconsistent with vertex order)", i)
            rest ^= low

    # simplicial identity d_i d_j = d_{j-1} d_i for i < j
    for i, rec in enumerate(records):
        if rec.dim < 2:
            continue
        for a, b in combinations(range(rec.dim + 1), 2):
            if faces[faces[i][b]][a] != faces[faces[i][a]][b - 1]:
                raise PosetError(f"cell {i}: simplicial identity violated "
                                 f"at faces ({a}, {b})", i)

    return SimplicialPoset(tuple(dims), tuple(faces), tuple(masks), least)


# ---------------------------------------------------------------------------
# simplicial complexes


class SimplicialComplex:
    """A finite simplicial complex: subsets of a vertex set, closed downward.

    The empty simplex is always a member.  Vertex labels must be mutually
    orderable (ints, strings, tuples of one kind).

    The complex is numbered once, when it is built, and the numbering is
    kept, as the complex does not change: the simplices in canonical order
    (by dimension, then sorted vertex tuple), each one's id (its place in
    that order; the empty simplex is id 0), its face ids (face i drops the
    i-th smallest vertex) and its sorted vertex tuple.  The face poset, the
    chain complex, the formats and the family oracle all read it.
    """

    __slots__ = ("simplices", "vertices", "_order", "_tuples", "_ids",
                 "_faces", "_stars", "_masks")

    def __init__(self, simplices: Iterable[Iterable] = (), *, closed: bool = False):
        sims = {frozenset(s) for s in simplices}
        sims.add(frozenset())
        if not closed:
            sims = {frozenset(c) for s in sims for k in range(len(s) + 1)
                    for c in combinations(s, k)}
        self._number(sims)
        self.simplices: frozenset = frozenset(self._order)
        self.vertices: tuple = tuple(t[0] for t in self._tuples if len(t) == 1)
        self._stars: dict | None = None

    def _number(self, sims: set[frozenset]) -> None:
        """Number the simplices ``sims`` into the kept slots.  Faces precede
        their cofaces in canonical order, so each face id is looked up among
        the simplices already numbered, and a failed lookup is a missing face:
        the first simplex in canonical order that lacks one is reported."""
        keyed = sorted((len(s), tuple(sorted(s)), s) for s in sims)
        tid: dict[tuple, int] = {}
        faces = []
        for i, (_, t, s) in enumerate(keyed):
            try:
                faces.append(tuple([tid[t[:k] + t[k + 1:]]
                                    for k in range(len(t))]))
            except KeyError:
                raise PosetError(f"complex not closed downward: missing face "
                                 f"of {list(t)!r}", s) from None
            tid[t] = i
        runs = [bisect_left(keyed, (k,)) for k in range(len(t) + 2)]
        self._masks = tuple((1 << b) - (1 << a) for a, b in zip(runs, runs[1:]))
        self._tuples = tuple(tid)
        self._order = tuple(s for _, _, s in keyed)
        self._ids = {s: i for i, s in enumerate(self._order)}
        self._faces = tuple(faces)

    def __contains__(self, s) -> bool:
        return frozenset(s) in self.simplices

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, dim {self.dim})"

    @property
    def dim(self) -> int:
        """Largest simplex dimension: that of the last simplex."""
        return len(self._tuples[-1]) - 1

    def ordered_simplices(self) -> tuple[frozenset, ...]:
        """Every simplex, in canonical order: by dimension and then sorted
        vertex tuple."""
        return self._order

    def ordered_tuples(self) -> tuple[tuple, ...]:
        """Each simplex's sorted vertex tuple, in canonical order."""
        return self._tuples

    def simplex_ids(self) -> dict[frozenset, int]:
        """Each simplex's id, its place in ``ordered_simplices``: the cell
        ids of ``as_poset()``.  family.v1 lists a nonempty simplex under
        its id less one.  The dict is the kept one: read it, do not change
        it."""
        return self._ids

    def numbering(self) -> tuple[dict[frozenset, int], tuple[tuple[int, ...], ...]]:
        """``simplex_ids`` and the face ids of each simplex, face i dropping
        the i-th smallest vertex: the cells of ``as_poset()``."""
        return self._ids, self._faces

    def dim_mask(self, n: int) -> int:
        """The ids of the n-simplices, as a mask: bit i for id i."""
        return self._masks[n + 1] if 0 <= n + 1 < len(self._masks) else 0

    def vertex_star(self, v) -> list[tuple[int, int]]:
        """For each simplex holding the vertex v, its id and the id of its
        face that drops v, read from a table of every vertex's, built on
        first use and kept."""
        if self._stars is None:
            stars: dict = {}
            for i, (t, fs) in enumerate(zip(self._tuples, self._faces)):
                for u, f in zip(t, fs):
                    stars.setdefault(u, []).append((i, f))
            self._stars = stars
        return self._stars.get(v, [])

    def as_poset(self) -> SimplicialPoset:
        """Face poset of the complex; cell ids follow ``numbering``."""
        return build_poset(CellRecord(len(fs) - 1, fs) for fs in self._faces)


def order_complex(elements: Iterable, leq: Callable[[object, object], bool]) -> SimplicialComplex:
    """Order complex of a finite poset: simplices are the chains.

    ``leq`` must be a partial order on the given elements; elements must be
    hashable and mutually orderable (they become vertex labels).
    """
    elems = sorted(set(elements))
    above = {e: [f for f in elems if f != e and leq(e, f)] for e in elems}
    chains: list[tuple] = []

    def extend(chain: list) -> None:
        chains.append(tuple(chain))
        for f in above[chain[-1]]:
            chain.append(f)
            extend(chain)
            chain.pop()

    # every chain is enumerated exactly once, starting from its minimum; a
    # chain's subsets are chains, so they are listed too: the set is closed
    for e in elems:
        extend([e])
    return SimplicialComplex((frozenset(c) for c in chains), closed=True)


def barycentric_subdivision(X: SimplicialPoset) -> SimplicialComplex:
    """Order complex of X minus its least element."""
    elems = [c for c in X.cells() if c != X.least]
    return order_complex(elems, X.leq)

