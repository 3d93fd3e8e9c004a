"""Exact reduced simplicial homology over the rationals.

Boundary matrices carry integer entries (always -1/0/+1 at construction);
the ranks of d_0 and d_1 are read off them (``ChainComplex.rank_boundary``)
and the others come from fraction-free integer elimination, so every Betti
number is exact; ranks are taken top down, each skipping the rows the one
above has cleared.  The (-1)-dimensional cell doubles as the augmentation,
which makes reduced homology the uniform default: the empty space has
Betti vector {-1: 1} and nothing else.

Every chain complex is selected from a ``Boundary``, which says why its
rows are checked for d o d = 0 only once and why a row gives a dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Union

from .poset import SimplicialComplex, SimplicialPoset

SparseRow = dict[int, int]


def sparse_rank(rows: Iterable[SparseRow],
                pivots: dict[int, SparseRow] | None = None) -> int:
    """Rank over Q of an integer matrix given as sparse rows (column ->
    entry; a zero entry counts as absent).  A caller that passes an empty
    dict as ``pivots`` gets the kept rows in it, keyed by largest column.

    Each row is reduced against pivots keyed by their largest column (the
    column algorithm of persistent homology, Zomorodian-Carlsson 2005): while
    the row is nonzero and its largest column c holds a pivot p, the row
    becomes p[c]*row - row[c]*p (row - p[c]*row[c]*p when p[c] is +1 or -1,
    the same up to sign), divided by the gcd of its entries, so its largest
    column falls below c; a row whose largest column has no pivot becomes
    that column's pivot.  The kept rows have distinct largest columns, so
    they are independent, and every other row reduced to zero within their
    span: the rank is the number of pivots whatever the row order, and so
    is every Betti number, bound and witness built on it.  A row whose
    largest column holds a zero drops its zeros; a zero in any other column
    adds nothing to a reduction.  Input rows are never written to.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        while row:
            c = max(row)
            b = row[c]
            if not b:
                row = {j: v for j, v in row.items() if v}
                continue
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            a = piv[c]
            if a == 1 or a == -1:
                new, b = dict(row), a * b
            else:
                new = {j: a * v for j, v in row.items()}
            for j, v in piv.items():
                val = new.get(j, 0) - b * v
                if val:
                    new[j] = val
                else:
                    new.pop(j, None)
            g = gcd(*new.values())
            row = {j: v // g for j, v in new.items()} if g > 1 else new
    return len(pivots)


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers, indexed from dimension -1 upward.

    Only nonzero entries are stored; lookups outside the support return 0.
    """

    entries: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "BettiVector":
        return BettiVector(tuple(sorted((k, v) for k, v in d.items() if v)))

    @staticmethod
    def from_ranks(sizes: Mapping[int, int],
                   ranks: Mapping[int, int]) -> "BettiVector":
        """b_n = sizes[n] - rank d_n - rank d_{n+1}, from the cell count of
        each dimension that has cells and the rank of each d_n
        (``ranks[n]``, 0 when absent)."""
        return BettiVector.from_dict({n: size - ranks.get(n, 0)
                                      - ranks.get(n + 1, 0)
                                      for n, size in sizes.items()})

    def __getitem__(self, dim: int) -> int:
        for k, v in self.entries:
            if k == dim:
                return v
        return 0

    def items(self) -> tuple[tuple[int, int], ...]:
        return self.entries

    @property
    def is_trivial(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:
        return f"BettiVector({dict(self.entries)})"


Space = Union[SimplicialPoset, SimplicialComplex]


class ChainComplex:
    """Augmented rational chain complex on rows of a ``Boundary``, as
    ``select`` builds it: ``boundary[n]`` maps each n-cell id to its signed
    row in C_{n-1}; dimension -1 holds the augmentation, whose row is
    empty.  ``cleared`` maps each n >= 3 whose rank was taken to the
    pivots of d_n, and stays None until one is."""

    __slots__ = ("sizes", "boundary", "cleared")

    def __init__(self, boundary: dict[int, dict[int, SparseRow]]):
        self.boundary = boundary
        self.sizes = {d: len(rows) for d, rows in boundary.items()}
        self.cleared: dict[int, dict[int, SparseRow]] | None = None

    def size(self, n: int) -> int:
        return self.sizes.get(n, 0)

    def rank_boundary(self, n: int) -> int:
        """Rank of d_n, by elimination only for n >= 2.

        ``select`` files a cell by its row length, and the one (-1)-cell,
        the augmentation, has the empty row: each 0-cell's row is one +-1
        entry in its column, so rank d_0 = 1 when there is a 0-cell.  A
        1-cell's row has +-1 entries a, b on distinct 0-cells u, v, and
        d o d = 0 (checked by ``Boundary``) gives a s_u + b s_v = 0, s_u and
        s_v the entries of u's and v's rows.  Scaling each 0-cell's column
        by its s makes d_1 the incidence matrix, up to row signs, of the
        graph of 0- and 1-cells, of rank #0-cells - #components: one per
        union that joins two components.  This holds for every boundary
        built here: X[S], spaces and ``families._region_ranks``'s regions.

        Once rank d_{n+1} is taken, d_n skips the rows of the n-cells that
        key its pivots (clearing, Chen-Kerber 2011), so ranks taken top
        down eliminate less.  A pivot r keyed by cell c is a combination of
        d_{n+1}'s rows, so d_n r = 0 by d o d = 0 (checked by ``Boundary``):
        sum_e r_e row_e = 0 over the n-cells e <= c in r, r_c nonzero, so
        c's row in d_n lies in the span of the rows of lower n-cells.  By
        induction on the id, the rows kept span all of d_n's rows.
        """
        rows = self.boundary.get(n)
        if not rows:
            return 0
        if n == 0:
            return 1
        if n == 1:
            root, joins = {v: v for v in self.boundary[0]}, 0
            for u, v in rows.values():
                while root[u] != u:
                    root[u] = u = root[root[u]]  # path halving
                while root[v] != v:
                    root[v] = v = root[root[v]]
                if u != v:
                    root[v], joins = u, joins + 1
            return joins
        done = self.cleared and self.cleared.get(n + 1)
        rows = ([row for c, row in rows.items() if c not in done] if done
                else rows.values())
        if n < 3:
            return sparse_rank(rows)
        if self.cleared is None:
            self.cleared = {}
        pivots = self.cleared[n] = {}
        return sparse_rank(rows, pivots)

    @property
    def top(self) -> int:
        return max(self.sizes)


class Boundary:
    """Signed rows keyed by cell id, checked for d o d = 0, that chain
    complexes are selected from.

    A row maps each face's cell id to +1 or -1, so a cell set closed
    downward takes its rows whole, and with them d o d = 0; and ranks do
    not depend on how cells are numbered (see ``sparse_rank``), so neither
    do Betti vectors.  ``select`` files each cell under dimension
    ``len(row) - 1``, its dimension in every boundary built here: a
    simplicial n-cell has n + 1 distinct faces, and the augmentation none.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: dict[int, SparseRow]):
        for c, row in rows.items():
            acc: SparseRow = {}
            for f, a in row.items():
                for g, b in rows[f].items():
                    acc[g] = acc.get(g, 0) + a * b
            if any(acc.values()):
                raise AssertionError(f"boundary of boundary nonzero at cell {c}")
        self.rows = rows

    @classmethod
    def of_faces(cls, faces) -> "Boundary":
        """The boundary of the cells whose face ids are given in order."""
        return cls(_signed_rows(faces))

    def select(self, cells: Iterable[int]) -> ChainComplex:
        """The chain complex of ``cells``, a set closed downward here."""
        rows = self.rows
        boundary: dict[int, dict[int, SparseRow]] = {}
        for c in cells:
            row = rows[c]
            boundary.setdefault(len(row) - 1, {})[c] = row
        return ChainComplex(boundary)


def chain_complex(X: Space) -> ChainComplex:
    """Chain complex with bases the cells per dimension and d = sum (-1)^i d_i,
    checked for d o d = 0; a complex's simplices are numbered by
    ``SimplicialComplex.numbering``, the cell ids of its face poset."""
    if isinstance(X, SimplicialComplex):
        faces = X.numbering()[1]
    elif isinstance(X, SimplicialPoset):
        faces = X._faces
    else:
        raise TypeError(f"expected a poset or complex, got {type(X).__name__}")
    boundary = Boundary.of_faces(faces)
    return boundary.select(boundary.rows)


def _signed_rows(faces) -> dict[int, SparseRow]:
    """The boundary row of each cell, given its face ids in order: face i
    enters as (-1)^i.  The faces of a cell are distinct, so no two of them
    share an entry."""
    rows: dict[int, SparseRow] = {}
    for c, fs in enumerate(faces):
        row = rows[c] = {}
        sign = 1
        for f in fs:
            row[f] = sign
            sign = -sign
    return rows


def reduced_betti(X: Space | ChainComplex) -> BettiVector:
    """Exact reduced Betti numbers over Q, the ranks taken top down so that
    each clears the next (see ``ChainComplex.rank_boundary``)."""
    cc = X if isinstance(X, ChainComplex) else chain_complex(X)
    return BettiVector.from_ranks(cc.sizes, {n: cc.rank_boundary(n)
                                             for n in range(cc.top, -1, -1)})


def top_nonzero_betti(X: Space | ChainComplex, floor: int = 0) -> int | None:
    """Largest n >= floor with nonzero reduced Betti number, scanning downward.

    Computes boundary ranks lazily from the top dimension, each clearing
    the next (see ``ChainComplex.rank_boundary``), so callers that only
    need "is anything alive at or above floor" pay for few eliminations.
    """
    cc = X if isinstance(X, ChainComplex) else chain_complex(X)
    ranks: dict[int, int] = {}

    def rank(n: int) -> int:
        if n not in ranks:
            ranks[n] = cc.rank_boundary(n) if 0 <= n <= cc.top else 0
        return ranks[n]

    for n in range(cc.top, floor - 1, -1):
        if cc.size(n) - rank(n + 1) - rank(n):
            return n
    return None


def euler_characteristic(X: Space) -> int:
    """Alternating sum of cell counts in dimensions >= 0."""
    cc = chain_complex(X)
    return sum((-1) ** n * cc.size(n) for n in range(0, cc.top + 1))

