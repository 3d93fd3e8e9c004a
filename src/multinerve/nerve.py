"""Nerve, multinerve, reduced multinerve, and the projections between them.

The multinerve M has one cell per connected component of each intersecting
subfamily, and is the one poset built from the family.  The reduced
multinerve R_t and the nerve's face poset are quotients of M's tags: R_t
merges the cells over each index set of size <= t - 1, which is what the
projection bound machinery needs, and the nerve merges them over every index
set, so the projection onto the nerve forgets the component.  The convention
for the empty index set is that it intersects in the whole union, so the
least element is the single cell labeled by the union even when the union is
disconnected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import ComponentLabel, SetFamily, _groups, _nerve_walk
from .poset import CellRecord, SimplicialComplex, SimplicialPoset, build_poset


@dataclass(frozen=True)
class CellTag:
    """Label of a multinerve cell: member subset A plus component (or None).

    The least element carries A = () and component None (its label is the
    whole union).  In a reduced multinerve, merged cells also carry None.
    """

    subset: tuple[int, ...]
    component: ComponentLabel | None

    def sort_key(self):
        ckey = (0, ()) if self.component is None else (1, (self.component.canon,))
        return (len(self.subset), self.subset, ckey)


class LabeledPoset:
    """A simplicial poset whose cells carry multinerve labels."""

    def __init__(self, poset: SimplicialPoset, tags: tuple[CellTag, ...]):
        self.poset = poset
        self.tags = tags


def nerve(F: SetFamily) -> SimplicialComplex:
    """Nerve of the family: one simplex per intersecting subfamily (the walk
    yields them all, a set closed downward)."""
    return SimplicialComplex((A for A, hit in _nerve_walk(F) if hit),
                             closed=True)


def multinerve(F: SetFamily) -> LabeledPoset:
    """Multinerve of the family as a validated labeled simplicial poset.

    Cells are numbered as the walk yields index sets, in (size, lex) order,
    each set's components sorted by canon: ``CellTag.sort_key`` order.  Face
    i of a cell over A is B = A - A[i]'s cell of the component holding its
    rep: ``base`` keys B by its mask of member indices, A's with bit A[i]
    cleared, and holds B's first cell and its region's owner (see
    ``families._groups``), read once per index set.  The empty index set's
    one cell is the least cell, 0.
    """
    tags = [CellTag((), None)]
    records = [CellRecord(-1, ())]
    base = {0: (0, lambda rep: 0)}
    for A, hit in _nerve_walk(F):
        if not hit:
            continue
        mask = sum(map((1).__lshift__, A))
        below = [base[mask ^ 1 << a] for a in A]
        labels, owner = _groups(F, A)
        base[mask] = len(tags), owner
        for comp in labels:
            tags.append(CellTag(A, comp))
            records.append(CellRecord(len(A) - 1, tuple(
                b + index(comp.at) for b, index in below)))
    return LabeledPoset(build_poset(records), tuple(tags))


def _quotient(M: LabeledPoset, t: int | None) -> tuple[LabeledPoset, tuple[int, ...]]:
    """Merge the cells of M over each index set A with |A| <= t - 1 (over
    every A when t is None), with the cell map from M.

    Merged cells take the tag (A, None).  A merged cell's faces are the
    images of the faces of any of its preimages: those lie over smaller
    index sets, so they are merged too and every preimage gives the same.
    M's tags are in sort order, so the cells over one A are consecutive and
    the quotient's cells, numbered in M's order, are in sort order too.
    """
    tags, mapping, records = [], [], []
    for c, tag in enumerate(M.tags):
        A = tag.subset
        if t is None or len(A) <= t - 1:
            if tags and tags[-1].subset == A:
                mapping.append(len(tags) - 1)
                continue
            tag = CellTag(A, None)
        mapping.append(len(tags))
        tags.append(tag)
        records.append(CellRecord(len(A) - 1, tuple(
            mapping[f] for f in M.poset.faces_of(c))))
    return LabeledPoset(build_poset(records), tuple(tags)), tuple(mapping)


@dataclass
class MonotoneMap:
    """A total cell map between posets with verified structural flags.

    Flags are computed, never asserted; each failure records a witness.
    """

    source: SimplicialPoset
    target: SimplicialPoset
    mapping: tuple[int, ...]
    monotone: bool
    dimension_preserving: bool
    max_fiber: int
    witnesses: dict

    def bijective_on_dims_at_least(self, k: int) -> bool:
        """Bijection between source and target cells of dimension >= k."""
        src = [c for c in self.source.cells() if self.source.dim_of(c) >= k]
        tgt = {c for c in self.target.cells() if self.target.dim_of(c) >= k}
        image = [self.mapping[c] for c in src]
        return len(set(image)) == len(src) and set(image) == tgt


def validate_map(mapping, X: SimplicialPoset, Y: SimplicialPoset) -> MonotoneMap:
    """Exhaustively verify a cell map and report its flags with witnesses.

    The map is monotone when each face f of each cell c has
    mapping[f] <= mapping[c] (then every a <= b has, by transitivity),
    decided by ``SimplicialPoset.leq``'s walk on Y's vertex masks; the
    first such (f, c) that fails is the witness."""
    if isinstance(mapping, dict):
        mapping = tuple(mapping[c] for c in X.cells())
    else:
        mapping = tuple(mapping)
    if len(mapping) != X.n_cells:
        raise ValueError("mapping must cover every source cell")
    for y in mapping:
        Y._check_cell(y)

    # every id is checked above, so the tables are read directly
    ydims, below = Y._dims, Y._below
    witnesses: dict = {}
    monotone = True
    for c, fs in enumerate(X._faces):
        for f in fs:
            if not below(mapping[f], mapping[c]):
                monotone = False
                witnesses.setdefault("monotone", (f, c))
    dim_pres = True
    for c, d in enumerate(X._dims):
        if ydims[mapping[c]] != d:
            dim_pres = False
            witnesses.setdefault("dimension_preserving", c)
            break

    fibers: dict[int, int] = {}
    for y in mapping:
        fibers[y] = fibers.get(y, 0) + 1
    max_fiber = max(fibers.values()) if fibers else 0
    return MonotoneMap(X, Y, mapping, monotone, dim_pres, max_fiber,
                       witnesses)


def canonical_projection(M: LabeledPoset) -> MonotoneMap:
    """Projection of a (reduced) multinerve onto its nerve, with flags.

    The target poset is the face poset of the nerve, the quotient that
    merges every index set; the fiber over a simplex A has exactly one cell
    per component of the intersection over A.
    """
    N, mapping = _quotient(M, None)
    return validate_map(mapping, M.poset, N.poset)


def reduced_multinerve(F: SetFamily, t: int = 1) -> tuple[LabeledPoset, MonotoneMap]:
    """Reduced multinerve for threshold t, with the quotient map from M(F).

    Cells (C, A) with |A| <= t-1 are identified per subset A; the quotient
    map is monotone, dimension-preserving, and bijective on cells of
    dimension >= t-1.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    M = multinerve(F)
    R, mapping = _quotient(M, t)
    return R, validate_map(mapping, M.poset, R.poset)
