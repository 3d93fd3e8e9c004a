"""Nerve, multinerve, reduced multinerve, and the projections between them.

The multinerve has one cell per connected component of each intersecting
subfamily; it projects onto the nerve by forgetting the component.  The
reduced multinerve merges cells below a size threshold t, which is what the
projection bound machinery needs.  The convention for the empty index set is
that it intersects in the whole union, so the least element is the single
cell labeled by the union even when the union is disconnected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import (ComponentLabel, SetFamily, _nerve_walk,
                       component_containing, components)
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

    def __init__(self, poset: SimplicialPoset, tags: tuple[CellTag, ...],
                 family: SetFamily):
        self.poset = poset
        self.tags = tags
        self.family = family
        self.index = {t: c for c, t in enumerate(tags)}

    def tag_of(self, cell: int) -> CellTag:
        return self.tags[cell]


def nerve(F: SetFamily) -> SimplicialComplex:
    """Nerve of the family: one simplex per intersecting subfamily (the walk
    yields them all, a set closed downward)."""
    return SimplicialComplex((A for A, hit in _nerve_walk(F) if hit),
                             closed=True)


def multinerve(F: SetFamily) -> LabeledPoset:
    """Multinerve of the family as a validated labeled simplicial poset."""
    return _build_multinerve(F, t=None)


def _build_multinerve(F: SetFamily, t: int | None) -> LabeledPoset:
    """Shared builder; t = None gives the multinerve, otherwise cells with
    |A| <= t-1 are merged per subset (the reduced multinerve)."""
    cells: list[CellTag] = [CellTag((), None)]
    for A, hit in _nerve_walk(F):
        if not hit:
            continue
        if t is not None and len(A) <= t - 1:
            cells.append(CellTag(A, None))
        else:
            for comp in components(F, A):
                cells.append(CellTag(A, comp))
    cells.sort(key=CellTag.sort_key)
    index = {tag: i for i, tag in enumerate(cells)}

    records = []
    for tag in cells:
        A = tag.subset
        if not A:
            records.append(CellRecord(-1, ()))
            continue
        faces = []
        for i in range(len(A)):
            B = A[:i] + A[i + 1:]
            if not B:
                faces.append(index[CellTag((), None)])
            elif t is not None and len(B) <= t - 1:
                faces.append(index[CellTag(B, None)])
            else:
                # only unmerged cells reach here, so the component is set
                comp = component_containing(F, B, tag.component.rep)
                faces.append(index[CellTag(B, comp)])
        records.append(CellRecord(len(A) - 1, tuple(faces)))

    poset = build_poset(records)
    return LabeledPoset(poset, tuple(cells), F)


@dataclass
class MonotoneMap:
    """A total cell map between posets with verified structural flags.

    Flags are computed, never asserted; each failure records a witness cell.
    ``segment_bijection`` checks the lower-segment consequence of monotone
    dimension-preserving maps and is None when the premises already fail.
    """

    source: SimplicialPoset
    target: SimplicialPoset
    mapping: tuple[int, ...]
    monotone: bool
    dimension_preserving: bool
    max_fiber: int
    segment_bijection: bool | None
    witnesses: dict

    def fiber_sizes(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.source.cells():
            y = self.mapping[c]
            out[y] = out.get(y, 0) + 1
        return out

    def bijective_on_dims_at_least(self, k: int) -> bool:
        """Bijection between source and target cells of dimension >= k."""
        src = [c for c in self.source.cells() if self.source.dim_of(c) >= k]
        tgt = {c for c in self.target.cells() if self.target.dim_of(c) >= k}
        image = [self.mapping[c] for c in src]
        return len(set(image)) == len(src) and set(image) == tgt


def validate_map(mapping, X: SimplicialPoset, Y: SimplicialPoset) -> MonotoneMap:
    """Exhaustively verify a cell map and report its flags with witnesses."""
    if isinstance(mapping, dict):
        mapping = tuple(mapping[c] for c in X.cells())
    else:
        mapping = tuple(mapping)
    if len(mapping) != X.n_cells:
        raise ValueError("mapping must cover every source cell")
    for y in mapping:
        Y._check_cell(y)

    witnesses: dict = {}
    monotone = True
    for c in X.cells():
        for f in X.faces_of(c):
            if not Y.leq(mapping[f], mapping[c]):
                monotone = False
                witnesses.setdefault("monotone", (f, c))
    dim_pres = True
    for c in X.cells():
        if Y.dim_of(mapping[c]) != X.dim_of(c):
            dim_pres = False
            witnesses.setdefault("dimension_preserving", c)
            break

    fibers: dict[int, int] = {}
    for c in X.cells():
        fibers[mapping[c]] = fibers.get(mapping[c], 0) + 1
    max_fiber = max(fibers.values()) if fibers else 0

    segment = None
    if monotone and dim_pres:
        segment = True
        for c in X.cells():
            seg = X.lower_segment(c)
            image = {mapping[s] for s in seg}
            if len(image) != len(seg) or image != Y.lower_segment(mapping[c]):
                segment = False
                witnesses.setdefault("segment_bijection", c)
                break

    return MonotoneMap(X, Y, mapping, monotone, dim_pres, max_fiber,
                       segment, witnesses)


def canonical_projection(M: LabeledPoset) -> MonotoneMap:
    """Projection of a (reduced) multinerve onto its nerve, with flags.

    The target poset is the face poset of the nerve; the fiber over a
    simplex A has exactly one cell per component of the intersection over A.
    """
    N = nerve(M.family)
    NP = N.as_poset()
    ordered = sorted(N.simplices, key=lambda s: (len(s), sorted(s)))
    n_index = {tuple(sorted(s)): i for i, s in enumerate(ordered)}
    mapping = tuple(n_index[M.tags[c].subset] for c in M.poset.cells())
    return validate_map(mapping, M.poset, NP)


def reduced_multinerve(F: SetFamily, t: int = 1) -> tuple[LabeledPoset, MonotoneMap]:
    """Reduced multinerve for threshold t, with the quotient map from M(F).

    Cells (C, A) with |A| <= t-1 are identified per subset A; the quotient
    map is monotone, dimension-preserving, and bijective on cells of
    dimension >= t-1.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    M = multinerve(F)
    R = _build_multinerve(F, t=t)
    mapping = []
    for c in M.poset.cells():
        tag = M.tags[c]
        if len(tag.subset) <= t - 1:
            mapping.append(R.index[CellTag(tag.subset, None)])
        else:
            mapping.append(R.index[tag])
    f = validate_map(tuple(mapping), M.poset, R.poset)
    return R, f
