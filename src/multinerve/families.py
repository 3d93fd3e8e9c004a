"""Finite set families with an exact intersection-component oracle.

Two backends realize the oracle:

* ``subcomplex``: members are face-closed sets of simplices of one ambient
  triangulation T; intersections are set intersections and components come
  from the 1-skeleton: union-find over the region's vertices, joined along
  its edges.
* ``box``: members are finite unions of open axis-aligned boxes with
  rational endpoints; intersections are enumerated box overlaps and
  components come from the strict-overlap graph.  Openness is modeled by
  strict inequalities throughout, so tangent boxes never merge.

The family keeps one region per index set A, built from the region of its
prefix A[:-1] (an empty prefix gives an empty region at no cost).  Equal
regions share a number, given on the first Betti or component query, and
the Betti vector and component groups are found once per number; an index
set then keeps only its labels and the numbered region's object.  Scans
over subfamilies (slack, component counts, the nerve, the multinerve,
Helly numbers) share one walk, kept on the family, of the index sets whose
facets all intersect, level by level in (size, lexicographic) order, so an
empty intersection ends the walk above it.

A subcomplex family builds one ``Boundary`` on T's simplices, and finds
once whether T's top rows are independent; emptiness, the nerve walk and
Helly numbers never build it.  Every member is face-closed
(``subcomplex_family`` checks it), so every region, a union or an
intersection of members, is closed downward in T and takes T's rows whole
(see ``Boundary``).  One union-find per distinct region, over its vertex
ids joined along its edge rows, gives its components and its rank d_1;
its Betti vector is then counted per dimension from T's rows, with no
chain complex built (``_subcomplex_ranks``).
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, groupby
from typing import Iterable, Sequence

from .homology import (BettiVector, Boundary, UnionFind, reduced_betti,
                       sparse_rank)
from .poset import SimplicialComplex


class FamilyError(ValueError):
    """Raised on invalid family data or oracle misuse."""


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box; per-axis rational intervals with lo < hi."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not lo < hi:
                raise FamilyError(f"box interval ({lo}, {hi}) needs lo < hi")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def meet(self, other: "Box") -> "Box | None":
        """Open intersection, or None when some axis fails to strictly overlap."""
        out = []
        for (a, b), (c, d) in zip(self.intervals, other.intervals):
            lo, hi = max(a, c), min(b, d)
            if not lo < hi:
                return None
            out.append((lo, hi))
        return Box(tuple(out))

    def overlaps(self, other: "Box") -> bool:
        return all(max(a, c) < min(b, d)
                   for (a, b), (c, d) in zip(self.intervals, other.intervals))


def box(*intervals) -> Box:
    """Convenience constructor: box((0,1), (2,3)) with ints/Fractions."""
    return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))


@dataclass(frozen=True)
class BoxUnionMember:
    boxes: tuple[Box, ...]


@dataclass(frozen=True)
class SubcomplexMember:
    """Face-closed set of nonempty simplices of the ambient triangulation."""

    simplices: frozenset


@dataclass(frozen=True)
class ComponentLabel:
    """Canonical id of one connected component of an intersection region.

    ``canon`` is the smallest representative under the backend's deterministic
    enumeration; ``rep`` is a geometric handle usable for containment queries
    (a simplex tuple, or a Box inside the component).
    """

    subset: tuple[int, ...]
    canon: object
    rep: object

    def sort_key(self):
        return self.canon


class SetFamily:
    """Indexed family of members over one ambient space, with oracle caches."""

    def __init__(self, backend: str, members: Sequence, ambient,
                 gamma_dim: int, gamma_dim_assumed: bool = False):
        self.backend = backend
        self.members = tuple(members)
        self.ambient = ambient
        self.gamma_dim = gamma_dim
        self.gamma_dim_assumed = gamma_dim_assumed
        self._region_cache: dict[tuple, frozenset | tuple] = {}
        self._region_ids: dict[frozenset | tuple, tuple] = {}
        self._rid_cache: dict[tuple, int] = {}
        self._betti_cache: dict[int, BettiVector] = {}
        self._groups_cache: dict[int, tuple] = {}
        self._labels_cache: dict[tuple, tuple[ComponentLabel, ...]] = {}
        self._walk: list[tuple[tuple[int, ...], bool]] = []
        # a proxy, so the pending walk keeps no reference cycle to the family
        self._walk_source = _walk_source(weakref.proxy(self))
        self._ambient_index: _AmbientIndex | None = None

    def __len__(self) -> int:
        return len(self.members)

    @property
    def indices(self) -> range:
        return range(len(self.members))

    def check_index_set(self, A: Iterable[int]) -> tuple[int, ...]:
        A = tuple(sorted(set(A)))
        for a in A:
            if not 0 <= a < len(self.members):
                raise FamilyError(f"unknown member index {a}")
        return A


def subcomplex_family(T: SimplicialComplex, members: Sequence[Iterable],
                      gamma_dim: int | None = None) -> SetFamily:
    """Family of subcomplexes of the triangulation T.

    Members are given as iterables of simplices (any iterable of vertices
    each).  The ambient homology ceiling defaults to dim(T) + 1, the safe
    bound for a compact triangulated space.
    """
    made = []
    for k, raw in enumerate(members):
        sims = frozenset(frozenset(s) for s in raw if len(tuple(s)) > 0)
        for s in sims:
            if s not in T.simplices:
                raise FamilyError(f"member {k}: simplex {sorted(s)} not in "
                                  "the ambient triangulation")
            if len(s) > 1:
                for v in s:
                    if s - {v} not in sims:
                        raise FamilyError(f"member {k}: not face-closed at "
                                          f"{sorted(s)}")
        made.append(SubcomplexMember(sims))
    assumed = gamma_dim is not None
    if gamma_dim is None:
        gamma_dim = T.dim + 1
    return SetFamily("subcomplex", made, T, gamma_dim, assumed)


def box_family(dim: int, members: Sequence[Sequence[Box]],
               gamma_dim: int | None = None) -> SetFamily:
    """Family of open box unions in R^dim; gamma_dim defaults to dim."""
    made = []
    for k, boxes in enumerate(members):
        boxes = tuple(boxes)
        for b in boxes:
            if b.dim != dim:
                raise FamilyError(f"member {k}: box dimension {b.dim} != {dim}")
        made.append(BoxUnionMember(boxes))
    assumed = gamma_dim is not None
    if gamma_dim is None:
        gamma_dim = dim
    return SetFamily("box", made, dim, gamma_dim, assumed)


# ---------------------------------------------------------------------------
# region machinery


def _simplex_key(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


class _AmbientIndex:
    """T's simplices by id (``numbering``: the empty simplex is id 0, and id
    order is ``_simplex_key`` order), their ``Boundary``, and ``top_free``:
    whether T's top rows (of dimension >= 2) are independent, found by one
    ``sparse_rank``."""

    __slots__ = ("simplices", "ids", "boundary", "top_free")

    def __init__(self, T: SimplicialComplex):
        self.ids, faces = T.numbering()
        self.simplices = list(self.ids)
        self.boundary = Boundary.of_faces(faces)
        rows = [row for row in self.boundary.rows.values()
                if len(row) == T.dim + 1]
        self.top_free = T.dim >= 2 and sparse_rank(rows) == len(rows)


def _ambient(F: SetFamily) -> _AmbientIndex:
    """The subcomplex family's ambient index, built on first use."""
    if F._ambient_index is None:
        F._ambient_index = _AmbientIndex(F.ambient)
    return F._ambient_index


def _region(F: SetFamily, A: tuple[int, ...]) -> frozenset | tuple[Box, ...]:
    """The region over the sorted index set A (the union when A is empty).

    A set of simplices, or the open boxes met from one box per member of A,
    in the lexicographic order of those choices.  Built from the cached
    region of the prefix A[:-1], so nothing is met above an empty prefix.
    """
    if A in F._region_cache:
        return F._region_cache[A]
    sub = F.backend == "subcomplex"
    if len(A) > 1:
        prev, last = _region(F, A[:-1]), F.members[A[-1]]
        out = (prev & last.simplices if sub
               else tuple(met for cur in prev for b in last.boxes
                          if (met := cur.meet(b)) is not None))
    else:
        ms = [F.members[a] for a in A] or F.members
        out = (frozenset().union(*(m.simplices for m in ms)) if sub
               else tuple(b for m in ms for b in m.boxes))
    F._region_cache[A] = out
    return out


def _per_region(F: SetFamily, cache: dict, A: tuple[int, ...], compute):
    """``compute(F, A)`` over the checked index set A, kept in ``cache``
    under the region's number.  Equal regions share one, given on their
    first query here, so emptiness and the walk never hash a region; A then
    keeps the numbered region's object, so equal regions are held once."""
    rid = F._rid_cache.get(A)
    if rid is None:
        region = _region(F, A)
        rid, F._region_cache[A] = F._region_ids.setdefault(
            region, (len(F._region_ids), region))
        F._rid_cache[A] = rid
    if rid not in cache:
        cache[rid] = compute(F, A)
    return cache[rid]


def components(F: SetFamily, A: Iterable[int]) -> tuple[ComponentLabel, ...]:
    """Connected components of the intersection over A (of the union if A is empty).

    Found once per distinct region; an index set keeps only its labels.
    """
    return _component_entry(F, F.check_index_set(A))


def _component_entry(F: SetFamily, A: tuple[int, ...]) -> tuple[ComponentLabel, ...]:
    """The cached labels of the checked index set A."""
    if A not in F._labels_cache:
        F._labels_cache[A] = tuple(ComponentLabel(A, canon, rep)
                                   for canon, rep in _groups(F, A)[0])
    return F._labels_cache[A]


def _groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """The (canon, rep) pairs of the region over the checked index set A,
    sorted by canon, and the index of each region element's pair: a vertex
    id -> index dict, or a list of (box, index) pairs."""
    return _per_region(F, F._groups_cache, A, _subcomplex_groups
                       if F.backend == "subcomplex" else _box_groups)


def _sorted_groups(groups, canon_of, rep_of) -> tuple:
    """One (canon, rep) pair per union-find group, sorted by canon (no two
    groups share one), and the index of each element's pair."""
    pairs, owner = [], {}
    for i, (canon, group) in enumerate(sorted((canon_of(g), g)
                                              for g in groups)):
        pairs.append((canon, rep_of(canon)))
        owner.update(dict.fromkeys(group, i))
    return tuple(pairs), owner


def _subcomplex_groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """Union-find over the region's vertex ids, joined along its edges: a
    simplex lies in the component of any of its vertices, so the smallest
    id of a group, a vertex, is its smallest simplex.  The groups also give
    the region's rank d_1 (see ``_subcomplex_ranks``)."""
    T = _ambient(F)
    ids, rows, region = T.ids, T.boundary.rows, _region(F, A)
    uf = UnionFind(ids[s] for s in region if len(s) == 1)
    for s in region:
        if len(s) == 2:
            uf.union(*rows[ids[s]])
    return _sorted_groups(uf.groups().values(),
                          lambda g: _simplex_key(T.simplices[min(g)]),
                          lambda canon: canon[1])


def _box_groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    boxes = _region(F, A)
    uf = UnionFind(range(len(boxes)))
    for i, j in combinations(range(len(boxes)), 2):
        if boxes[i].overlaps(boxes[j]):
            uf.union(i, j)
    pairs, owner = _sorted_groups(uf.groups().values(), min,
                                  boxes.__getitem__)
    return pairs, [(b, owner[i]) for i, b in enumerate(boxes)]


def region_is_empty(F: SetFamily, A: Iterable[int]) -> bool:
    return not _region(F, F.check_index_set(A))


def _nerve_walk(F: SetFamily):
    """Yield (A, intersects) for each nonempty index set A all of whose
    facets intersect, in (size, lexicographic) order.

    The empty index set counts as intersecting, so every singleton is
    yielded.  Level k + 1 extends the intersecting sets of level k, so the
    sets yielded with False are exactly the minimal empty subfamilies.
    """
    walk, i = F._walk, 0
    while i < len(walk) or _walk_on(F):
        yield walk[i]
        i += 1


def _walk_on(F: SetFamily) -> bool:
    """Extend F._walk by one item, False once done; an error restarts it."""
    try:
        return next(F._walk_source, None) is not None
    except BaseException:
        F._walk, F._walk_source = [], _walk_source(weakref.proxy(F))
        raise


def _walk_source(F: SetFamily):
    """The one walk ``_nerve_walk`` reads; it appends each item to F._walk."""
    layer = [(j,) for j in range(len(F))]
    while layer:
        alive = []
        for cand in layer:
            item = cand, bool(_region(F, cand))
            F._walk.append(item)
            yield item
            if item[1]:
                alive.append(cand)
        # A < B sharing the prefix A[:-1] give A + B[-1:], whose last two
        # facets are A and B; the others are looked up
        have = set(alive)
        layer = [A + B[-1:] for _, group in groupby(alive, lambda A: A[:-1])
                 for A, B in combinations(group, 2)
                 if all(A[:k] + A[k + 1:] + B[-1:] in have
                        for k in range(len(A) - 1))]


def component_containing(F: SetFamily, A: Iterable[int], rep) -> ComponentLabel:
    """The unique component of the region over A containing the representative.

    ``rep`` is a simplex (iterable of vertices) for the subcomplex backend or
    a Box lying inside the region for the box backend.
    """
    A = F.check_index_set(A)
    if F.backend == "subcomplex":
        s = frozenset(rep)
        if s not in _region(F, A):
            raise FamilyError(f"representative {sorted(s)} lies outside the region")
        rep = tuple(s)[:1]  # a simplex lies in the component of its vertices
    elif not isinstance(rep, Box):
        raise FamilyError("box-backend representative must be a Box")
    return _component_entry(F, A)[_owner(F, A)(_rep_key(F, rep))]


def _rep_key(F: SetFamily, rep):
    """What ``_owner`` looks a representative up by: the id in T of a
    vertex (a 1-tuple), or a box."""
    if F.backend == "subcomplex":
        return _ambient(F).ids[frozenset(rep)]
    return rep


def _owner(F: SetFamily, B: tuple[int, ...]):
    """A function from a representative's key (``_rep_key``) to the index
    in ``components(F, B)`` of its component, over the checked index set
    B: it reads the region's owner table, and a box is found by scanning
    the region's boxes."""
    owner = _groups(F, B)[1]
    if F.backend == "subcomplex":
        return owner.__getitem__

    def index(rep: Box) -> int:
        hits = {i for b, i in owner if b.overlaps(rep)}
        if not hits:
            raise FamilyError("representative lies outside the region")
        if len(hits) != 1:
            raise AssertionError("representative spans several components")
        return hits.pop()
    return index


def region_betti(F: SetFamily, A: Iterable[int]) -> BettiVector:
    """Reduced Betti vector of the intersection over A (union when A is empty).

    Found once per distinct region.  A subcomplex region's is counted from
    its cells and ranks per dimension, with the empty simplex (see
    ``_region_betti``).  Box regions go through the nerve of their distinct
    open boxes, which is exact for a good cover (all box intersections are
    open boxes or empty).  A repeated box would keep the
    homotopy type, as its vertex's link is the closed star of its twin,
    which is contractible; it is dropped only to keep the nerve small.
    """
    return _per_region(F, F._betti_cache, F.check_index_set(A), _region_betti)


def _region_betti(F: SetFamily, A: tuple[int, ...]) -> BettiVector:
    """The reduced Betti vector of the region over the checked index set A.

    A box region is ranked on its nerve's ``Boundary``.  A nonempty
    subcomplex region's is counted per dimension, with no chain complex
    built, from its cell counts and boundary ranks (``_subcomplex_ranks``).
    The region is closed downward in T, so its n-cells' rows are T's rows
    whole (see ``Boundary``).  rank d_0 = 1, as it has a vertex, and rank
    d_1 is #vertices - #components (see ``ChainComplex.rank_boundary``),
    from the one union-find of ``_subcomplex_groups``.  The top rank, of
    d_n with n = dim T, is the number of the region's n-cells when T's top
    rows are independent (``top_free``): the region's top rows are some of
    T's, and a subset of independent rows is independent.  Every other
    rank is ``sparse_rank`` of the region's rows.
    """
    region = _region(F, A)
    if not region:
        return BettiVector.from_dict({-1: 1})
    if F.backend == "subcomplex":
        return BettiVector.from_ranks(*_subcomplex_ranks(F, A))
    nerve = _box_nerve(tuple(dict.fromkeys(region)))
    return reduced_betti(nerve.select(nerve.rows))


def _subcomplex_ranks(F: SetFamily, A: tuple[int, ...]) -> tuple[dict, dict]:
    """The cell count of each dimension of the nonempty subcomplex region
    over A, the empty simplex included, and the rank of each d_n, found as
    ``_region_betti`` says."""
    T, top = _ambient(F), F.ambient.dim
    region = _region(F, A)
    sizes = {-1: 1}
    for k, count in Counter(map(len, region)).items():
        sizes[k - 1] = count
    ranks = {0: 1, 1: sizes[0] - len(_groups(F, A)[0])}
    for n in range(2, max(sizes) + 1):
        ranks[n] = (sizes[n] if n == top and T.top_free else
                    sparse_rank([T.boundary.rows[T.ids[s]] for s in region
                                 if len(s) == n + 1]))
    return sizes, ranks


def _box_nerve(boxes: Sequence[Box]) -> Boundary:
    """Boundary of the nerve of a list of open boxes.

    Alive index sets are grown by sorted-prefix extension from the empty
    one; since box intersections shrink monotonically this enumerates each
    nonempty intersection once, with its intersection box in hand, and the
    alive sets are closed downward: a set's faces are numbered before it.
    """
    ids: dict[tuple[int, ...], int] = {(): 0}
    faces: list[list[int]] = [[]]
    layer: list[tuple[tuple[int, ...], Box | None]] = [((), None)]
    while layer:
        nxt = []
        for key, cur in layer:
            for j in range(key[-1] + 1 if key else 0, len(boxes)):
                met = boxes[j] if cur is None else cur.meet(boxes[j])
                if met is not None:
                    new = key + (j,)
                    ids[new] = len(faces)
                    faces.append([ids[new[:i] + new[i + 1:]]
                                  for i in range(len(new))])
                    nxt.append((new, met))
        layer = nxt
    return Boundary.of_faces(faces)


@dataclass(frozen=True)
class SlackViolation:
    subset: tuple[int, ...]
    dim: int


def is_acyclic_with_slack(F: SetFamily, s: int) -> tuple[bool, SlackViolation | None]:
    """Whether every subfamily intersection is homologically trivial in
    dimensions >= max(1, s - |G|); returns the first violation otherwise.

    Intersecting subsets are scanned in (size, lexicographic) order and
    dimensions ascending, so the reported violation is deterministic; an
    empty region has no homology above dimension -1 and cannot violate.
    """
    if s < 0:
        raise FamilyError("slack must be >= 0")
    for G, hit in _nerve_walk(F):
        if hit:
            b = _per_region(F, F._betti_cache, G, _region_betti)
            cutoff = max(1, s - len(G))
            bad = sorted(d for d, v in b.items() if d >= cutoff and v)
            if bad:
                return False, SlackViolation(G, bad[0])
    return True, None


@dataclass(frozen=True)
class ComponentCountReport:
    value: int
    per_size: dict[int, int] = field(hash=False, default_factory=dict)


def max_components(F: SetFamily, t: int = 1) -> ComponentCountReport:
    """Max component count over subfamilies of size >= t, with per-size table."""
    if t < 1:
        raise FamilyError("t must be >= 1")
    per_size = dict.fromkeys(range(t, len(F) + 1), 0)
    for G, hit in _nerve_walk(F):
        if hit and len(G) >= t:
            per_size[len(G)] = max(per_size[len(G)], len(_groups(F, G)[0]))
    return ComponentCountReport(max(per_size.values(), default=0), per_size)
