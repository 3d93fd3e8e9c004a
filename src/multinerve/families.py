"""Finite set families with an exact intersection-component oracle.

Two backends realize the oracle:

* ``subcomplex``: members are face-closed sets of simplices of one ambient
  triangulation T, held as masks of T's simplex ids; intersections are ANDs
  and components come from the 1-skeleton: union-find over the region's
  vertex bits, joined along its edge bits.
* ``box``: members are finite unions of open axis-aligned boxes with
  rational endpoints; intersections are enumerated box overlaps and
  components come from the strict-overlap graph.  Openness is modeled by
  strict inequalities throughout, so tangent boxes never merge.

The family keeps one region per index set A, built from the region of its
prefix A[:-1] (an empty prefix gives an empty region at no cost).  Equal
regions share a number, given on the first Betti or component query, and
the Betti vector and component labels are found once per number, so index
sets with equal regions share one label tuple and one region object.
Scans over subfamilies (slack, component counts, the nerve, the
multinerve, Helly numbers) read one walk of the index sets whose proper
subsets all intersect, level by level in (size, lexicographic) order, so
an empty intersection ends the walk above it; a walk that runs to its end
is kept on the family.

Both backends count a region's Betti vector the same way, from the cell
counts and boundary ranks of one complex, with no chain complex built: the
region itself, or the nerve of its distinct boxes up to dimension d (see
``_region_betti``).  Only Betti vectors build T's ``Boundary``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Iterable, Sequence

from .homology import BettiVector, Boundary, UnionFind, sparse_rank
from .poset import SimplicialComplex, _bit_ids


class FamilyError(ValueError):
    """Raised on invalid family data or oracle misuse; ``at`` is the index of
    the member at fault, when there is one."""

    def __init__(self, message: str, at: int | None = None):
        super().__init__(message)
        self.at = at


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

    def within(self, other: "Box") -> bool:
        return self.dim == other.dim and all(
            c <= a and b <= d
            for (a, b), (c, d) in zip(self.intervals, other.intervals))


def box(*intervals) -> Box:
    """Convenience constructor: box((0,1), (2,3)) with ints/Fractions."""
    return Box(tuple((Fraction(lo), Fraction(hi)) for lo, hi in intervals))


@dataclass(frozen=True)
class BoxUnionMember:
    boxes: tuple[Box, ...]


@dataclass(frozen=True)
class SubcomplexMember:
    """Face-closed set of nonempty simplices of ``ambient``, a mask of ids."""

    mask: int
    ambient: SimplicialComplex

    @property
    def simplices(self) -> frozenset:
        order = self.ambient.ordered_simplices()
        return frozenset(map(order.__getitem__, _bit_ids(self.mask)))


@dataclass(frozen=True)
class ComponentLabel:
    """Canonical id of one connected component of an intersection region.

    ``canon`` is the smallest representative under the backend's deterministic
    enumeration; ``rep`` is a geometric handle usable for containment queries
    (a vertex 1-tuple, or a Box inside the component).  A label belongs to
    the region, so index sets with equal regions share it.
    """

    canon: object
    rep: object


class SetFamily:
    """Indexed family of members over one ambient space, with oracle caches."""

    def __init__(self, backend: str, members: Sequence, ambient,
                 gamma_dim: int, gamma_dim_assumed: bool = False):
        self.backend = backend
        self.members = tuple(members)
        self.ambient = ambient
        self.gamma_dim = gamma_dim
        self.gamma_dim_assumed = gamma_dim_assumed
        self._region_cache: dict[tuple, int | tuple] = {}
        self._region_ids: dict[int | tuple, tuple] = {}
        self._rid_cache: dict[tuple, int] = {}
        self._betti_cache: dict[int, BettiVector] = {}
        self._groups_cache: dict[int, tuple] = {}
        self._walk: list[tuple[tuple[int, ...], bool]] | None = None
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
    """Family of subcomplexes of the triangulation T, each member an iterable
    of simplices (iterables of vertices) of T, closed under faces, as
    ``_id_family`` checks on their ids."""
    ids, members = T.simplex_ids(), [list(map(frozenset, m)) for m in members]
    for k, sims in enumerate(members):
        if (s := next((s for s in sims if s not in ids), None)) is not None:
            raise FamilyError(f"member {k}: simplex {sorted(s)} not in "
                              "the ambient triangulation")
    return _id_family(T, ([ids[s] for s in m] for m in members), gamma_dim)


def _id_family(T: SimplicialComplex, members: Iterable[Iterable[int]],
               gamma_dim: int | None = None) -> SetFamily:
    """Family of subcomplexes of T, members given by T's simplex ids.  A
    member must hold the face ids of its simplices (the empty simplex's, 0,
    counts as held), or the first simplex in T's order missing one is
    reported, with the member's index as ``at``.  gamma_dim defaults to
    dim(T) + 1, the safe bound for a compact triangulated space."""
    faces, tuples = T.numbering()[1], T.ordered_tuples()
    made = []
    for k, ids in enumerate(members):
        held = {0, *ids}
        if not all(map(held.issuperset, map(faces.__getitem__, held))):
            i = min(i for i in held if not held.issuperset(faces[i]))
            raise FamilyError(f"member {k}: not face-closed at "
                              f"{list(tuples[i])}", k)
        made.append(SubcomplexMember(sum(map((1).__lshift__, held)) - 1, T))
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


class _AmbientIndex:
    """What Betti vectors of subcomplex regions read, and nothing else does:
    the checked ``Boundary`` of T's simplices, a row per id, and
    ``top_free``: whether T's top rows (of dimension >= 2) are independent,
    found by one ``sparse_rank``."""

    __slots__ = ("boundary", "top_free")

    def __init__(self, T: SimplicialComplex):
        self.boundary = Boundary.of_faces(T.numbering()[1])
        rows = [self.boundary.rows[i] for i in _bit_ids(T.dim_mask(T.dim))]
        self.top_free = T.dim >= 2 and sparse_rank(rows) == len(rows)


def _ambient(F: SetFamily) -> _AmbientIndex:
    """The subcomplex family's ambient index, built on the first Betti
    vector."""
    if F._ambient_index is None:
        F._ambient_index = _AmbientIndex(F.ambient)
    return F._ambient_index


def _region(F: SetFamily, A: tuple[int, ...]) -> int | tuple[Box, ...]:
    """The region over the sorted index set A (the union when A is empty).

    A mask of T's simplex ids (the members' AND, the union their OR), or
    the open boxes met from one box per member of A, in the lexicographic
    order of those choices; falsy when empty.  Built from the cached region
    of the prefix A[:-1], so nothing is met above an empty prefix.
    """
    if A in F._region_cache:
        return F._region_cache[A]
    sub = F.backend == "subcomplex"
    if len(A) > 1:
        prev, last = _region(F, A[:-1]), F.members[A[-1]]
        out = (prev & last.mask if sub
               else tuple(met for cur in prev for b in last.boxes
                          if (met := cur.meet(b)) is not None))
    else:
        ms = [F.members[a] for a in A] or F.members
        out = (reduce(int.__or__, (m.mask for m in ms), 0) if sub
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

    Found once per distinct region; index sets with equal regions share the
    one tuple.
    """
    return _groups(F, F.check_index_set(A))[0]


def _groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """The component labels of the region over the checked index set A,
    sorted by canon, and its owner: a function from a rep (a vertex
    1-tuple, or a box inside the region) to the index of its component."""
    return _per_region(F, F._groups_cache, A, _subcomplex_groups
                       if F.backend == "subcomplex" else _box_groups)


def _sorted_labels(groups, canon_of, rep_of) -> tuple:
    """One label per union-find group, sorted by canon (no two groups share
    one), and the index of each element's label."""
    labels, owner = [], {}
    for i, (canon, group) in enumerate(sorted((canon_of(g), g)
                                              for g in groups)):
        labels.append(ComponentLabel(canon, rep_of(canon)))
        owner.update(dict.fromkeys(group, i))
    return tuple(labels), owner


def _subcomplex_groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """Union-find over the labels of the region's vertex bits, joined along
    its edge bits: a simplex lies in the component of any of its vertices,
    so the smallest vertex of a group is its smallest simplex.  The owner is
    keyed by the rep, a vertex 1-tuple.  The groups also give the region's
    rank d_1 (see ``_region_ranks``)."""
    region, T, tuples = _region(F, A), F.ambient, F.ambient.ordered_tuples()
    uf = UnionFind(tuples[i][0] for i in _bit_ids(region & T.dim_mask(0)))
    for i in _bit_ids(region & T.dim_mask(1)):
        uf.union(*tuples[i])
    labels, owner = _sorted_labels(uf.groups().values(),
                                   lambda g: (1, (min(g),)),
                                   lambda canon: canon[1])
    return labels, {(v,): i for v, i in owner.items()}.__getitem__


def _box_groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """Union-find over the region's boxes, joined where they overlap.  The
    owner gives a rep the component of the first box it overlaps, sound
    for a rep inside one box, as it is connected.  No other comes:
    ``component_containing`` refuses them, and ``multinerve`` passes a
    rep over A, the meet of one box per member, to the regions over
    subsets of A, each of which holds the meet of the same boxes."""
    boxes = _region(F, A)
    uf = UnionFind(range(len(boxes)))
    for i, j in combinations(range(len(boxes)), 2):
        if boxes[i].overlaps(boxes[j]):
            uf.union(i, j)
    labels, owner = _sorted_labels(uf.groups().values(), min,
                                   boxes.__getitem__)

    def index(rep: Box) -> int:
        return next(owner[i] for i, b in enumerate(boxes) if b.overlaps(rep))
    return labels, index


def region_is_empty(F: SetFamily, A: Iterable[int]) -> bool:
    return not _region(F, F.check_index_set(A))


def _nerve_walk(F: SetFamily):
    """The (A, intersects) pairs for each nonempty index set A all of whose
    proper subsets intersect, in (size, lexicographic) order: the kept walk
    once one has run to its end, a new ``_walk_source`` until then.

    The empty index set counts as intersecting, so every singleton is
    yielded.  Level k + 1 extends the intersecting sets of level k, so the
    sets yielded with False are exactly the minimal empty subfamilies.
    """
    return _walk_source(F) if F._walk is None else F._walk


def _walk_source(F: SetFamily):
    """The walk ``_nerve_walk`` reads; its list is kept on F only when it
    runs to the end, so an error or a scan that stops early keeps none.
    A level is (P, mask) pairs, each set P + (j,) for j in the mask, and
    ``ext[P]`` masks the j for which P + (j,) intersects; A = P + (a,) gets
    each j > a in ext[P] and in each ext[(P - p) + (a,)], p in P, as then
    A + (j,) less j, a or p intersects.  Each level is lexicographic."""
    walk, layer = [], [((), (1 << len(F)) - 1)]
    while layer:
        ext: dict[tuple[int, ...], int] = {}
        for P, cand in layer:
            for j in _bit_ids(cand):
                item = P + (j,), bool(_region(F, P + (j,)))
                walk.append(item)
                yield item
                if item[1]:
                    ext[P] = ext.get(P, 0) | 1 << j
        layer = []
        for P, alive in ext.items():
            for a in _bit_ids(alive):
                cand = alive & -(2 << a)
                for k in range(len(P)):
                    cand &= ext.get(P[:k] + P[k + 1:] + (a,), 0)
                layer.append((P + (a,), cand))
    F._walk = walk


def component_containing(F: SetFamily, A: Iterable[int], rep) -> ComponentLabel:
    """The unique component of the region over A containing the representative.

    ``rep`` is a simplex of the region (an iterable of vertices) for the
    subcomplex backend, or a Box inside one of the region's boxes for the
    box backend (a label's rep is one); any other rep is refused with
    ``FamilyError``, even a box that lies in the region across several of
    its boxes.
    """
    A = F.check_index_set(A)
    if F.backend == "subcomplex":
        s = frozenset(rep)
        i = F.ambient.simplex_ids().get(s, 0)
        if not _region(F, A) >> i & 1:
            raise FamilyError(f"representative {sorted(s)} lies outside the region")
        rep = F.ambient.ordered_tuples()[i][:1]  # in its vertices' component
    elif not isinstance(rep, Box):
        raise FamilyError("box-backend representative must be a Box")
    elif not any(rep.within(b) for b in _region(F, A)):
        raise FamilyError("representative lies outside the region")
    labels, owner = _groups(F, A)
    return labels[owner(rep)]


def region_betti(F: SetFamily, A: Iterable[int]) -> BettiVector:
    """Reduced Betti vector of the intersection over A (union when A is
    empty), found once per distinct region (see ``_region_betti``)."""
    return _per_region(F, F._betti_cache, F.check_index_set(A), _region_betti)


def _region_betti(F: SetFamily, A: tuple[int, ...]) -> BettiVector:
    """The reduced Betti vector of the region over the checked index set A.

    A nonempty region's is b_n = #n-cells - rank d_n - rank d_{n+1} on one
    complex K (``_region_ranks``).  A subcomplex region is K.  A box region
    in R^d has for K the nerve of its distinct open boxes up to dimension
    d, and b_n is counted for n < d only.  That is exact.  A nonempty meet
    of open boxes is an open box, so the boxes are a good cover and the
    full nerve has the region's homology (nerve theorem); a twin box would
    keep the homotopy type too, its vertex's link being the closed star of
    its twin, and is dropped to keep K small.  The region is open in R^d,
    so its H_n, and the full nerve's, vanish for n >= d (Hatcher, Prop.
    3.46).  And b_n for n < d reads the n-cells and the ranks of d_n and
    d_{n+1}, n + 1 <= d: K, the d-skeleton, holds every cell they read.
    """
    if not _region(F, A):
        return BettiVector.from_dict({-1: 1})
    sizes, ranks = _region_ranks(F, A)
    if F.backend == "box":
        sizes.pop(F.ambient, None)
    return BettiVector.from_ranks(sizes, ranks)


def _region_ranks(F: SetFamily, A: tuple[int, ...]) -> tuple[dict, dict]:
    """The cell count of each dimension of the nonempty region's complex K
    over A, the empty simplex included, and the rank of each d_n.

    rank d_0 = 1, as K has a vertex; rank d_1 is #vertices - #components
    (see ``ChainComplex.rank_boundary``), from the union-find of
    ``_groups``, whose groups are K's (a box overlaps its twin).  Every
    other rank is ``sparse_rank`` of the rows, but for a subcomplex
    region's top.  A subcomplex region's cells are counted from their
    sizes, and T's rows are gathered only for a dimension that must be
    eliminated: every member is face-closed (``subcomplex_family`` checks
    it), so the region is closed downward in T and its rows are T's whole
    (see ``Boundary``); and the rank of d_n, n = dim T, is the n-cell count
    when T's top rows are independent (``top_free``), as a region's are
    some of them.  T's n-simplex ids are one run, so a region's n-cells
    are the popcount of those bits, and its rows are read by bit position.
    """
    region, top = _region(F, A), None
    if F.backend == "subcomplex":
        T, index = F.ambient, _ambient(F)
        sizes = {n: c for n in range(-1, T.dim + 1)  # bit 0: the empty one
                 if (c := ((region | 1) & T.dim_mask(n)).bit_count())}
        top = T.dim if index.top_free else None

        def rows(n: int) -> list:
            return [index.boundary.rows[i] for i in _bit_ids(region & T.dim_mask(n))]
    else:
        # the intersecting sets of one box each are the nerve's simplices
        d, ids, faces = F.ambient, {(): 0}, [()]
        for B, hit in _nerve_walk(box_family(
                d, [[b] for b in dict.fromkeys(region)])):
            if len(B) > d + 1:
                break
            if hit:
                ids[B] = len(faces)
                faces.append(tuple(ids[B[:i] + B[i + 1:]]
                                   for i in range(len(B))))
        grouped: dict[int, list] = {}
        for row in Boundary.of_faces(faces).rows.values():
            grouped.setdefault(len(row) - 1, []).append(row)
        sizes = {n: len(r) for n, r in grouped.items()}
        rows = grouped.__getitem__
    ranks = {0: 1, 1: sizes[0] - len(_groups(F, A)[0])}
    for n in range(2, max(sizes) + 1):
        ranks[n] = sizes[n] if n == top else sparse_rank(rows(n))
    return sizes, ranks


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
