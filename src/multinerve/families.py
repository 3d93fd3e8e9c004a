"""Finite set families with an exact intersection-component oracle.

Two backends realize the oracle:

* ``subcomplex``: members are face-closed sets of simplices of one ambient
  triangulation T, held as masks of T's simplex ids; intersections are ANDs
  and components come from the 1-skeleton: union-find over the region's
  vertex bits, joined along its edge bits.
* ``box``: members are finite unions of open axis-aligned boxes with
  rational endpoints; intersections are enumerated box overlaps, and
  components come from the strict-overlap graph of the region's distinct
  boxes, built once per region.  Openness is modeled by strict
  inequalities throughout, so tangent boxes never merge.  The oracle holds
  every box on the family's integer grid: L, the least common denominator
  of all endpoints, is found once when the family is built, and endpoint
  x is held as the integer x * L, so boxes meet, compare and hash as int
  pairs.  That is exact: multiplying by L > 0 keeps every < and <=
  between endpoints, and every meet's endpoints are endpoints of members.
  ``Box`` and a label's ``rep`` give the rationals back at the API edge.

The family keeps one region per index set A, the region of a set P
extended by one member (``_extend``): the walk hands each set's region
down to its extensions, and ``_region`` builds any other A from its
prefix A[:-1] (an empty region stays empty at no cost).  Equal regions
share a number, given on the first Betti or component query, and the
Betti vector and component labels are found once per number, so index
sets with equal regions share one label tuple and one region object.
Scans over subfamilies (slack, component counts, the nerve, the
multinerve, Helly numbers) read one walk of the index sets whose proper
subsets all intersect, level by level in (size, lexicographic) order, so
an empty intersection ends the walk above it; a walk that runs to its end
is kept on the family.

Both backends count a region's Betti vector the same way, from the cell
counts of one complex and the ranks of its boundary, eliminated top down
on the dimensions that need it: the region itself, or the nerve of its
distinct boxes up to dimension d, the clique complex of their overlap
graph (see ``_region_betti``).  Only Betti vectors build T's ``Boundary``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

from .homology import BettiVector, Boundary, ChainComplex, sparse_rank
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
                raise FamilyError(_bad_interval(lo, hi))

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


def _bad_interval(lo, hi) -> str:
    return f"box interval ({lo}, {hi}) needs lo < hi"


def _grid_box(grid: tuple, scale: int) -> Box:
    """The Box of a grid box, its (lo, hi) int pairs over scale."""
    return Box(tuple((Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in grid))


def _meet(x: tuple, y: tuple) -> tuple | None:
    """The open meet of two grid boxes, or None when some axis fails to
    strictly overlap."""
    out = []
    for (a, b), (c, d) in zip(x, y):
        lo = a if a > c else c
        hi = b if b < d else d
        if lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _overlaps(x: tuple, y: tuple) -> bool:
    """Whether two grid boxes strictly overlap on every axis."""
    for (a, b), (c, d) in zip(x, y):
        if b <= c or d <= a:
            return False
    return True


def _within(x: tuple, y: tuple) -> bool:
    """Whether the grid box x lies in the grid box y."""
    return all(c <= a and b <= d for (a, b), (c, d) in zip(x, y))


@dataclass(frozen=True)
class BoxUnionMember:
    """A union of open boxes, each a tuple of (lo, hi) int pairs on the
    family's grid: the endpoints times ``scale``."""

    grid: tuple[tuple[tuple[int, int], ...], ...]
    scale: int

    @property
    def boxes(self) -> tuple[Box, ...]:
        return tuple(_grid_box(g, self.scale) for g in self.grid)


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
    (a vertex 1-tuple, or a Box inside the component).  ``at`` is the
    oracle's own handle: the vertex 1-tuple, or the box on the family's
    integer grid, whose ``scale`` a box label keeps (its family's, which
    is its members'), building its ``rep`` only when read.  A label belongs to the region, so index sets with
    equal regions share it.
    """

    canon: object
    at: object
    scale: int | None = None

    @property
    def rep(self):
        return self.at if self.scale is None else _grid_box(self.at, self.scale)


class SetFamily:
    """Indexed family of members over one ambient space, with oracle caches."""

    def __init__(self, backend: str, members: Sequence, ambient,
                 gamma_dim: int, gamma_dim_assumed: bool = False):
        self.backend = backend
        self.members = tuple(members)
        self.ambient = ambient
        self.scale = _common_scale(self.members) if backend == "box" else 1
        self.gamma_dim = gamma_dim
        self.gamma_dim_assumed = gamma_dim_assumed
        self._region_cache: dict[tuple, int | tuple] = {}
        self._region_ids: dict[int | tuple, tuple] = {}
        self._rid_cache: dict[tuple, int] = {}
        self._betti_cache: dict[int, BettiVector] = {}
        self._groups_cache: dict[int, tuple] = {}
        self._graph_cache: dict[int, tuple] = {}
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


def _common_scale(members: tuple) -> int:
    """The one grid scale of a box family's members (1 for no members);
    members on different grids cannot be met, so they are refused."""
    scales = {m.scale for m in members}
    if len(scales) > 1:
        raise FamilyError(f"box members lie on different grids: scales {sorted(scales)}")
    return scales.pop() if scales else 1


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
    members = [tuple(boxes) for boxes in members]
    for k, boxes in enumerate(members):
        for b in boxes:
            if b.dim != dim:
                raise FamilyError(f"member {k}: box dimension {b.dim} != {dim}")
    return _rational_family(dim, [
        [tuple(((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
               for lo, hi in b.intervals) for b in boxes] for boxes in members],
        gamma_dim)


def _rational_family(dim: int, members: Sequence[Sequence[tuple]],
                     gamma_dim: int | None = None) -> SetFamily:
    """Family of open box unions in R^dim, each box a tuple of dim
    intervals ((p, q), (r, s)), p/q < r/s with q, s > 0, held on the
    integer grid of L, the least common denominator of the endpoints: p/q
    as the int p * L / q.  L is reduced to the lcd of the endpoints in
    lowest terms, so the grid does not depend on how they were written."""
    scale = lcm(1, *(q for boxes in members for b in boxes for iv in b for _, q in iv))
    grid = [[tuple((p * (scale // q), r * (scale // s)) for (p, q), (r, s) in b)
             for b in boxes] for boxes in members]
    g = gcd(scale, *(x for boxes in grid for b in boxes for iv in b for x in iv))
    made = [BoxUnionMember(tuple(tuple((lo // g, hi // g) for lo, hi in b)
                                 for b in boxes), scale // g)
            for boxes in grid]
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


def _extend(F: SetFamily, prev, j: int) -> int | tuple:
    """The region of P + (j,) from prev, the region of the index set P
    (None when P is empty): member j's, or prev AND its mask, or the open
    grid boxes met from each box of prev and each of member j, in that
    order."""
    m = F.members[j]
    if F.backend == "subcomplex":
        return m.mask if prev is None else prev & m.mask
    return m.grid if prev is None else tuple(
        met for cur in prev for b in m.grid if (met := _meet(cur, b)) is not None)


def _region(F: SetFamily, A: tuple[int, ...]) -> int | tuple:
    """The region over the sorted index set A (the union when A is empty).

    A mask of T's simplex ids (the members' AND, the union their OR), or
    the open grid boxes met from one box per member of A, in the
    lexicographic order of those choices; falsy when empty.  ``_extend``
    builds it from the region of the longest nonempty prefix of A in the
    cache, one index at a time, caching each longer prefix, so nothing is
    met above an empty prefix.
    """
    cache = F._region_cache
    if A in cache:
        return cache[A]
    if not A:
        cache[A] = (reduce(int.__or__, (m.mask for m in F.members), 0)
                    if F.backend == "subcomplex"
                    else tuple(b for m in F.members for b in m.grid))
        return cache[A]
    k = len(A) - 1
    while k and A[:k] not in cache:
        k -= 1
    out = cache[A[:k]] if k else None
    for i in range(k, len(A)):
        out = cache[A[:i + 1]] = _extend(F, out, A[i])
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
    sorted by canon, and its owner: a function from a label's ``at`` (a
    vertex 1-tuple, or a grid box inside the region) to the index of its
    component."""
    return _per_region(F, F._groups_cache, A, _subcomplex_groups
                       if F.backend == "subcomplex" else _box_groups)


def _subcomplex_groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """One union-find pass over the region's vertex ids, joined along its
    edges, each root kept at its group's smallest id.  T's vertex ids
    follow the vertex order, and a simplex lies in the component of any of
    its vertices, so a root is its group's smallest simplex, and the
    labels come sorted by canon in root order.  The owner is keyed by the
    rep, a vertex 1-tuple.  The groups also give the region's rank d_1
    (see ``_region_ranks``)."""
    region, T = _region(F, A), F.ambient
    faces, tuples = T.numbering()[1], T.ordered_tuples()
    root = {i: i for i in _bit_ids(region & T.dim_mask(0))}
    for e in _bit_ids(region & T.dim_mask(1)):
        u, v = faces[e]
        while root[u] != u:
            root[u] = u = root[root[u]]  # path halving
        while root[v] != v:
            root[v] = v = root[root[v]]
        root[max(u, v)] = min(u, v)
    labels, owner = [], {}
    for i in root:  # ascending, and a parent id is below its child's
        r = root[i] = root[root[i]]
        if r == i:
            owner[tuples[i]] = len(labels)
            labels.append(ComponentLabel((1, tuples[i]), tuples[i]))
        else:
            owner[tuples[i]] = owner[tuples[r]]
    return tuple(labels), owner.__getitem__


def _box_graph(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """The overlap graph of the region's distinct boxes, built once per
    region for ``_box_groups`` and ``_region_ranks``: the boxes in
    first-occurrence order, the first index of each in the region, and
    each one's neighbours, the boxes it overlaps, as a mask of positions."""
    first: dict[tuple, int] = {}
    for i, b in enumerate(_region(F, A)):
        first.setdefault(b, i)
    boxes, nbrs = list(first), [0] * len(first)
    for (i, a), (j, b) in combinations(enumerate(boxes), 2):
        if _overlaps(a, b):
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
    return boxes, list(first.values()), nbrs


def _box_groups(F: SetFamily, A: tuple[int, ...]) -> tuple:
    """The components of the region's overlap graph (``_box_graph``), each
    grown from its lowest box by bit operations and labelled by that box
    and its first index in the region; a twin joins its first occurrence.
    The owner gives a grid box the component of the first box it overlaps,
    sound for a box inside one box, as it is connected.  No other comes:
    ``component_containing`` passes a region box, and ``multinerve``
    passes a label's over A, the meet of one box per member, to the
    regions over subsets of A, each of which holds the meet of the same
    boxes."""
    boxes, first, nbrs = _per_region(F, F._graph_cache, A, _box_graph)
    labels, owner, left = [], [0] * len(boxes), (1 << len(boxes)) - 1
    while left:
        i = (left & -left).bit_length() - 1
        comp = new = 1 << i
        while new:
            new = reduce(int.__or__, map(nbrs.__getitem__, _bit_ids(new))) & ~comp
            comp |= new
        left &= ~comp
        for j in _bit_ids(comp):
            owner[j] = len(labels)
        labels.append(ComponentLabel(first[i], boxes[i], F.scale))

    def index(at: tuple) -> int:
        return next(owner[i] for i, b in enumerate(boxes) if _overlaps(b, at))
    return tuple(labels), index


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
    A level holds, for each set P it extends, P's mask of member indices,
    its region (None for the empty set) and a mask of the j to try: the
    region of P + (j,) is ``_extend`` of P's, kept in F's cache unless A
    has one there.  ``ext`` maps P's mask to the j for which P + (j,)
    intersects, so A = P + (a,) gets each j > a in ext[P] and in ext[A's
    mask less bit p], p in P, as then A + (j,) less j, a or p intersects.
    Each level is lexicographic."""
    walk, cache = [], F._region_cache
    layer = [((), 0, None, (1 << len(F)) - 1)]
    while layer:
        ext: dict[int, int] = {}
        hits = []
        for P, mask, region, cand in layer:
            alive = 0
            for j in _bit_ids(cand):
                A = P + (j,)
                got = cache.setdefault(A, _extend(F, region, j))
                item = A, bool(got)
                walk.append(item)
                yield item
                if got:
                    alive |= 1 << j
                    hits.append((A, mask | 1 << j, got))
            ext[mask] = alive
        layer = []
        for A, mask, region in hits:
            cand = ext[mask ^ 1 << A[-1]] & -(2 << A[-1])
            for p in A[:-1]:
                cand &= ext.get(mask ^ 1 << p, 0)
            layer.append((A, mask, region, cand))
    F._walk = walk


def component_containing(F: SetFamily, A: Iterable[int], rep) -> ComponentLabel:
    """The unique component of the region over A containing the representative.

    ``rep`` is a simplex of the region (an iterable of vertices) for the
    subcomplex backend, or a Box inside one of the region's boxes for the
    box backend (a label's rep is one); any other rep is refused with
    ``FamilyError``, even a box that lies in the region across several of
    its boxes.  A Box whose endpoints are off the family's grid is compared
    exactly, on a grid that holds both.
    """
    A = F.check_index_set(A)
    region = _region(F, A)
    if F.backend == "subcomplex":
        s = frozenset(rep)
        i = F.ambient.simplex_ids().get(s, 0)
        if not region >> i & 1:
            raise FamilyError(f"representative {sorted(s)} lies outside the region")
        at = F.ambient.ordered_tuples()[i][:1]  # in its vertices' component
    elif not isinstance(rep, Box):
        raise FamilyError("box-backend representative must be a Box")
    else:  # the rep, and the region times k, on the grid of both
        scale = lcm(F.scale, *(x.denominator for iv in rep.intervals for x in iv))
        x = tuple((lo.numerator * (scale // lo.denominator),
                   hi.numerator * (scale // hi.denominator)) for lo, hi in rep.intervals)
        k = scale // F.scale
        at = next((b for b in region if rep.dim == F.ambient and _within(
            x, tuple((lo * k, hi * k) for lo, hi in b))), None)
        if at is None:
            raise FamilyError("representative lies outside the region")
    labels, owner = _groups(F, A)
    return labels[owner(at)]


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
    its twin, and is dropped to keep K small.  The nerve is the clique
    complex of the boxes' overlap graph, as open boxes have Helly number 2
    (Danzer-Gruenbaum-Klee 1963): open intervals that overlap pairwise
    share a point, the largest lower end lying below the smallest upper
    one, so open boxes that overlap pairwise do too, axis by axis.  The
    region is open in R^d, so its H_n, and the full nerve's, vanish for
    n >= d (Hatcher, Prop. 3.46).  And b_n for n < d reads the n-cells and
    the ranks of d_n and d_{n+1}, n + 1 <= d: K, the d-skeleton, holds
    every cell they read.
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
    (see ``ChainComplex.rank_boundary``), from ``_groups``, whose groups
    are K's.  Every other rank is eliminated by ``rank_boundary`` from the
    top down, so each clears the next, but for a subcomplex region's top.
    A subcomplex region's cells are counted from their sizes, and T's rows
    are gathered only once a dimension must be eliminated: every member
    is face-closed (``subcomplex_family`` checks it), so the region is
    closed downward in T and its rows are T's whole (see ``Boundary``);
    and the rank of d_n, n = dim T, is the n-cell count when T's top rows
    are independent (``top_free``), as a region's are some of them.  T's
    n-simplex ids are one run, so a region's n-cells are the popcount of
    those bits, and its rows are read by bit position.  A box region's K
    is the clique complex of its overlap graph (``_box_graph``) up to
    dimension d, its cells in (size, lexicographic) order, face i of a
    clique dropping its i-th box.
    """
    region, top, cc = _region(F, A), None, None
    if F.backend == "subcomplex":
        T, index = F.ambient, _ambient(F)
        sizes = {n: c for n in range(-1, T.dim + 1)  # bit 0: the empty one
                 if (c := ((region | 1) & T.dim_mask(n)).bit_count())}
        top = T.dim if index.top_free else None

        def chain() -> ChainComplex:  # the rows of the dimensions eliminated
            rows = index.boundary.rows
            return ChainComplex({n: {i: rows[i] for i in _bit_ids(region & T.dim_mask(n))}
                                 for n in range(2, max(sizes) + 1) if n != top})
    else:
        nbrs = _per_region(F, F._graph_cache, A, _box_graph)[2]
        faces, ids = [()], {(): 0}
        level = [((i,), nbr) for i, nbr in enumerate(nbrs)]  # clique, common
        while level:
            grown = []
            for C, common in level:
                ids[C] = len(faces)
                faces.append(tuple(ids[C[:i] + C[i + 1:]] for i in range(len(C))))
                if len(C) <= F.ambient:
                    grown.extend((C + (j,), common & nbrs[j])
                                 for j in _bit_ids(common & -(2 << C[-1])))
            level = grown
        boundary = Boundary.of_faces(faces)
        cc = boundary.select(boundary.rows)
        sizes = cc.sizes
    ranks = {0: 1, 1: sizes[0] - len(_groups(F, A)[0])}
    for n in range(max(sizes), 1, -1):
        ranks[n] = sizes[n] if n == top else (cc := cc or chain()).rank_boundary(n)
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
