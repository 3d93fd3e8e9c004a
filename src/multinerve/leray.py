"""Leray number L(X) and the index J(X) of a simplicial poset.

L(X) asks that every induced subposet has vanishing reduced homology from
some dimension up.  J(X) asks the same of the order complexes of all open
upper intervals in all induced subposets (the least element included, whose
upper interval complex is the barycentric subdivision).  L <= J always; on
simplicial complexes they agree.

Neither builds a new poset or complex: each selects from a ``Boundary``,
which says why a selection needs no second d o d check.  X[S], the cells
whose vertices all lie in S (by vertex bitmask), is selected from X's.
For J, the cells tau >= sigma of X[S] are the face poset of a regular CW
complex, the link Lk(sigma, X[S]) (Bjorner 1984), whose barycentric
subdivision is the order complex of (sigma, .); so its cellular chain
complex has the reduced homology J needs.  It is selected from sigma's
link boundary: X's rows of the cells tau > sigma less the faces not
>= sigma, sigma the augmentation, C(X, X - st sigma) shifted down by
dim sigma + 1.  At the least cell (dimension -1, and id 0, as faces have
smaller ids) nothing is left out and the shift is 0: the link is X[S]
with X's rows.  So L is J's term at the least cell, and one walk serves
both.

Most queries need no rank, because a smaller subset gives the same
homology.

Lemma.  Take x, y in S, outside vert(sigma).  Suppose every cell
tau > sigma of X[S] with x and without y has exactly one cover tau + y
with vertex set vert(tau) + y.  Then Lk(sigma, X[S]) and
Lk(sigma, X[S - x]) have the same reduced homology.

Proof.  Let C be the link's chain complex and C' its subcomplex on the
cells without x, the chain complex of Lk(sigma, X[S - x]); D = C / C' has
the cells with x as a basis.  A cell rho of D with y has one face tau
without y (its Boolean interval [least, rho] holds one cell per vertex
subset), and tau is in D, so rho = tau + y; each other face of rho in D is
phi + y for a face phi of tau in D, again by Boolean intervals and the
uniqueness of covers by y.  Let h send tau in D without y to
e(tau) (tau + y), e(tau) = +-1 the entry of tau in the row of tau + y,
and the cells with y to 0.  d o d = 0 on the square phi < tau,
phi + y < tau + y gives e(tau) [tau + y : phi + y] = -e(phi) [tau : phi],
so dh + hd = 1 on D.  D is contractible, and the long exact sequence of
0 -> C' -> C -> D -> 0 gives H(C') = H(C).  The pairs (tau, tau + y)
form an acyclic matching (Forman 1998); for complexes at the least cell
this is the strong collapse of a dominated vertex (Barmak-Minian 2012).

At the least cell the cells with x are those >= the vertex x.  Above it,
when sigma has one cover a with vertex set vert(sigma) + x, they are the
cells >= a ([sigma, tau] is Boolean too); when it has two, a and a', the
cells >= a' must be matched as well.  Take a vertex sigma joined to x by
two edges a, a' and to y by an edge b, with an edge xy and one triangle,
on a, b and xy.  Every cell >= a is matched by y, yet
Lk(sigma, X[{sigma, x, y}]), the edge a-b and the point a', has two
components, and Lk(sigma, X[{sigma, y}]), the point b, has one; a' has
no cover by y, so the lemma does not apply.  "Exactly one" is needed too:
in the double edge, x and y joined by two edges, x has two covers by y,
and X[{x, y}] is a circle while X[{y}] is a point.

The lemma's data depend on S only through vertex masks.  One pass over
the faces notes, for each cell, the vertices by which it has exactly one
cover.  On sigma's first query the walk keeps its pairs (x, y), each with
the minimal vertex masks of its bad cells: the cells > sigma with x and
without y whose cover by y is missing or not unique.  x is dominated in S
at sigma when x and y are in S and no bad mask lies inside S; then
(sigma, S) is not asked.  (sigma, S - x) has the same homology, and the
walk visits it earlier, at a floor no higher; the floor then rose past
every dimension it has alive, so (sigma, S) would answer None.  Values
and witnesses are those of the walk without pruning.  The sampled pass
does not prune: it need never draw the smaller subset, so pruning would
lower its bound and move its witness.

``_enumerate`` is that walk, told which indices are wanted.  It prepares
X once per call: cell vertex masks, unique covers and X's boundary, read
from P's validated tuples with no per-call id check (every id comes from
P itself); per cell, on its first query, the cells above it, the vertex
mask of its closed star and its pairs, and on its first rank its link
boundary.  A hit is a dimension j >= floor at which a reduced Betti
number is nonzero: of X[S] (the least cell's answer, L's hit), or of the
link of a cell of X[S] above the least, which J also asks.  Link answers
are memoized for the call by (sigma, S & star sigma, floor): the link
holds only cells above sigma, whose vertices lie in star sigma, so two
vertex sets that agree on star sigma give the same link (and the same
pairs).  An index's value is one more than its largest hit.  The walk has
two passes:

* exact, which also yields each witness: the subsets of the sorted
  vertices, smallest first, with each floor raised past each hit, until
  every wanted value reaches dim + 1.  X[S] is asked once, at L's floor
  when L is wanted and at J's otherwise; J counts its answer when it is
  >= J's floor.  Nothing is alive at or above an index's final value, so
  the first hit in dimension value - 1 (first subset, then least cell
  first) meets a floor at most value - 1 and raises the index to its
  value, and no later hit raises it again: the hit that last raised an
  index is its witness;
* sampled, instead, for one index: random subsets (and for J one random
  cell each), which give a labeled lower bound.

Exact enumeration is exponential in the vertex count, so it refuses inputs
past the vertex cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from operator import or_

from .homology import Boundary, Space, top_nonzero_betti
from .poset import SimplicialComplex, SimplicialPoset


class CapExceeded(RuntimeError):
    """Exact enumeration refused because the vertex cap was exceeded."""

    def __init__(self, n: int, cap: int, what: str = "vertex count",
                 at_most: bool = False):
        self.n = n
        self.cap = cap
        # the exact pass visits every subset (``at_most``: a walk that may
        # stop early visits no more); past 2^64 the count is given as a
        # power, not as a number with thousands of digits
        subsets = 2 ** n if n <= 64 else f"2^{n}"
        bound = "at most " if at_most else ""
        super().__init__(f"{what} {n} exceeds cap {cap} ({bound}{subsets} subsets)")


@dataclass(frozen=True)
class Witness:
    """Vertex set, dimension, and (for J) cell attaining nonzero homology.

    For poset inputs these are cell ids; for complex inputs they are the
    complex's own vertex labels and the simplex as a vertex tuple.
    """

    S: tuple
    j: int
    sigma: object | None = None


@dataclass(frozen=True)
class LerayReport:
    value: int
    mode: str  # "exact" or "sampled"
    witness: Witness | None

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


def _as_poset(X: Space) -> SimplicialPoset:
    return X.as_poset() if isinstance(X, SimplicialComplex) else X


def _witness(X: Space, S: tuple, j: int, sigma) -> Witness:
    """A hit as a witness, in the vertex labels of a complex input."""
    if isinstance(X, SimplicialComplex):
        cell = X.ordered_simplices()
        S = tuple(sorted(v for c in S for v in cell[c]))
        sigma = None if sigma is None else tuple(sorted(cell[sigma]))
    return Witness(S, j, sigma)


def _vertex_masks(P: SimplicialPoset) -> tuple[dict, list, list]:
    """Each vertex's bit (the i-th of P's vertex order has bit i), each
    cell's vertex mask, and each cell's unique covers: the bits y for which
    it has exactly one cover with vertex set vert + y; one pass over the
    faces."""
    bit = {v: 1 << i for i, v in enumerate(P.vertex_order)}
    masks: list[int] = []
    once: list[int] = []
    twice: list[int] = []
    for c, fs in enumerate(P._faces):
        m = reduce(or_, map(masks.__getitem__, fs), bit.get(c, 0))
        masks.append(m)
        once.append(0)
        twice.append(0)
        for f in fs:
            y = m & ~masks[f]
            twice[f] |= once[f] & y
            once[f] |= y
    return bit, masks, [a & ~b for a, b in zip(once, twice)]


def _bits(m: int):
    while m:
        b = m & -m
        yield b
        m ^= b


def _pairs(sigma: int, above: list, masks: list, unique: list) -> list:
    """The lemma's pairs at sigma, as (the bits of x and y, x's bit, the
    minimal vertex masks of the bad cells): the cells > sigma with x and
    without y whose cover by y is missing or not unique.  ``above``: the
    cells > sigma.  A pair is left out when a cover of sigma by x is bad,
    as X[S] holds it whenever x is in S."""
    pairs = []
    base = masks[sigma]
    for x in _bits(reduce(or_, map(masks.__getitem__, above), 0) & ~base):
        up = [t for t in above if masks[t] & x]
        near = base | x
        for y in _bits(reduce(or_, map(masks.__getitem__, up)) & ~near):
            bad = {masks[t] for t in up if not (masks[t] | unique[t]) & y}
            if near in bad:
                continue
            kept: list[int] = []
            for m in sorted(bad, key=int.bit_count):
                if all(k & ~m for k in kept):
                    kept.append(m)
            pairs.append((x | y, x, kept))
    return pairs


def _dominated(pairs: list, S: int) -> int:
    """The bit of a vertex x dominated in the vertex mask S by one of
    ``pairs`` (x and y in S, no bad cell in X[S]), or 0."""
    outside = ~S
    for need, x, bad in pairs:
        if not need & outside:
            for m in bad:
                if not m & outside:
                    break
            else:
                return x
    return 0


def _enumerate(X: Space, cap: int, sample: int | None, seed: int,
               want_l: bool, want_j: bool) -> tuple[LerayReport, ...]:
    """Reports of the wanted indices, L's first, each with a witness."""
    P = _as_poset(X)
    V = list(P.vertex_order)
    if sample is None and len(V) > cap:
        raise CapExceeded(len(V), cap)
    bit, masks, unique = _vertex_masks(P)
    dims, lower_sets = P._dims, P._lower_sets()
    boundary = Boundary.of_faces(P._faces)
    stars: dict[int, tuple[int, list, list]] = {}
    links: dict[int, Boundary] = {}
    memo: dict[tuple[int, int, int], int | None] = {}

    def star(sigma: int) -> tuple[int, list, list]:
        """The vertex mask of sigma's closed star, the cells above sigma
        and the lemma's pairs at sigma (none when sampling), built on
        sigma's first query."""
        if sigma not in stars:
            above = [t for t in range(sigma + 1, len(dims))
                     if sigma in lower_sets[t]]
            stars[sigma] = (reduce(or_, map(masks.__getitem__, above),
                                   masks[sigma]), above,
                            [] if sample is not None
                            else _pairs(sigma, above, masks, unique))
        return stars[sigma]

    def link_top(sigma: int, S: int, top: int, floor: int) -> int | None:
        """J's answer above the least cell: the top nonzero reduced Betti
        dimension >= floor of the link of sigma in X[S], or None; None too
        when the link is dominated.  The link of sigma in X[S] is sigma and
        the cells above it whose vertex masks lie in S, selected from
        sigma's link boundary, built on its first rank.  Its answer is kept
        by sigma, S & star[sigma] and the floor."""
        # the link has dimension at most top - dim sigma - 1
        if top - dims[sigma] <= floor:
            return None
        key = (sigma, S & star(sigma)[0], floor)
        if key not in memo:
            if _dominated(star(sigma)[2], S):
                memo[key] = None
            else:
                rows, outside = link(sigma).rows, ~S
                memo[key] = top_nonzero_betti(links[sigma].select(
                    t for t in rows if not masks[t] & outside), floor)
        return memo[key]

    def link(sigma: int) -> Boundary:
        if sigma not in links:
            rows = {sigma: {}}
            for t in star(sigma)[1]:
                rows[t] = {f: a for f, a in boundary.rows[t].items()
                           if sigma in lower_sets[f]}
            links[sigma] = Boundary(rows)
        return links[sigma]

    def induced(S: int) -> tuple[list, int]:
        """The ids of the cells all of whose vertices lie in the vertex
        mask S, ascending, and the top cell dimension."""
        outside = ~S
        cells = [c for c, m in enumerate(masks) if not m & outside]
        return cells, max(dims[c] for c in cells)

    def least(cells: list, top: int, floor: int) -> int | None:
        """L's answer on X[S], which is J's at the least cell."""
        if top >= floor:
            return top_nonzero_betti(boundary.select(cells), floor)
        return None

    if sample is not None:
        # one index; for J, one random cell of X[S], drawn before any
        # pruning so that the random stream does not depend on the floor
        rng = random.Random(seed)
        best, witness = 0, None
        for _ in range(sample):
            S = tuple(v for v in V if rng.random() < 0.5)
            inside = sum(bit[v] for v in S)
            cells, top = induced(inside)
            sigma = None  # L's; for J, 0 is the least cell, asked as L
            if want_j:
                if len(cells) < 2:
                    continue
                sigma = cells[rng.randrange(len(cells))]
            j = (link_top(sigma, inside, top, best) if sigma
                 else least(cells, top, best))
            if j is not None:
                best, witness = j + 1, _witness(X, S, j, sigma)
        return (LerayReport(best, "sampled", witness),)

    # L <= J throughout, as J takes each answer of L's at or above its own
    # floor: so L's floor is the lower, and L at the ceiling finishes both;
    # each index's witness is the hit that last raised it
    ceiling, L, J = P.dim + 1, 0, 0
    wl = wj = None
    for S in chain.from_iterable(combinations(sorted(V), k)
                                 for k in range(len(V) + 1)):
        floor = L if want_l else J
        if floor == ceiling:
            break
        links_wanted = want_j and J < ceiling
        inside = sum(bit[v] for v in S)
        pruned = _dominated(star(0)[2], inside)
        if pruned and not links_wanted:
            continue
        cells, top = induced(inside)
        a = None if pruned else least(cells, top, floor)
        if a is not None:
            if want_l:
                L, wl = a + 1, (S, a, None)
            if want_j and a >= J:
                J, wj = a + 1, (S, a, 0)
        if links_wanted:
            for sigma in cells[1:]:
                j = link_top(sigma, inside, top, J)
                if j is not None:
                    J, wj = j + 1, (S, j, sigma)
    return tuple(LerayReport(value, "exact", w and _witness(X, *w))
                 for want, value, w in ((want_l, L, wl), (want_j, J, wj))
                 if want)


def leray_number(X: Space, cap: int = 16,
                 sample: int | None = None, seed: int = 0) -> LerayReport:
    """Exact L(X), or a sampled lower bound when ``sample`` is given."""
    return _enumerate(X, cap, sample, seed, True, False)[0]


def j_index(X: Space, cap: int = 16,
            sample: int | None = None, seed: int = 0) -> LerayReport:
    """Exact J(X), or a sampled lower bound when ``sample`` is given."""
    return _enumerate(X, cap, sample, seed, False, True)[0]


def leray_and_j(X: Space, cap: int = 16) -> tuple[LerayReport, LerayReport]:
    """Exact L(X) and J(X) from one walk: (leray_number(X), j_index(X))."""
    return _enumerate(X, cap, None, 0, True, True)


def format_leray(report: LerayReport, kind: str = "leray") -> str:
    """Serialize a report in the leray.v1 line format."""
    lines = ["leray v1", f"kind {kind}", f"value {report.value}",
             f"mode {report.mode}"]
    if report.witness is not None:
        w = report.witness
        sig = "" if w.sigma is None else f" sigma={w.sigma}"
        lines.append(f"witness S={','.join(str(v) for v in w.S)} j={w.j}{sig}")
    return "\n".join(lines) + "\n"
