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
complex, the link of sigma (Bjorner 1984), whose barycentric subdivision
is the order complex of (sigma, .); so its cellular chain complex has the
reduced homology J needs.  It is selected from sigma's link boundary:
X's rows of the cells tau > sigma less the faces not >= sigma, sigma the
augmentation, C(X, X - st sigma) shifted down by dim sigma + 1.  At the
least cell (dimension -1, and id 0, as faces have smaller ids) nothing is
left out and the shift is 0: the link is X[S] with X's rows.  So L is J's
term at the least cell, and one walk serves both.

``_enumerate`` is that walk, told which indices are wanted.  It prepares X
once per call: cell vertex masks and X's boundary, read from P's validated
tuples with no per-call id check (every id comes from P itself), and for
J each other cell's link boundary and the vertex mask of its closed star.
A hit is a dimension j >= floor at which a reduced Betti number is
nonzero: of X[S] (the least cell's answer, L's hit), or of the link of a
cell of X[S] above the least, which J also asks.  Link answers are
memoized for the call by (sigma, S & star sigma, floor): the link holds
only cells above sigma, whose vertices lie in star sigma, so two vertex
sets that agree on star sigma give the same link.  An index's value is
one more than its largest hit.  The walk has three passes:

* exact: every vertex subset, largest first, with each floor raised past
  each hit, until every wanted value reaches dim + 1.  X[S] is asked once,
  at L's floor when L is wanted and at J's otherwise; J counts its answer
  when it is >= J's floor;
* witness, per index: the subsets of the sorted vertices, smallest first,
  at floor value - 1; nothing is alive above that, so the first hit is a
  nonzero Betti number in dimension value - 1;
* sampled, instead of both, for one index: random subsets (and for J one
  random cell each), which give a labeled lower bound.

Exact enumeration is exponential in the vertex count, so it refuses inputs
past the vertex cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
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


def _link_tops(P: SimplicialPoset, masks: list, X: Boundary):
    """J's answers on P above the least cell (id 0, as faces have smaller
    ids): the top nonzero reduced Betti dimension >= floor of the link of
    sigma in X[S], or None.

    The link of sigma in X[S] is sigma and the cells above it whose vertex
    masks lie in S.  Its answer is kept by sigma, S & star[sigma] and the
    floor."""
    dims = P._dims
    lower_sets = P._lower_sets()
    rows: list[dict[int, dict]] = [{sigma: {}} for sigma in range(len(dims))]
    for t, lower in enumerate(lower_sets):
        for sigma in lower - {0, t}:
            rows[sigma][t] = {f: a for f, a in X.rows[t].items()
                              if sigma in lower_sets[f]}
    links = {sigma: Boundary(rows[sigma]) for sigma in range(1, len(dims))}
    star = {sigma: reduce(or_, map(masks.__getitem__, link.rows))
            for sigma, link in links.items()}
    memo: dict[tuple[int, int, int], int | None] = {}

    def link_top(sigma: int, S: int, top: int, floor: int) -> int | None:
        # the link has dimension at most top - dim sigma - 1
        if top - dims[sigma] <= floor:
            return None
        key = (sigma, S & star[sigma], floor)
        if key not in memo:
            link, outside = links[sigma], ~S
            memo[key] = top_nonzero_betti(link.select(
                t for t in link.rows if not masks[t] & outside), floor)
        return memo[key]
    return link_top


def _subsets(V: list, sizes: range):
    return (S for size in sizes for S in combinations(V, size))


def _enumerate(X: Space, cap: int, sample: int | None, seed: int,
               want_l: bool, want_j: bool) -> tuple[LerayReport, ...]:
    """Reports of the wanted indices, L's first, each with a witness."""
    P = _as_poset(X)
    V = list(P.vertex_order)
    if sample is None and len(V) > cap:
        raise CapExceeded(len(V), cap)
    bit = {v: 1 << i for i, v in enumerate(V)}
    masks = [sum(bit[v] for v in vs) for vs in P._verts]
    dims = P._dims
    boundary = Boundary.of_faces(P._faces)
    link_top = _link_tops(P, masks, boundary) if want_j else None

    def induced(S: tuple) -> tuple[list, int, int]:
        """The ids of the cells all of whose vertices lie in S, ascending,
        the vertex mask of S and the top cell dimension."""
        inside = sum(bit[v] for v in S)
        outside = ~inside
        cells = [c for c, m in enumerate(masks) if not m & outside]
        return cells, inside, max(dims[c] for c in cells)

    def least(cells: list, top: int, floor: int) -> int | None:
        """L's answer on X[S], which is J's at the least cell."""
        if top >= floor:
            return top_nonzero_betti(boundary.select(cells), floor)
        return None

    def hits(cells: list, S: int, top: int, floor: int, a: int | None,
             links: bool):
        """Rising hits >= floor in X[S], each with its cell (None for L):
        ``a``, the least cell's answer asked at a floor <= floor, then with
        ``links`` those of the links of the cells above it."""
        if a is not None and a >= floor:
            yield a, 0 if links else None
            floor = a + 1
        for sigma in cells[1:] if links else ():
            j = link_top(sigma, S, top, floor)
            if j is not None:
                yield j, sigma
                floor = j + 1

    if sample is not None:
        # one index; for J, one random cell of X[S], drawn before any
        # pruning so that the random stream does not depend on the floor
        rng = random.Random(seed)
        best, witness = 0, None
        for _ in range(sample):
            S = tuple(v for v in V if rng.random() < 0.5)
            cells, inside, top = induced(S)
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
    # floor: so L's floor is the lower, and L at the ceiling finishes both
    ceiling, L, J = P.dim + 1, 0, 0
    for S in _subsets(V, range(len(V), -1, -1)):
        floor = L if want_l else J
        if floor == ceiling:
            break
        cells, inside, top = induced(S)
        a = least(cells, top, floor)
        if want_l and a is not None:
            L = a + 1
        if want_j and J < ceiling:
            for j, _ in hits(cells, inside, top, J, a, True):
                J = j + 1

    def report(value: int, links: bool) -> LerayReport:
        if value == 0:
            return LerayReport(0, "exact", None)
        # nothing is alive at or above dimension value, so the first hit at
        # floor value - 1 is a nonzero Betti number in that dimension
        floor = value - 1
        for S in _subsets(sorted(V), range(len(V) + 1)):
            cells, inside, top = induced(S)
            a = least(cells, top, floor)
            for j, sigma in hits(cells, inside, top, floor, a, links):
                return LerayReport(value, "exact", _witness(X, S, j, sigma))
        raise AssertionError("no witness found for the computed value")

    return tuple(report(value, links) for want, value, links
                 in ((want_l, L, False), (want_j, J, True)) if want)


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


def is_simplex(X: Space) -> bool:
    """Whether the space is a (possibly empty) single simplex with its faces."""
    return _as_poset(X).is_simplex()


def format_leray(report: LerayReport, kind: str = "leray") -> str:
    """Serialize a report in the leray.v1 line format."""
    lines = ["leray v1", f"kind {kind}", f"value {report.value}",
             f"mode {report.mode}"]
    if report.witness is not None:
        w = report.witness
        sig = "" if w.sigma is None else f" sigma={w.sigma}"
        lines.append(f"witness S={','.join(str(v) for v in w.S)} j={w.j}{sig}")
    return "\n".join(lines) + "\n"
