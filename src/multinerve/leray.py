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
augmentation, C(X, X - st sigma) shifted down by dim sigma + 1.

Both come from one subset enumerator, ``_enumerate``.  It prepares X once
per call: cell vertex masks and X's boundary, read from P's validated
tuples with no per-call id check (every id comes from P itself), and for
J each sigma's link boundary and the vertex mask of its closed star.  What
differs is the hit function: given the cells of X[S], the mask of S and a
floor, it yields the rising dimensions j >= floor at which a reduced Betti
number is nonzero, of X[S] for L and of a link (with its cell) for J.
Link answers are memoized for the call by (sigma, S & star sigma, floor):
the link holds only cells above sigma, whose vertices lie in star sigma,
so two vertex sets that agree on star sigma give the same link.  The value
is one more than the largest hit.  The enumerator has three passes:

* exact: every vertex subset, largest first, with the floor raised past
  each hit, until the value reaches dim + 1;
* witness: the subsets of the sorted vertices, smallest first, at floor
  value - 1; nothing is alive above that, so the first hit is a nonzero
  Betti number in dimension value - 1;
* sampled, instead of both: random subsets (and for J one random cell
  each), which give a labeled lower bound.

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


def _leray_hits(P: SimplicialPoset, masks: list, X: Boundary):
    """L's hit function on P: the top nonzero reduced Betti dimension of
    the cells of X[S], selected from X, if >= floor.  ``S`` and ``rng`` are
    unused: distinct vertex sets give distinct X[S], and sampled L draws
    nothing beyond the subset."""
    dims = P._dims

    def hits(cells: list, S: int, floor: int, rng=None):
        if max(dims[c] for c in cells) >= floor:
            j = top_nonzero_betti(X.select(cells), floor)
            if j is not None:
                yield j, None
    return hits


def _j_hits(P: SimplicialPoset, masks: list, X: Boundary):
    """J's hit function on P: rising top nonzero dimensions >= floor over
    the links of the cells of X[S], each with its cell; with ``rng``, of
    one random cell.

    The link of sigma in X[S] is sigma and the cells above it whose vertex
    masks lie in S.  Its answer is kept by sigma, S & star[sigma] and the
    floor.  The cell is drawn before any pruning, so the random stream
    does not depend on the floor."""
    dims = P._dims
    lower_sets = P._lower_sets()
    rows: list[dict[int, dict]] = [{sigma: {}} for sigma in range(len(dims))]
    for t, lower in enumerate(lower_sets):
        for sigma in lower - {t}:
            rows[sigma][t] = {f: a for f, a in X.rows[t].items()
                              if sigma in lower_sets[f]}
    links = [Boundary(r) for r in rows]
    star = [reduce(or_, map(masks.__getitem__, r)) for r in rows]
    memo: dict[tuple[int, int, int], int | None] = {}

    def hits(cells: list, S: int, floor: int, rng=None):
        if rng is None:
            sigmas = cells
        elif len(cells) > 1:
            sigmas = (cells[rng.randrange(len(cells))],)
        else:
            return
        top = max(dims[c] for c in cells)
        if top < floor:
            return
        outside = ~S
        for sigma in sigmas:
            # the link has dimension at most top - dim sigma - 1
            if top - dims[sigma] <= floor:
                continue
            key = (sigma, S & star[sigma], floor)
            if key not in memo:
                link = links[sigma]
                memo[key] = top_nonzero_betti(link.select(
                    t for t in link.rows if not masks[t] & outside), floor)
            j = memo[key]
            if j is not None:
                yield j, sigma
                floor = j + 1
    return hits


def _subsets(V: list, sizes: range):
    return (S for size in sizes for S in combinations(V, size))


def _enumerate(X: Space, prepare, cap: int, sample: int | None,
               seed: int) -> LerayReport:
    """Value of the index whose hit function ``prepare`` builds, with a
    witness."""
    P = _as_poset(X)
    V = list(P.vertex_order)
    if sample is None and len(V) > cap:
        raise CapExceeded(len(V), cap)
    bit = {v: 1 << i for i, v in enumerate(V)}
    masks = [sum(bit[v] for v in vs) for vs in P._verts]
    hits = prepare(P, masks, Boundary.of_faces(P._faces))

    def induced(S: tuple) -> tuple[list, int]:
        """The ids of the cells all of whose vertices lie in S, ascending,
        and the vertex mask of S."""
        inside = sum(bit[v] for v in S)
        outside = ~inside
        return [c for c, m in enumerate(masks) if not m & outside], inside

    if sample is not None:
        rng = random.Random(seed)
        best, witness = 0, None
        for _ in range(sample):
            S = tuple(v for v in V if rng.random() < 0.5)
            for j, sigma in hits(*induced(S), best, rng):
                best, witness = j + 1, _witness(X, S, j, sigma)
        return LerayReport(best, "sampled", witness)

    best, ceiling = 0, P.dim + 1
    for S in _subsets(V, range(len(V), -1, -1)):
        if best == ceiling:
            break
        for j, _ in hits(*induced(S), best):
            best = j + 1
    if best == 0:
        return LerayReport(0, "exact", None)

    # nothing is alive at or above dimension best, so the first hit at
    # floor best - 1 is a nonzero Betti number in that dimension
    for S in _subsets(sorted(V), range(len(V) + 1)):
        for j, sigma in hits(*induced(S), best - 1):
            return LerayReport(best, "exact", _witness(X, S, j, sigma))
    raise AssertionError("no witness found for the computed value")


def leray_number(X: Space, cap: int = 16,
                 sample: int | None = None, seed: int = 0) -> LerayReport:
    """Exact L(X), or a sampled lower bound when ``sample`` is given."""
    return _enumerate(X, _leray_hits, cap, sample, seed)


def j_index(X: Space, cap: int = 16,
            sample: int | None = None, seed: int = 0) -> LerayReport:
    """Exact J(X), or a sampled lower bound when ``sample`` is given."""
    return _enumerate(X, _j_hits, cap, sample, seed)


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
