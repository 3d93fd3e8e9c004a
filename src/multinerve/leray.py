"""Leray number L(X) and the index J(X) of a simplicial poset.

L(X) asks that every induced subposet has vanishing reduced homology from
some dimension up.  J(X) asks the same of the order complexes of all open
upper intervals in all induced subposets (the least element included, whose
upper interval complex is the barycentric subdivision).  L <= J always; on
simplicial complexes they agree.

Both come from one subset enumerator, ``_enumerate``.  What differs is its
hit function: given one induced subposet and a floor, it yields the rising
dimensions j >= floor at which a reduced Betti number is nonzero, of the
subposet itself for L and of an upper interval (with its cell) for J.  The
value is one more than the largest hit.  The enumerator has three passes:

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
from itertools import combinations
from typing import Union

from .homology import top_nonzero_betti
from .poset import SimplicialComplex, SimplicialPoset, order_complex


class CapExceeded(RuntimeError):
    """Exact enumeration refused because the vertex cap was exceeded."""

    def __init__(self, n: int, cap: int, what: str = "vertex count"):
        self.n = n
        self.cap = cap
        super().__init__(f"{what} {n} exceeds cap {cap}; "
                         "raise --cap or use sampling mode")


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


Space = Union[SimplicialPoset, SimplicialComplex]


def _as_poset(X: Space) -> SimplicialPoset:
    return X.as_poset() if isinstance(X, SimplicialComplex) else X


def _translate_witness(X: Space, w: Witness) -> Witness:
    """Rewrite a poset-id witness in the vertex labels of a complex input."""
    if not isinstance(X, SimplicialComplex):
        return w
    S = tuple(sorted(X.cell_label(v)[0] for v in w.S))
    sigma = None if w.sigma is None else X.cell_label(w.sigma)
    return Witness(S, w.j, sigma)


def _leray_hits(XS: SimplicialPoset, floor: int, rng=None):
    """The top nonzero reduced Betti dimension of XS, if it is >= floor.

    ``rng`` is unused: sampled L draws nothing beyond the subset.
    """
    if XS.dim >= floor:
        j = top_nonzero_betti(XS, floor=floor)
        if j is not None:
            yield j, None


def _is_cone_interval(XS: SimplicialPoset, up: list) -> bool:
    """Whether the interval has a maximum or minimum element.

    Its order complex is then a cone with that apex, so every reduced Betti
    number vanishes; skipping these avoids building large subdivisions of
    simplex-like regions.  (In a finite poset a unique maximal element is a
    maximum, and dually.)
    """
    n_max = sum(1 for t in up
                if not any(u != t and XS.leq(t, u) for u in up))
    if n_max == 1:
        return True
    n_min = sum(1 for t in up
                if not any(u != t and XS.leq(u, t) for u in up))
    return n_min == 1


def _j_hits(XS: SimplicialPoset, floor: int, rng=None):
    """Rising top nonzero dimensions >= floor over the open upper intervals
    of XS, each with its cell; with ``rng``, of one random cell only.

    The cell is drawn before any pruning, so the random stream does not
    depend on the floor."""
    if rng is None:
        cells = XS.cells()
    elif XS.n_cells > 1:
        cells = (rng.randrange(XS.n_cells),)
    else:
        return
    top = XS.dim
    if top < floor:
        return
    for sigma in cells:
        # dim of the open upper interval complex is at most top - dim(sigma) - 1
        if top - XS.dim_of(sigma) <= floor:
            continue
        up = XS.strictly_above(sigma)
        if not up or _is_cone_interval(XS, up):
            continue
        ddot = order_complex(up, XS.leq)
        if ddot.dim + 1 <= floor:
            continue
        j = top_nonzero_betti(ddot, floor=floor)
        if j is not None:
            yield j, sigma
            floor = j + 1


def _subsets(V: list, sizes: range):
    return (S for size in sizes for S in combinations(V, size))


def _witness(S: tuple, j: int, sigma, old_ids: tuple) -> Witness:
    return Witness(S, j, None if sigma is None else old_ids[sigma])


def _enumerate(X: Space, hits, cap: int, sample: int | None,
               seed: int) -> LerayReport:
    """Value of the index whose hit function is ``hits``, with a witness."""
    P = _as_poset(X)
    V = list(P.vertex_order)
    if sample is not None:
        rng = random.Random(seed)
        best, witness = 0, None
        for _ in range(sample):
            S = tuple(v for v in V if rng.random() < 0.5)
            XS, old_ids = P.induced_with_map(S)
            for j, sigma in hits(XS, best, rng):
                best, witness = j + 1, _witness(S, j, sigma, old_ids)
        return LerayReport(best, "sampled", witness)
    if len(V) > cap:
        raise CapExceeded(len(V), cap)

    best, ceiling = 0, P.dim + 1
    for S in _subsets(V, range(len(V), -1, -1)):
        if best == ceiling:
            break
        for j, _ in hits(P.induced_subposet(S), best):
            best = j + 1
    if best == 0:
        return LerayReport(0, "exact", None)

    # nothing is alive at or above dimension best, so the first hit at
    # floor best - 1 is a nonzero Betti number in that dimension
    for S in _subsets(sorted(V), range(len(V) + 1)):
        XS, old_ids = P.induced_with_map(S)
        for j, sigma in hits(XS, best - 1):
            witness = _translate_witness(X, _witness(S, j, sigma, old_ids))
            return LerayReport(best, "exact", witness)
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
    P = _as_poset(X)
    return P.is_simplex()


def format_leray(report: LerayReport, kind: str = "leray") -> str:
    """Serialize a report in the leray.v1 line format."""
    lines = ["leray v1", f"kind {kind}", f"value {report.value}",
             f"mode {report.mode}"]
    if report.witness is not None:
        w = report.witness
        sig = "" if w.sigma is None else f" sigma={w.sigma}"
        lines.append(f"witness S={','.join(str(v) for v in w.S)} j={w.j}{sig}")
    return "\n".join(lines) + "\n"
