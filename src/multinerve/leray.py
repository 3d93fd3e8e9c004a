"""Leray number L(X) and the index J(X) of a simplicial poset.

L(X) asks that every induced subposet has vanishing reduced homology from
some dimension up.  J(X) asks the same of the order complexes of all open
upper intervals in all induced subposets (the least element included, whose
upper interval complex is the barycentric subdivision).  They are equal
(the theorem below), so J is L's walk, exact or sampled.

L builds no new poset or complex: X[S], the cells whose vertices all lie
in S (by vertex bitmask), is selected from X's signed rows, and keeps
d o d = 0 (proved in ``homology``).  For J, the cells tau >= sigma of
X[S] are the face poset of a regular CW complex, the link Lk(sigma, X[S])
(Bjorner 1984), whose barycentric subdivision is the order complex of
(sigma, .); so its cellular chain complex, X's rows of the cells
tau > sigma less the faces not >= sigma with sigma the augmentation
(C(X[S], X[S] - st sigma) shifted down by dim sigma + 1), has the reduced
homology J needs.  At the least cell (dimension -1, and id 0, as faces
have smaller ids) nothing is left out and the shift is 0: the link is X[S]
with X's rows.  So L is J's term at the least cell, and L <= J.

Theorem.  J(X) = L(X), and J's witness is L's, at the least cell.

Proof.  Let H~_d(Lk(sigma, Y)) != 0 for Y = X[S], d >= 0 and sigma above
the least cell, on the vertex set T, |T| = k + 1.  Let A be the union of
the X[S - u], u in T: the cells of Y that miss a vertex of T.  A cell of
Y - A has one face on T, as its lower interval is Boolean, and its faces
outside A lie above that face.  So Y - A splits into the disjoint upper
sets of sigma and its twins (the cells on T), and C(Y, A) is the direct
sum of their link complexes, shifted up by k + 1.  Then H_{d+k+1}(Y, A)
!= 0, and the exact sequence of the pair gives H~_{d+k+1}(Y) != 0 or
H~_{d+k}(A) != 0.  The X[S - u] cover A, and each intersection of them is
an induced X[S - U], U a nonempty subset of T.  All of them hold the least
cell, so the Mayer-Vietoris spectral sequence of the cover works on
augmented chains, with E^1_{p,q} the sum of H~_q(X[S - U]) over
|U| = p + 1 <= k + 1.  So H~_{d+k}(A) != 0 gives H~_q(X[S - U]) != 0 for
some U and q >= d.  Either way L >= d + 1, so J <= L.  At d = L - 1 the
first case cannot occur, as nothing is alive at or above L; the hit is
then in dimension d of some X[S - U], which the walk below visits before
S.  So the first hit in dimension J - 1 is at the least cell.  On a
complex sigma has no twins; twins only add summands.

Most X[S] need no rank, because a smaller subset gives the same homology.

Lemma.  Take x, y in S.  Suppose every cell tau of X[S] with x and
without y has exactly one cover tau + y with vertex set vert(tau) + y.
Then X[S] and X[S - x] have the same reduced homology.

Proof.  Let C be the chain complex of X[S] and C' its subcomplex on the
cells without x, the chain complex of X[S - x]; D = C / C' has the cells
with x, those >= the vertex x, as a basis.  A cell rho of D with y has one
face tau without y (its Boolean interval [least, rho] holds one cell per
vertex subset), and tau is in D, so rho = tau + y; each other face of rho
in D is phi + y for a face phi of tau in D, again by Boolean intervals and
the uniqueness of covers by y.  Let h send tau in D without y to
e(tau) (tau + y), e(tau) = +-1 the entry of tau in the row of tau + y,
and the cells with y to 0.  d o d = 0 on the square phi < tau,
phi + y < tau + y gives e(tau) [tau + y : phi + y] = -e(phi) [tau : phi],
so dh + hd = 1 on D.  D is contractible, and the long exact sequence of
0 -> C' -> C -> D -> 0 gives H(C') = H(C).  The pairs (tau, tau + y)
form an acyclic matching (Forman 1998); for complexes this is the strong
collapse of a dominated vertex (Barmak-Minian 2012).

"Exactly one" is needed: in the double edge, x and y joined by two edges,
x has two covers by y, and X[{x, y}] is a circle while X[{y}] is a point.

The lemma's data depend on S only through vertex masks.  One pass over
the faces notes, for each cell, the vertices by which it has exactly one
cover.  The exact walk keeps the pairs (x, y), each with the minimal
vertex masks of its bad cells: the cells with x and without y whose cover
by y is missing or not unique.  x is dominated in S when x and y are in S
and no bad mask lies inside S; then X[S] is not asked.  X[S - x] has the
same homology, and the walk visits it earlier, at a floor no higher; the
floor then rose past every dimension it has alive, so X[S] would answer
None.  Values and witnesses are those of the walk without pruning.  Only
y that cover x's vertex cell once are tried: that cell lies in X[S]
whenever x does, and it is the first cell holding x, as every such cell
lies above it and faces have smaller ids.  A pair with no bad cell
dominates x in every S holding x and y.  Those unconditional pairs are
the edges of a graph, and a subset holding an edge is never asked, so
the exact walk makes only the independent sets of that graph: the other
subsets are dropped unmade, the order of those kept is unchanged, and
only the conditional pairs are tested.

``_enumerate`` prepares X once per call: unique covers and X's rows,
read from P's validated tuples with no per-call id check (every id comes
from P itself), beside the cell vertex masks ``build_poset`` kept.  A hit
is a dimension j >= floor at which a reduced Betti number is nonzero; an
index's value is one more than its largest hit.  One loop serves L and J:
it ranks X[S] at the floor for each vertex set S it is given, raises the
floor past each hit, and stops once the floor reaches dim + 1, which no
hit can pass.  X[S] can hit only with a cell of dimension >= floor, and
it has one exactly when it has a cell of dimension floor, a face of any
higher one; so S is first tested against the distinct vertex masks of
X's cells of that dimension, and X[S]'s cells are listed only for the S
that pass it and the domination test.  J's witness is L's, with sigma
the least cell.  The vertex sets come from one of two sources:

* exact, which also yields the witness: the independent sets above, as
  masks of the sorted vertices, smallest first, then lexicographic, made
  lazily in constant memory.  Nothing is alive at or above the final
  value, so the first hit in dimension value - 1 meets a floor at most
  value - 1 and raises the index to its value, and no later hit raises it
  again: the hit that last raised it is its witness;
* sampled, instead: ``sample`` random subsets, which give a labeled lower
  bound.  It does not prune: it need never draw the smaller subset, so
  pruning would lower its bound and move its witness.

Exact enumeration is exponential in the vertex count, so it refuses inputs
past the vertex cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .homology import ChainComplex, Space, _signed_rows, top_nonzero_betti
from .poset import SimplicialComplex, SimplicialPoset, _bit_ids, _bits


class CapExceeded(RuntimeError):
    """Exact enumeration refused because the vertex cap was exceeded."""

    def __init__(self, n: int, cap: int, what: str = "vertex count"):
        self.n = n
        self.cap = cap
        # an exact walk skips subsets and may stop early, so it visits at
        # most every subset; past 2^64 the count is given as a power, not
        # as a number with thousands of digits
        subsets = 2 ** n if n <= 64 else f"2^{n}"
        super().__init__(f"{what} {n} exceeds cap {cap} (at most {subsets} subsets)")


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


def _vertex_masks(P: SimplicialPoset) -> tuple[tuple, list]:
    """Each cell's vertex mask (``P._verts``: the i-th vertex of P's vertex
    order has bit i) and each cell's unique covers: the bits y for which it
    has exactly one cover with vertex set vert + y; one pass over the
    faces."""
    masks = P._verts
    once = [0] * len(masks)
    twice = [0] * len(masks)
    for fs, m in zip(P._faces, masks):
        for f in fs:
            y = m & ~masks[f]
            twice[f] |= once[f] & y
            once[f] |= y
    return masks, [a & ~b for a, b in zip(once, twice)]


def _pairs(masks: list, unique: list) -> tuple[dict, list]:
    """The lemma's pairs at the least cell, y tried among the unique covers
    of x's vertex cell: each vertex bit's neighbours (a mask) in the graph
    of the unconditional pairs, and the other pairs as (the bits of x and
    y, x's bit, the minimal vertex masks of the bad cells)."""
    up: dict[int, list] = {}
    for t, m in enumerate(masks):
        for x in _bits(m):
            up.setdefault(x, []).append(t)
    adjacent, pairs = dict.fromkeys(up, 0), []
    for x, cells in up.items():
        tried = sure = unique[cells[0]]
        for t in cells:
            sure &= masks[t] | unique[t]
        for y in _bits(sure):
            adjacent[x] |= y
            adjacent[y] |= x
        for y in _bits(tried ^ sure):
            bad = {masks[t] for t in cells if not (masks[t] | unique[t]) & y}
            kept: list[int] = []
            for m in sorted(bad, key=int.bit_count):
                if all(k & ~m for k in kept):
                    kept.append(m)
            pairs.append((x | y, x, kept))
    return adjacent, pairs


def _independent(n: int, adjacent: dict):
    """The independent sets of the graph ``adjacent`` (each bit's
    neighbours) on the bits 1 << i, i < n, as masks in (size, lex) order:
    depth first per size k, the stack holds at most k (set, bits allowed
    above its last bit); a set with too few allowed bits to reach k is
    done.  A size with no independent set ends the walk, as every larger
    set holds one of that size."""
    yield 0
    for k in range(1, n + 1):
        found, stack = False, [(0, (1 << n) - 1)]
        while stack:
            S, allowed = stack.pop()
            need = k - len(stack)
            if need == 1:
                found = found or allowed != 0
                while allowed:
                    b = allowed & -allowed
                    yield S | b
                    allowed ^= b
            elif allowed.bit_count() >= need:
                b = allowed & -allowed
                allowed ^= b
                stack.append((S, allowed))
                stack.append((S | b, allowed & ~adjacent[b]))
        if not found:
            return


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
               sigma: int | None) -> LerayReport:
    """L's report, with ``sigma`` the witness's cell: None for L, and the
    least cell, 0, for J.  X[S] is listed and ranked only for the S that
    pass the dimension gate and the domination test."""
    P = _as_poset(X)
    V = P.vertex_order
    n = len(V)
    masks, unique = _vertex_masks(P)
    if sample is None:
        if n > cap:
            raise CapExceeded(n, cap)
        adjacent, pairs = _pairs(masks, unique)
        subsets = _independent(n, adjacent)
    else:
        rng = random.Random(seed)
        subsets = (sum(1 << i for i in range(n) if rng.random() < 0.5)
                   for _ in range(sample))
        pairs = []
    rows = _signed_rows(P._faces)
    ceiling, best, hit = P.dim + 1, 0, None
    tops = {masks[c] for c in V}
    for inside in subsets:
        if best == ceiling:
            break
        outside = ~inside
        for m in tops:
            if not m & outside:
                break
        else:
            continue  # X[S] has no cell of dimension best
        if _dominated(pairs, inside):
            continue
        cells = [c for c, m in enumerate(masks) if not m & outside]
        a = top_nonzero_betti(ChainComplex.select(rows, cells), best)
        if a is not None:
            best, hit = a + 1, (inside, a)
            tops = {masks[c] for c in P.cells_of_dim(best)}
    mode = "exact" if sample is None else "sampled"
    witness = None
    if hit is not None:
        # the last hit's vertices, sorted as the vertex order is
        S = tuple(map(V.__getitem__, _bit_ids(hit[0])))
        witness = _witness(X, S, hit[1], sigma)
    return LerayReport(best, mode, witness)


def leray_number(X: Space, cap: int = 16,
                 sample: int | None = None, seed: int = 0) -> LerayReport:
    """Exact L(X), or a sampled lower bound when ``sample`` is given."""
    return _enumerate(X, cap, sample, seed, None)


def j_index(X: Space, cap: int = 16,
            sample: int | None = None, seed: int = 0) -> LerayReport:
    """Exact J(X), which is L(X) with its witness at the least cell, or a
    sampled lower bound when ``sample`` is given."""
    return _enumerate(X, cap, sample, seed, 0)


def format_leray(report: LerayReport, kind: str = "leray") -> str:
    """Serialize a report in the leray.v1 line format."""
    lines = ["leray v1", f"kind {kind}", f"value {report.value}",
             f"mode {report.mode}"]
    if report.witness is not None:
        w = report.witness
        sig = "" if w.sigma is None else f" sigma={w.sigma}"
        lines.append(f"witness S={','.join(str(v) for v in w.S)} j={w.j}{sig}")
    return "\n".join(lines) + "\n"
