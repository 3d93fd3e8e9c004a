"""Independent oracles and instance generators for the test suite.

Everything here deliberately avoids the production code paths it is used to
check: ranks come from dense Gauss-Jordan over Fractions (the library uses
sparse fraction-free integer elimination), boundary matrices are rebuilt
from scratch, and the lattice oracle never uses the rank-nullity shortcut
for cycle spaces at all.
"""

from __future__ import annotations

import random
import weakref
from fractions import Fraction
from itertools import combinations, permutations, product

from multinerve import (SimplicialComplex, SimplicialPoset, box, box_family,
                        build_poset, euler_characteristic, order_complex,
                        random_family, reduced_betti, subcomplex_family)
from multinerve.formats import write_family


# ---------------------------------------------------------------------------
# desk-scale views of complexes and maps, and isomorphism testing


def simplices_of_dim(K: SimplicialComplex, d: int) -> list[tuple]:
    return sorted(tuple(sorted(s)) for s in K.simplices if len(s) == d + 1)


def induced(K: SimplicialComplex, S) -> SimplicialComplex:
    S = set(S)
    return SimplicialComplex((s for s in K.simplices if set(s) <= S),
                             closed=True)


def grid_triangulation_oracle(g: int) -> SimplicialComplex:
    """The g-by-g grid triangulation as the closure of its triangles."""
    def v(i: int, j: int) -> int:
        return i * (g + 1) + j

    tris = []
    for i in range(g):
        for j in range(g):
            tris.append((v(i, j), v(i + 1, j), v(i, j + 1)))
            tris.append((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))
    return SimplicialComplex(tris)


def closed_star_oracle(T: SimplicialComplex, vertex) -> set[frozenset]:
    """The closed star of a vertex by a scan of all of T: the simplices
    holding it, and each one's faces (to codimension 2, enough for T of
    dimension at most 2)."""
    star = {s for s in T.simplices if vertex in s}
    out = set()
    for s in star:
        out.add(s)
        for v in s:
            out.add(s - {v})
            for w in s - {v}:
                out.add(s - {v, w})
    return {s for s in out if s}


def fiber_sizes(pi) -> dict[int, int]:
    """The number of source cells over each target cell of a map."""
    out: dict[int, int] = {}
    for c in pi.source.cells():
        y = pi.mapping[c]
        out[y] = out.get(y, 0) + 1
    return out


def _refine_colors(X: SimplicialPoset) -> list:
    colors: list = [(X.dim_of(c),) for c in X.cells()]
    while True:
        sig = [(colors[c], tuple(colors[f] for f in X.faces_of(c))) for c in X.cells()]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return new
        colors = new


def poset_isomorphic(X: SimplicialPoset, Y: SimplicialPoset) -> bool:
    """Face-order-preserving isomorphism test by color refinement + backtracking."""
    if X.n_cells != Y.n_cells or sorted(X._dims) != sorted(Y._dims):
        return False
    cx, cy = _refine_colors(X), _refine_colors(Y)
    if sorted(cx) != sorted(cy):
        return False
    by_color: dict[int, list[int]] = {}
    for c in Y.cells():
        by_color.setdefault(cy[c], []).append(c)

    order = sorted(X.cells(), key=lambda c: (X.dim_of(c), c))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def assign(k: int) -> bool:
        if k == len(order):
            return True
        c = order[k]
        for d in by_color.get(cx[c], ()):
            if d in used or Y.dim_of(d) != X.dim_of(c):
                continue
            if tuple(mapping[f] for f in X.faces_of(c)) != Y.faces_of(d):
                continue
            mapping[c] = d
            used.add(d)
            if assign(k + 1):
                return True
            del mapping[c]
            used.discard(d)
        return False

    return assign(0)


def complexes_isomorphic(K: SimplicialComplex, L: SimplicialComplex) -> bool:
    """Brute-force isomorphism test; intended for small vertex counts."""
    if len(K.vertices) != len(L.vertices) or len(K.simplices) != len(L.simplices):
        return False
    for perm in permutations(L.vertices):
        relabel = dict(zip(K.vertices, perm))
        if {frozenset(relabel[v] for v in s) for s in K.simplices} == set(L.simplices):
            return True
    return False


# ---------------------------------------------------------------------------
# dense exact rank (independent of multinerve.homology.sparse_rank)


def gauss_jordan_rank(rows: list[list]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def assert_dd_zero(rows) -> None:
    """Raise AssertionError unless d o d = 0 on ``rows``: signed boundary
    rows keyed by cell id (face id -> entry), or, given a chain complex,
    the rows its ``boundary`` files by dimension.  For each cell c, the sum
    of row_c[f] * row_f over its faces f must vanish in every entry.  Uses
    nothing from ``multinerve``."""
    if hasattr(rows, "boundary"):
        rows = {c: row for per_dim in rows.boundary.values()
                for c, row in per_dim.items()}
    for c, row in rows.items():
        acc: dict = {}
        for f, a in row.items():
            for g, b in rows[f].items():
                acc[g] = acc.get(g, 0) + a * b
        if any(acc.values()):
            raise AssertionError(f"boundary of boundary nonzero at cell {c}")


def dense_boundaries(K: SimplicialComplex) -> tuple[dict, dict]:
    """Bases and dense boundary matrices of the augmented chain complex."""
    basis = {}
    for d in range(-1, K.dim + 1):
        basis[d] = sorted(tuple(sorted(s)) for s in K.simplices if len(s) == d + 1)
    index = {d: {s: i for i, s in enumerate(b)} for d, b in basis.items()}
    boundary = {}
    for d in range(0, K.dim + 1):
        rows = []
        for s in basis[d]:
            row = [0] * len(basis[d - 1])
            for i in range(len(s)):
                row[index[d - 1][s[:i] + s[i + 1:]]] += (-1) ** i
            rows.append(row)
        boundary[d] = rows
    return basis, boundary


def betti_oracle_gj(K: SimplicialComplex) -> dict[int, int]:
    """Reduced Betti numbers via dense Gauss-Jordan ranks."""
    basis, boundary = dense_boundaries(K)
    ranks = {d: gauss_jordan_rank(rows) for d, rows in boundary.items()}
    out = {}
    for d in range(-1, K.dim + 1):
        b = len(basis[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def betti_oracle_lattice(K: SimplicialComplex) -> dict[int, int]:
    """Reduced Betti numbers by enumerating cycle and boundary subspaces.

    Every vector of the cycle space with entries in {-1, 0, 1} is found by
    direct enumeration; on complexes with at most 4 vertices these span the
    whole cycle space, so the rank of the found set is the cycle rank.
    Boundaries are spanned by the images of the basis simplices.
    """
    if len(K.vertices) > 4:
        raise ValueError("lattice oracle is only proven complete up to 4 vertices")
    basis, boundary = dense_boundaries(K)
    out = {}
    for d in range(-1, K.dim + 1):
        c = len(basis[d])
        rows = boundary.get(d)  # c x c_{d-1}
        cycles = []
        for vec in product((-1, 0, 1), repeat=c):
            if not any(vec):
                continue
            if rows is None or not rows or not rows[0]:
                cycles.append(list(vec))
                continue
            image = [sum(vec[i] * rows[i][j] for i in range(c))
                     for j in range(len(rows[0]))]
            if not any(image):
                cycles.append(list(vec))
        z = gauss_jordan_rank(cycles)
        upper = boundary.get(d + 1, [])
        b = gauss_jordan_rank([list(r) for r in upper])
        if z - b:
            out[d] = z - b
    return out


# ---------------------------------------------------------------------------
# Euler characteristic against the library's Betti numbers


def betti_sum_check(X) -> bool:
    """Euler characteristic equals the alternating sum of unreduced Betti numbers."""
    b = reduced_betti(X)
    if b[-1]:
        # empty space: chi = 0 and no unreduced homology at all
        return euler_characteristic(X) == 0
    dims = [d for d, _ in b.items() if d >= 0]
    top = max(dims) if dims else 0
    unreduced = sum((-1) ** n * (b[n] + (1 if n == 0 else 0))
                    for n in range(0, top + 1))
    return euler_characteristic(X) == unreduced


# ---------------------------------------------------------------------------
# brute-force Leray number from the definition, using the oracle homology


def leray_oracle(K: SimplicialComplex) -> int:
    best = 0
    for size in range(len(K.vertices) + 1):
        for S in combinations(K.vertices, size):
            bet = betti_oracle_gj(induced(K, S))
            for d, v in bet.items():
                if d >= 0 and v:
                    best = max(best, d + 1)
    return best


def poset_betti_gj(P: SimplicialPoset, cells) -> dict[int, int]:
    """Reduced Betti numbers of the cells ``cells`` of P, a set closed
    downward, via dense Gauss-Jordan ranks: face i of a cell enters its
    boundary row as (-1)^i."""
    by_dim: dict[int, list] = {}
    for c in sorted(cells):
        by_dim.setdefault(P.dim_of(c), []).append(c)
    index = {d: {c: i for i, c in enumerate(cs)} for d, cs in by_dim.items()}
    ranks = {}
    for d, cs in by_dim.items():
        if d >= 0:
            rows = []
            for c in cs:
                row = [0] * len(by_dim[d - 1])
                for i, f in enumerate(P.faces_of(c)):
                    row[index[d - 1][f]] += (-1) ** i
                rows.append(row)
            ranks[d] = gauss_jordan_rank(rows)
    out = {}
    for d, cs in by_dim.items():
        b = len(cs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


def poset_leray_oracle(P: SimplicialPoset) -> int:
    """L(P) from the definition: one more than the largest dimension >= 0
    with nonzero reduced homology of an induced subposet, else 0."""
    best, verts = 0, vertex_sets(P)
    for size in range(len(P.vertex_order) + 1):
        for S in combinations(P.vertex_order, size):
            cells = [c for c in P.cells() if verts[c] <= set(S)]
            for d in poset_betti_gj(P, cells):
                if d >= 0:
                    best = max(best, d + 1)
    return best


def cover_counts(P: SimplicialPoset) -> dict:
    """``covers[t, y]``: the number of covers of the cell t with vertex set
    vert(t) + y."""
    verts = vertex_sets(P)
    covers: dict[tuple, int] = {}
    for r in P.cells():
        for t in P.faces_of(r):
            [y] = verts[r] - verts[t]
            covers[t, y] = covers.get((t, y), 0) + 1
    return covers


def dominated_by(x, y, cells, verts: list, covers: dict) -> bool:
    """x is dominated by y in the subposet of the ``cells``: every one of
    them with x and without y has exactly one cover with vertex set
    vert + y (``covers[t, y]`` of them)."""
    return all(covers.get((t, y), 0) == 1 for t in cells
               if x in verts[t] and y not in verts[t])


def _dominated_in(S: set, cells: tuple, verts: list, covers: dict) -> bool:
    """Some x in S is dominated by some y in S within P[S] (the ``cells``)."""
    return any(dominated_by(x, y, cells, verts, covers)
               for x, y in permutations(S, 2))


def pruned_walk_oracle(P: SimplicialPoset):
    """The exact L walk from its definition: every vertex subset S, smallest
    first and in lexicographic order of the vertex order, skipping S when
    the walk is done (the floor above P's dimension), when some x in S is
    dominated in S, or when P[S] has no cell of dimension >= the floor;
    else P[S] is ranked by dense Gauss-Jordan, and a nonzero reduced Betti
    number at or above the floor raises it past the largest such.  Returns
    (value, (S, j) of the last hit or None, the ranked cell sets in
    order)."""
    verts, covers = vertex_sets(P), cover_counts(P)
    V = P.vertex_order
    best, hit, ranked = 0, None, []
    for size in range(len(V) + 1):
        for S in combinations(V, size):
            if best > P.dim:
                return best, hit, ranked
            cells = tuple(c for c in P.cells() if verts[c] <= set(S))
            if (max(P.dim_of(c) for c in cells) < best
                    or _dominated_in(S, cells, verts, covers)):
                continue
            ranked.append(cells)
            alive = [d for d, b in poset_betti_gj(P, cells).items()
                     if b and d >= best]
            if alive:
                best, hit = max(alive) + 1, (S, max(alive))
    return best, hit, ranked


# ---------------------------------------------------------------------------
# classical barycentric subdivision of a complex, built from subsets


def classical_sd(K: SimplicialComplex) -> SimplicialComplex:
    elems = [tuple(sorted(s)) for s in K.simplices if s]
    chains = []
    for size in range(1, len(elems) + 1):
        for chain in combinations(sorted(elems, key=lambda t: (len(t), t)), size):
            ok = all(set(chain[i]) < set(chain[i + 1]) for i in range(size - 1))
            if ok:
                chains.append(chain)
    return SimplicialComplex(chains, closed=False)


# ---------------------------------------------------------------------------
# exhaustive complex enumeration


def all_complexes_on(labels: tuple) -> list[SimplicialComplex]:
    """Every simplicial complex with vertex set inside ``labels`` (labeled)."""
    subsets = [frozenset(c) for k in range(1, len(labels) + 1)
               for c in combinations(labels, k)]
    out = []
    for mask in range(2 ** len(subsets)):
        chosen = {subsets[i] for i in range(len(subsets)) if mask >> i & 1}
        if all(s - {v} in chosen for s in chosen for v in s if len(s) > 1):
            out.append(SimplicialComplex(chosen, closed=False))
    return out


def all_complexes_up_to_iso(n: int) -> list[SimplicialComplex]:
    """Simplicial complexes on at most n vertices, one per isomorphism class.

    Enumerated as antichains of nonempty subsets (the facet sets), then
    deduplicated by the minimal facet list over all vertex permutations.
    """
    subsets = [frozenset(c) for k in range(1, n + 1)
               for c in combinations(range(n), k)]
    antichains: list[list[frozenset]] = []

    def grow(start: int, chosen: list[frozenset]) -> None:
        antichains.append(list(chosen))
        for j in range(start, len(subsets)):
            s = subsets[j]
            if all(not (s <= t or t <= s) for t in chosen):
                chosen.append(s)
                grow(j + 1, chosen)
                chosen.pop()

    grow(0, [])

    seen = set()
    out = []
    for facets in antichains:
        canon = min(
            tuple(sorted(tuple(sorted(perm[v] for v in f)) for f in facets))
            for perm in ({v: p[v] for v in range(n)}
                         for p in permutations(range(n))))
        if canon not in seen:
            seen.add(canon)
            out.append(SimplicialComplex(facets))
    return out


# ---------------------------------------------------------------------------
# random posets: a random complex with some cells duplicated


def random_complex(rng: random.Random, n_vertices: int = 5,
                   n_facets: int = 6, max_facet: int = 3) -> SimplicialComplex:
    facets = []
    for _ in range(rng.randrange(n_facets + 1)):
        size = rng.randrange(1, max_facet + 1)
        facets.append(rng.sample(range(n_vertices), min(size, n_vertices)))
    return SimplicialComplex(facets)


def random_poset(rng: random.Random, n_vertices: int = 5,
                 n_facets: int = 5, max_facet: int = 3,
                 max_duplications: int = 3) -> SimplicialPoset:
    P = random_complex(rng, n_vertices, n_facets, max_facet).as_poset()
    records = [(r.dim, list(r.faces)) for r in P.export_records()]
    candidates = [c for c in P.cells() if P.dim_of(c) >= 1]
    for _ in range(rng.randrange(max_duplications + 1)):
        if not candidates:
            break
        c = rng.choice(candidates)
        records.append(records[c])
    return build_poset(records)


def twin_poset(rng: random.Random, n_vertices: int = 5, n_facets: int = 5,
               max_facet: int = 3) -> SimplicialPoset:
    """A random complex's face poset with, twice, a cell c of dimension
    >= 1 copied together with part of its upper star: a cell
    above c is copied, on the copies of its faces above c, at random when
    all those faces are copied (so each lower interval stays Boolean).
    ``random_poset`` copies only top cells, so its twins have no cofaces;
    here they often do."""
    P = random_complex(rng, n_vertices, n_facets, max_facet).as_poset()
    records = [(r.dim, list(r.faces)) for r in P.export_records()]
    for _ in range(2):
        Q = build_poset(records)
        candidates = [c for c in Q.cells() if Q.dim_of(c) >= 1]
        if not candidates:
            break
        c = rng.choice(candidates)
        lower, copy = _lower_sets(Q), {c: len(records)}
        records.append(records[c])
        for t in range(c + 1, Q.n_cells):
            above = [f for f in Q.faces_of(t) if c in lower[f]]
            if above and all(f in copy for f in above) and rng.random() < 0.5:
                copy[t] = len(records)
                records.append((records[t][0],
                                [copy.get(f, f) for f in records[t][1]]))
    return build_poset(records)


def cone_poset(P: SimplicialPoset) -> SimplicialPoset:
    """The cone over P with a new apex, last in the vertex order: cell c
    gains a copy c * apex whose faces are the copies of c's faces, then c."""
    records = [(r.dim, list(r.faces)) for r in P.export_records()]
    n = len(records)
    copy = {}
    for c, (dim, faces) in enumerate(records[:n]):
        copy[c] = len(records)
        records.append((dim + 1, [copy[f] for f in faces] + [c]))
    return build_poset(records)


def with_isolated_vertices(P: SimplicialPoset, k: int) -> SimplicialPoset:
    """P with k more vertices that lie in no other cell."""
    records = [(r.dim, list(r.faces)) for r in P.export_records()]
    return build_poset(records + [(0, [P.least])] * k)


def relabel(P: SimplicialPoset, order) -> SimplicialPoset:
    """P renumbered: the least cell, then the 0-cells in ``order``, then the
    other cells in id order, each cell's faces re-sorted so that face k
    drops the k-th vertex of the new numbering (vertex sets rebuilt from
    the faces).  Its vertex order is ``order``, renumbered 1, 2, ...."""
    cells = [P.least, *order, *(c for c in P.cells() if P.dim_of(c) > 0)]
    new_id = {c: i for i, c in enumerate(cells)}
    verts = vertex_sets(P)
    records = []
    for c in cells:
        # each face misses one vertex of c, a different one per face
        drops = {new_id[min(verts[c] - verts[f])]: new_id[f]
                 for f in P.faces_of(c)}
        records.append((P.dim_of(c), [drops[v] for v in sorted(drops)]))
    return build_poset(records)


# ---------------------------------------------------------------------------
# brute-force J index from the definition: order complexes of open upper
# intervals, built here from chains, with the oracle homology


def _lower_sets(P: SimplicialPoset) -> list[set]:
    lower: list[set] = []
    for c in P.cells():
        acc = {c}
        for f in P.faces_of(c):
            acc |= lower[f]
        lower.append(acc)
    return lower


def upper_complexes(P: SimplicialPoset, sigma: int):
    """Order complexes of the closed and open upper intervals at sigma, with
    the order read from the lower sets."""
    lower = _lower_sets(P)
    up = [t for t in P.cells() if t != sigma and sigma in lower[t]]

    def leq(a, b):
        return a in lower[b]
    return order_complex(up + [sigma], leq), order_complex(up, leq)


def monotone_witness(pi):
    """The first (face f, cell c) of the source, c in id order, whose images
    are not ordered in the target's lower sets, or None: a map is monotone
    when it keeps every a <= b, and a <= b is a chain of faces."""
    lower = _lower_sets(pi.target)
    for c in pi.source.cells():
        for f in pi.source.faces_of(c):
            if pi.mapping[f] not in lower[pi.mapping[c]]:
                return f, c
    return None


def segment_bijection(pi):
    """Whether a monotone, dimension-preserving map sends each lower segment
    of its source one to one onto the lower segment of its image, with the
    first cell where it does not; None when the map is not both."""
    if not (pi.monotone and pi.dimension_preserving):
        return None, None
    xlower, ylower = _lower_sets(pi.source), _lower_sets(pi.target)
    for c, seg in enumerate(xlower):
        image = {pi.mapping[s] for s in seg}
        if len(image) != len(seg) or image != ylower[pi.mapping[c]]:
            return False, c
    return True, None


def vertex_sets(P: SimplicialPoset) -> list[frozenset]:
    """Each cell's vertex set, rebuilt from the faces (not read from the
    poset's vertex masks)."""
    verts: list[frozenset] = []
    for c in P.cells():
        verts.append(frozenset([c]) if P.dim_of(c) == 0 else
                     frozenset().union(*(verts[f] for f in P.faces_of(c))))
    return verts


def boolean_lower_segments(P: SimplicialPoset) -> bool:
    """Whether the lower segment of every n-cell holds n + 1 vertices and
    one cell per subset of them, with vertex sets rebuilt from the faces."""
    lower, verts = _lower_sets(P), vertex_sets(P)
    return all(len(verts[c]) == P.dim_of(c) + 1
               and len(lower[c]) == len({verts[t] for t in lower[c]})
               == 2 ** len(verts[c]) for c in P.cells())


def upper_interval_betti(P: SimplicialPoset, S, sigma: int) -> dict[int, int]:
    """Reduced Betti numbers of the order complex of the open interval
    above ``sigma`` in the subposet induced on the vertex set ``S``."""
    lower, verts = _lower_sets(P), vertex_sets(P)
    up = [t for t in P.cells()
          if t != sigma and sigma in lower[t] and verts[t] <= set(S)]
    return _interval_betti(frozenset(up), lower)


def _interval_betti(up: frozenset, lower: list[set]) -> dict[int, int]:
    chains = []

    def extend(chain: list) -> None:
        chains.append(tuple(chain))
        for t in up:
            if t != chain[-1] and chain[-1] in lower[t]:
                extend(chain + [t])

    for t in up:
        extend([t])
    return betti_oracle_gj(SimplicialComplex(chains))


def j_oracle(P: SimplicialPoset) -> int:
    """J(P): one more than the largest dimension >= 0 with nonzero reduced
    homology of an open upper interval in an induced subposet, else 0."""
    lower, verts = _lower_sets(P), vertex_sets(P)
    seen: dict[frozenset, dict[int, int]] = {}
    best = 0
    for size in range(len(P.vertex_order) + 1):
        for S in combinations(P.vertex_order, size):
            cells = [c for c in P.cells() if verts[c] <= set(S)]
            for sigma in cells:
                up = frozenset(t for t in cells
                               if t != sigma and sigma in lower[t])
                if up not in seen:
                    seen[up] = _interval_betti(up, lower)
                for d, b in seen[up].items():
                    if d >= 0 and b:
                        best = max(best, d + 1)
    return best


def first_hit_witness(P: SimplicialPoset, value: int, links: bool):
    """The witness of an index of P with the given value, from the
    definition: the first vertex set S of the sorted vertices, smallest
    first, with nonzero reduced homology in dimension value - 1, of the
    induced subposet (L) or of the open upper interval of one of its cells,
    least cell first (J).  (S, value - 1) for L, (S, value - 1, sigma) for
    J, None when the value is 0."""
    if value == 0:
        return None
    V, verts = sorted(P.vertex_order), vertex_sets(P)
    for size in range(len(V) + 1):
        for S in combinations(V, size):
            cells = [c for c in P.cells() if verts[c] <= set(S)]
            if not links:
                if poset_betti_gj(P, cells).get(value - 1):
                    return S, value - 1
                continue
            for sigma in cells:
                if upper_interval_betti(P, S, sigma).get(value - 1):
                    return S, value - 1, sigma
    raise AssertionError(f"no nonzero homology in dimension {value - 1}")


# ---------------------------------------------------------------------------
# brute-force family oracle: every region from scratch (the full product of
# the members' boxes, or a set intersection), every scan over all 2^n
# subsets; boxes are plain tuples of (lo, hi) pairs here


def _meet(a: tuple, b: tuple):
    out = tuple((max(p, r), min(q, s)) for (p, q), (r, s) in zip(a, b))
    return out if all(lo < hi for lo, hi in out) else None


def overlaps(a: tuple, b: tuple) -> bool:
    """Whether two open boxes share a point: on every axis the larger lo
    lies below the smaller hi."""
    return all(max(p, r) < min(q, s) for (p, q), (r, s) in zip(a, b))


def within(a: tuple, b: tuple) -> bool:
    """Whether box a lies inside box b: the same dimension, and each of
    a's intervals inside b's on its axis."""
    return len(a) == len(b) and all(r <= p and q <= s
                                    for (p, q), (r, s) in zip(a, b))


_MEMBERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def family_members(F) -> list[set]:
    """A subcomplex family's members as sets of simplices, read from its
    family.v1 text (the I/O the golden digests pin), not from the members'
    masks: member id i names the (i + 1)-th simplex of T, sorted here by
    size and then sorted vertex list (the empty simplex first)."""
    if F not in _MEMBERS:
        order = sorted(F.ambient.simplices, key=lambda s: (len(s), sorted(s)))
        _MEMBERS[F] = [{order[int(i) + 1] for i in line.split()[1:]}
                       for line in write_family(F).splitlines()
                       if line.split()[0] == "member"]
    return _MEMBERS[F]


def family_region(F, A) -> list:
    """Region over the index set A (the union when A is empty): simplices,
    or the nonempty meets of every choice of one box per member of A."""
    if F.backend == "subcomplex":
        members = family_members(F)
        common = (set().union(*members) if not A
                  else set.intersection(*(members[a] for a in A)))
        return sorted(common, key=lambda s: (len(s), sorted(s)))
    if not A:
        return [b.intervals for m in F.members for b in m.boxes]
    out = []
    for combo in product(*(F.members[a].boxes for a in A)):
        cur = combo[0].intervals
        for b in combo[1:]:
            cur = cur and _meet(cur, b.intervals)
        if cur:
            out.append(cur)
    return out


def decode_region(F, region) -> list:
    """A region as the oracle holds it, a mask of T's simplex ids or boxes
    of (lo, hi) int pairs on the family's grid, in ``family_region``'s
    form: the simplices by (size, sorted vertices), or the boxes in order
    as interval tuples."""
    if F.backend == "subcomplex":
        order = F.ambient.ordered_simplices()
        return sorted((order[i] for i in range(region.bit_length())
                       if region >> i & 1), key=lambda s: (len(s), sorted(s)))
    return [tuple((Fraction(lo, F.scale), Fraction(hi, F.scale))
                  for lo, hi in b) for b in region]


def box_nerve(boxes: list, max_size: int | None = None) -> list[tuple]:
    """The index sets of at most ``max_size`` (default all) of the boxes,
    given as interval tuples, that meet, found by trying every subset."""
    sims = []
    for size in range(1, min(len(boxes), max_size or len(boxes)) + 1):
        for S in combinations(range(len(boxes)), size):
            cur = boxes[S[0]]
            for i in S[1:]:
                cur = cur and _meet(cur, boxes[i])
            if cur:
                sims.append(S)
    return sims


def family_region_betti(F, A) -> dict[int, int]:
    """Reduced Betti numbers of the region: the subcomplex itself, or the
    full nerve of the region's boxes, repeats included."""
    region = family_region(F, A)
    if F.backend == "subcomplex":
        return betti_oracle_gj(SimplicialComplex(region))
    return betti_oracle_gj(SimplicialComplex(box_nerve(region)))


def _touch(F, x, y) -> bool:
    """Whether two region elements meet: simplices sharing a vertex, or
    boxes that overlap."""
    if F.backend == "subcomplex":
        return bool(x & y)
    return _meet(x, y) is not None


def family_components(F, A, with_elements: bool = False) -> list[tuple]:
    """Components of the region by graph search (simplices sharing a vertex,
    or boxes that overlap), each as (canon, rep): the least simplex by
    (size, sorted vertices) and its vertices, or the position of the
    component's first box in the region and that box.  With
    ``with_elements``, each also carries the list of its region elements."""
    region = family_region(F, A)
    seen, out = set(), []
    for start in range(len(region)):
        if start in seen:
            continue
        group, stack = [start], [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            for j in range(len(region)):
                if j not in seen and _touch(F, region[i], region[j]):
                    seen.add(j)
                    stack.append(j)
                    group.append(j)
        if F.backend == "subcomplex":
            canon = min((len(region[i]), tuple(sorted(region[i])))
                        for i in group)
            label = (canon, canon[1])
        else:
            label = (start, region[start])
        if with_elements:
            label += ([region[i] for i in group],)
        out.append(label)
    return sorted(out, key=lambda c: c[0])


def union_find_labels(region) -> tuple[list, dict]:
    """A subcomplex region's components, the region given as simplices, by
    a plain union-find over its vertices joined along its edges: each
    component's (canon, rep), (1, (v,)) and (v,) for its least vertex v,
    sorted by canon, and the index of each vertex 1-tuple's component."""
    parent = {v: v for s in region if len(s) == 1 for v in s}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for s in region:
        if len(s) == 2:
            a, b = map(find, s)
            parent[a] = b
    groups: dict = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    least = sorted(min(g) for g in groups.values())
    owner = {(v,): least.index(min(groups[find(v)])) for v in parent}
    return [((1, (v,)), (v,)) for v in least], owner


def _subsets(n: int):
    return [G for size in range(1, n + 1) for G in combinations(range(n), size)]


def family_nerve(F) -> set[frozenset]:
    return {frozenset(G) for G in _subsets(len(F)) if family_region(F, G)}


def family_reduced_multinerve(F, t: int | None) -> dict[tuple, tuple]:
    """The reduced multinerve R_t (the multinerve when t is None) from the
    nerve and the components alone: each cell's tag (A, canon), canon None
    for a merged index set (the empty one, and |A| <= t - 1), mapped to the
    tags of its faces, face i dropping A[i].  A face of a component C lies
    in the one component of the larger region that meets C's
    representative element."""
    def merged(A) -> bool:
        return not A or (t is not None and len(A) <= t - 1)

    def face(B, rep) -> tuple:
        if merged(B):
            return B, None
        elem = frozenset(rep) if F.backend == "subcomplex" else rep
        (canon,) = [canon for canon, _, elems in
                    family_components(F, B, with_elements=True)
                    if any(_touch(F, x, elem) for x in elems)]
        return B, canon

    cells = {}
    for A in [(), *(tuple(sorted(G)) for G in family_nerve(F))]:
        labels = ([(None, None)] if merged(A)
                  else family_components(F, A))
        for canon, rep in labels:
            cells[A, canon] = tuple(face(A[:i] + A[i + 1:], rep)
                                    for i in range(len(A)))
    return cells


def family_walk(F) -> list[tuple[tuple, bool]]:
    """Every nonempty index set whose proper subsets all intersect (the
    empty one does), in (size, lex) order, each with whether it
    intersects: all subsets are tried, one smaller ones looked up."""
    hits, walk = {()}, []
    for G in _subsets(len(F)):
        if all(G[:i] + G[i + 1:] in hits for i in range(len(G))):
            walk.append((G, bool(family_region(F, G))))
            if walk[-1][1]:
                hits.add(G)
    return walk


def family_helly(F) -> tuple[int, tuple]:
    """(h, witness): the largest empty subfamily whose facets all intersect
    (the empty subfamily always does), lex-first; (0, ()) when there is
    none."""
    best = (0, ())
    for G in _subsets(len(F)):
        minimal = not family_region(F, G) and (
            len(G) == 1 or all(family_region(F, G[:i] + G[i + 1:])
                               for i in range(len(G))))
        if minimal and len(G) > best[0]:
            best = (len(G), G)
    return best


def family_slack_violation(F, s: int):
    """First (subset, dim) with nonzero reduced homology in a dimension
    >= max(1, s - |G|), in (size, lex) order and ascending dimension."""
    for G in _subsets(len(F)):
        bad = [d for d, b in sorted(family_region_betti(F, G).items())
               if b and d >= max(1, s - len(G))]
        if bad:
            return G, bad[0]
    return None


def family_component_maxima(F, t: int) -> dict[int, int]:
    return {size: max(len(family_components(F, G))
                      for G in combinations(range(len(F)), size))
            for size in range(t, len(F) + 1)}


def around_a_point_family(d: int, seed: int):
    """d + 2 members of R^d, each a box around the origin and a box drawn
    anywhere: the union's nerve holds a simplex of dimension d + 1."""
    rng = random.Random(seed)

    def around() -> tuple:
        return (Fraction(-rng.randrange(1, 6), 2),
                Fraction(rng.randrange(1, 6), 2))

    def anywhere() -> tuple:
        a = rng.randrange(-6, 8)
        return Fraction(a, 2), Fraction(a + rng.randrange(2, 7), 2)
    return box_family(d, [[box(*(around() for _ in range(d))),
                           box(*(anywhere() for _ in range(d)))]
                          for _ in range(d + 2)])


def small_family(seed: int, backend: str):
    """A random family of 2-4 members for the oracle, sometimes with one
    member replaced by the empty set, sometimes with every member empty."""
    rng = random.Random(seed)
    n = rng.randrange(2, 5)
    if backend == "box":
        F = random_family("box", n, seed, ambient_dim=1 if n <= 3 else 2,
                          boxes_per_member=rng.choice((0, 1, 2, 2, 2, 2, 2, 2)))
        members = [list(m.boxes) for m in F.members]
    else:
        F = random_family("subcomplex", n, seed, grid=3,
                          stars_per_member=rng.choice((0, 1, 2, 2, 2, 2, 2, 2)),
                          with_ring=rng.random() < 0.3)
        members = [list(m) for m in family_members(F)]
    if rng.random() < 0.3:
        members[rng.randrange(n)] = []
    if backend == "box":
        return box_family(F.ambient, members)
    return subcomplex_family(F.ambient, members)
