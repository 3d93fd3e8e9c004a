"""Helly numbers and theorem-level bound checks on concrete instances.

Every check here is proven mathematics: a FAIL indicts the implementation,
not the theorem, so reports embed enough quantities to rerun the instance.
Instances are keyed by a hash of their serialized form; failed instances can
be archived next to the report for regression.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .families import (SetFamily, _id_family, _nerve_walk, _rational_family,
                       components, is_acyclic_with_slack, max_components,
                       region_betti, region_is_empty)
from .homology import BettiVector, reduced_betti
from .leray import CapExceeded, leray_number
from .nerve import canonical_projection, multinerve, nerve, reduced_multinerve
from .poset import SimplicialComplex


class PreconditionError(ValueError):
    """A verification op was called on an instance outside its hypotheses."""


def _intersection_is_empty(F: SetFamily) -> bool:
    """Whether the members have empty total intersection.  A family with no
    members does not: its intersection is over the empty subfamily, which
    intersects by convention."""
    return len(F) > 0 and region_is_empty(F, F.indices)


@dataclass(frozen=True)
class HellyResult:
    h: int
    witness: tuple[int, ...]


def helly_number(F: SetFamily, cap: int = 16) -> HellyResult:
    """Largest inclusion-wise minimal subfamily with empty intersection.

    Requires the whole family to have empty intersection.
    """
    n = len(F)
    if n > cap:
        raise CapExceeded(n, cap, what="member count")
    if not _intersection_is_empty(F):
        raise PreconditionError("family has non-empty intersection")
    # the minimal empty subfamilies are the walk's non-intersecting sets;
    # it yields them by size, then lexicographically
    best, witness = 0, ()
    for G, hit in _nerve_walk(F):
        if not hit and len(G) > best:
            best, witness = len(G), G
    if best == 0:
        raise AssertionError("empty total intersection admits a minimal witness")
    return HellyResult(best, witness)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Check:
    name: str
    lhs: int
    rhs: int
    op: str = "<="

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs if self.op == "<=" else self.lhs == self.rhs

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name}: {self.lhs} {self.op} {self.rhs} : {verdict}"


@dataclass
class BoundReport:
    """A report.v1: the instance, its quantities, and the checks with their
    result; ``checks`` is None in a record that checks nothing (``mnv
    helly``, ``mnv check-acyclic``), which has no result line."""
    instance: str
    quantities: dict = field(default_factory=dict)
    checks: list[Check] | None = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def render(self) -> str:
        lines = ["report v1", f"instance = {self.instance}"]
        for k, v in self.quantities.items():
            lines.append(f"{k} = {v}")
        if self.checks is not None:
            lines.extend(c.render() for c in self.checks)
            lines.append(f"result = {'PASS' if self.all_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def instance_id(F: SetFamily) -> str:
    from .formats import write_family
    return hashlib.sha256(write_family(F).encode()).hexdigest()[:12]


def _fmt_betti(b: BettiVector) -> str:
    return ",".join(f"{d}:{v}" for d, v in b.items()) or "0"


# ---------------------------------------------------------------------------
# theorem checks


def verify_multinerve_theorem(F: SetFamily, s: int) -> BoundReport:
    """Check that the multinerve has the homology of the union from slack up.

    Precondition: the family is acyclic with slack s (verified; a violation
    is reported as an error naming the offending subfamily and dimension).
    """
    ok, viol = is_acyclic_with_slack(F, s)
    if not ok:
        raise PreconditionError(
            f"family is not acyclic with slack {s}: "
            f"subfamily {viol.subset} has nonzero reduced homology in "
            f"dimension {viol.dim}")
    M = multinerve(F)
    bm = reduced_betti(M.poset)
    bu = region_betti(F, ())
    report = BoundReport(instance_id(F))
    report.quantities.update({
        "s": s,
        "betti_multinerve": _fmt_betti(bm),
        "betti_union": _fmt_betti(bu),
    })
    top = max([d for d, _ in bm.items()] + [d for d, _ in bu.items()] + [0])
    for ell in range(max(s, 0), top + 1):
        report.checks.append(Check(f"multinerve_theorem_dim_{ell}",
                                   bm[ell], bu[ell], op="=="))
    return report


def verify_projection_bound(F: SetFamily, t: int = 1, s: int | None = None,
                            cap: int = 16) -> BoundReport:
    """Check the projection bound L(N) <= r J(M_red) + r - 1 and its lemmas.

    Also checks L <= J on the posets in play, the quotient bound
    J(M_red) <= max(J(M), t), the slack bound J(M) <= max(d_Gamma, s) when a
    verified slack is supplied, and the Helly-Leray link when the family has
    empty intersection.  J = L on every simplicial poset (the theorem in
    ``leray``), so one exact L walk gives both on each distinct poset among
    M, M_red and the nerve's face poset, and the L <= J checks hold.

    M's vertices are the members' components, and M_red's and the nerve's
    are no more, so the cap is checked on their count before M is built:
    the walk on M, the first, would refuse with the same line, but M's cells
    can number 2^|F| first.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = sum(len(components(F, (i,))) for i in F.indices)
    if n > cap:
        raise CapExceeded(n, cap)
    R, f = reduced_multinerve(F, t)
    pi = canonical_projection(R)
    if not (pi.monotone and pi.dimension_preserving):
        raise AssertionError("projection lost monotonicity or dimension")
    M, N = f.source, pi.target  # N: the nerve's face poset, same L and J
    r = pi.max_fiber

    # one L walk per distinct poset, its value also J's: R is M at t = 1,
    # and N for t > |F|
    posets = (M, R.poset, N)
    keys = [(P._dims, P._faces) for P in posets]
    lj = {k: leray_number(P, cap=cap).value
          for k, P in dict(zip(keys, posets)).items()}
    l_m, l_r, l_n = j_m, j_r, j_n = [lj[k] for k in keys]

    report = BoundReport(instance_id(F))
    q = report.quantities
    q.update({"t": t, "r": r, "gamma_dim": F.gamma_dim,
              "J_multinerve": j_m, "J_reduced": j_r, "J_nerve": j_n,
              "L_multinerve": l_m, "L_reduced": l_r, "L_nerve": l_n,
              "quotient_bijective_from_dim": t - 1,
              "quotient_ok": f.monotone and f.dimension_preserving
              and f.bijective_on_dims_at_least(t - 1)})
    if F.gamma_dim_assumed:
        q["gamma_dim_assumed"] = True

    report.checks.append(Check("projection_bound", l_n, r * j_r + r - 1))
    report.checks.append(Check("L_le_J_multinerve", l_m, j_m))
    report.checks.append(Check("L_le_J_reduced", l_r, j_r))
    report.checks.append(Check("L_le_J_nerve", l_n, j_n))
    report.checks.append(Check("quotient_J_bound", j_r, max(j_m, t)))
    if s is not None:
        ok, viol = is_acyclic_with_slack(F, s)
        if not ok:
            raise PreconditionError(
                f"family is not acyclic with slack {s}: subfamily "
                f"{viol.subset} violates at dimension {viol.dim}")
        q["s"] = s
        report.checks.append(Check("slack_J_bound", j_m, max(F.gamma_dim, s)))
        if s <= 1:
            report.checks.append(Check("multinerve_leray_bound",
                                       l_m, F.gamma_dim))
    if _intersection_is_empty(F):
        h = helly_number(F, cap=cap).h
        q["h"] = h
        report.checks.append(Check("helly_leray", h, l_n + 1))
    return report


def verify_helly_bound(F: SetFamily, s: int = 0, t: int = 1,
                       cap: int = 16) -> BoundReport:
    """Check h <= r (max(d_Gamma, s, t) + 1) on an empty-intersection
    family; h comes first, so its cap refuses before any nerve walk."""
    h = helly_number(F, cap=cap).h
    ok, viol = is_acyclic_with_slack(F, s)
    if not ok:
        raise PreconditionError(
            f"family is not acyclic with slack {s}: subfamily {viol.subset} "
            f"violates at dimension {viol.dim}")
    r = max_components(F, t).value
    l_n = leray_number(nerve(F), cap=cap).value
    # r = 0 when no subfamily of size >= t intersects; r = 1 bounds the
    # component counts just as well there
    bound = max(r, 1) * (max(F.gamma_dim, s, t) + 1)
    report = BoundReport(instance_id(F))
    report.quantities.update({"s": s, "t": t, "r": r,
                              "gamma_dim": F.gamma_dim, "h": h,
                              "L_nerve": l_n, "bound": bound})
    if F.gamma_dim_assumed:
        report.quantities["gamma_dim_assumed"] = True
    report.checks.append(Check("helly_bound", h, bound))
    report.checks.append(Check("helly_leray", h, l_n + 1))
    return report


# ---------------------------------------------------------------------------
# instance generation


def grid_triangulation(g: int) -> SimplicialComplex:
    """Standard triangulation of a g-by-g square grid; vertices are ints.

    Square (i, j) is cut along the diagonal from (i + 1, j) to (i, j + 1);
    the vertices, edges and triangles are listed, so the complex is closed
    as given."""
    def v(i: int, j: int) -> int:
        return i * (g + 1) + j

    cells = [(v(i, j),) for i in range(g + 1) for j in range(g + 1)]
    for i in range(g + 1):
        for j in range(g + 1):
            if j < g:
                cells.append((v(i, j), v(i, j + 1)))
            if i < g:
                cells.append((v(i, j), v(i + 1, j)))
            if i < g and j < g:
                cells.append((v(i + 1, j), v(i, j + 1)))
                cells.append((v(i, j), v(i + 1, j), v(i, j + 1)))
                cells.append((v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)))
    return SimplicialComplex(cells, closed=True)


def closed_star(T: SimplicialComplex, vertex: int) -> set[int]:
    """Ids of the simplices holding the vertex and of their faces.  A face
    that does not hold the vertex is the face dropping it of its union with
    the vertex, which holds it, so the star and those faces are all of it."""
    return {i for pair in T.vertex_star(vertex) for i in pair if i}


def ring_member(g: int, i: int, j: int) -> set[frozenset]:
    """Boundary 4-cycle of grid square (i, j): a member with the homology
    of a circle (the diagonal edge is deliberately omitted)."""
    def v(a: int, b: int) -> int:
        return a * (g + 1) + b

    c = [v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)]
    out: set[frozenset] = set()
    for k in range(4):
        out.add(frozenset((c[k],)))
        out.add(frozenset((c[k], c[(k + 1) % 4])))
    return out


def random_family(backend: str, n: int, seed: int, *,
                  ambient_dim: int = 1, boxes_per_member: int = 2,
                  grid: int = 4, stars_per_member: int = 2,
                  gamma_dim: int | None = None,
                  with_ring: bool = False) -> SetFamily:
    """Reproducible pseudo-random family for the given backend.

    Box members draw rational endpoints on a half-integer grid; subcomplex
    members are unions of closed stars in a grid triangulation (plus one
    circle-shaped member when ``with_ring`` is set, for slack instances).
    """
    if n < 1:
        raise ValueError("need at least one member")
    rng = random.Random(seed)
    if backend == "box":
        members = []
        for _ in range(n):
            boxes = []
            for _ in range(boxes_per_member):
                intervals = []
                for _ in range(ambient_dim):
                    a = rng.randrange(0, 13)
                    intervals.append(((a, 2), (a + rng.randrange(2, 7), 2)))
                boxes.append(tuple(intervals))
            members.append(boxes)
        return _rational_family(ambient_dim, members, gamma_dim)
    if backend == "subcomplex":
        T = grid_triangulation(grid)
        members = []
        ring_at = rng.randrange(n) if with_ring else -1
        for k in range(n):
            if k == ring_at:
                i = rng.randrange(grid)
                j = rng.randrange(grid)
                members.append(map(T.simplex_ids().__getitem__, ring_member(grid, i, j)))
                continue
            held: set[int] = set()
            for _ in range(stars_per_member):
                held |= closed_star(T, rng.choice(T.vertices))
            members.append(held)
        return _id_family(T, members, gamma_dim)
    raise ValueError(f"unknown backend {backend!r}")
