"""Random small simplicial posets for the small-spaces workload.

The generator is the benchmark's own: it does not use the program or the
test oracles, so the inputs stay the same whatever the program does.  A
space has 6 vertices and cells up to dimension 3.  With ``duplicated`` set,
some cells get a second copy with the same vertex set, which is what a
multinerve looks like; otherwise the result is the face poset of a
simplicial complex.
"""

from __future__ import annotations

import random
from itertools import combinations, product

N_VERTICES = 6
TOP_DIM = 3
# chance that a vertex set whose faces all exist becomes a cell, by dimension
CELL_P = {1: 0.6, 2: 0.4, 3: 0.25}
DUPLICATE_P = 0.25


def _face_tuples(cells, by_vset, vs):
    """Every choice of face copies for the vertex list ``vs`` that satisfies
    the simplicial identities d_i d_j = d_{j-1} d_i for i < j."""
    options = [by_vset[vs[:i] + vs[i + 1:]] for i in range(len(vs))]
    out = []
    for faces in product(*options):
        if all(cells[faces[b]][1][a] == cells[faces[a]][1][b - 1]
               for a, b in combinations(range(len(faces)), 2)):
            out.append(faces)
    return out


def random_space(seed: int, duplicated: bool) -> list[tuple[int, tuple[int, ...]]]:
    """Cell records (dim, face ids) in poset.v1 order: least element first,
    then vertices 0..5, then cells by dimension."""
    rng = random.Random(seed)
    cells: list[tuple[int, tuple[int, ...]]] = [(-1, ())]
    by_vset: dict[tuple[int, ...], list[int]] = {(): [0]}
    for v in range(N_VERTICES):
        by_vset[(v,)] = [len(cells)]
        cells.append((0, (0,)))
    for d in range(1, TOP_DIM + 1):
        for vs in combinations(range(N_VERTICES), d + 1):
            if not all(vs[:i] + vs[i + 1:] in by_vset for i in range(d + 1)):
                continue
            if rng.random() >= CELL_P[d]:
                continue
            choices = _face_tuples(cells, by_vset, vs)
            if not choices:
                # duplicated faces that do not glue into a boundary sphere
                continue
            copies = 2 if duplicated and rng.random() < DUPLICATE_P else 1
            ids = []
            for _ in range(copies):
                ids.append(len(cells))
                cells.append((d, rng.choice(choices)))
            by_vset[vs] = ids
    return cells


def write_poset_v1(cells) -> str:
    lines = ["poset v1"]
    for i, (dim, faces) in enumerate(cells):
        lines.append(" ".join(str(x) for x in (i, dim, *faces)))
    return "\n".join(lines) + "\n"
