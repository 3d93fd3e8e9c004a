"""Simplicial posets and exact homology, from the ground up.

A simplicial poset is a set of cells with ordered face maps; unlike a
simplicial complex, two distinct cells may share their whole vertex set.
The smallest interesting example is two vertices joined by two distinct
edges: its realization is a circle, which exact rational homology sees as
one generator in dimension 1.
"""

from multinerve import (SimplicialComplex, barycentric_subdivision,
                        build_poset, euler_characteristic, reduced_betti)

# the double edge: least element 0, vertices 1 and 2, edges 3 and 4
double_edge = build_poset([
    (-1, ()),
    (0, (0,)),
    (0, (0,)),
    (1, (2, 1)),
    (1, (2, 1)),
])

print("double edge cells:", double_edge.n_cells)
print("reduced Betti vector:", dict(reduced_betti(double_edge).items()))
print("Euler characteristic:", euler_characteristic(double_edge))

# its barycentric subdivision is an honest simplicial complex: a 4-cycle
sd = barycentric_subdivision(double_edge)
facets = [s for s in sd.simplices if not any(s < t for t in sd.simplices)]
print("\nsubdivision facets:", sorted(tuple(sorted(f)) for f in facets))
print("subdivision Betti:", dict(reduced_betti(sd).items()))

# complexes work the same way; the empty space reports Betti in dimension -1
hollow = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
print("\nhollow triangle:", dict(reduced_betti(hollow).items()))
print("empty space:", dict(reduced_betti(build_poset([])).items()))

# the two edges share their vertex set, yet neither lies below the other:
# the order walks down through faces, and vertex sets alone cannot decide it
print("\nvertex 1 <= edge 3:", double_edge.leq(1, 3))
print("edge 3 <= edge 4:", double_edge.leq(3, 4))
