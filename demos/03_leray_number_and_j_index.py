"""Leray numbers and the J index.

L(X) is the first dimension from which every induced subposet is
homologically silent.  J(X) asks the same of the order complexes of open
upper intervals over all induced subposets.  The two are equal on every
simplicial poset (the theorem in the ``multinerve.leray`` docstring), and
J's witness is L's, at the least element.  Both are computed exactly by
enumeration, with explicit refusal past the vertex cap and a sampling mode
for lower bounds.
"""

from multinerve import (CapExceeded, SimplicialComplex,
                        barycentric_subdivision, j_index, leray_number,
                        order_complex, reduced_betti)
from multinerve.fixtures import double_edge_poset

hollow = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
print("hollow triangle: L =", leray_number(hollow).value,
      " J =", j_index(hollow).value)
print("  witness:", leray_number(hollow).witness)

X = double_edge_poset()
print("\ndouble edge: L =", leray_number(X).value,
      " J =", j_index(X).value)

# the J witness: the open upper interval at the least element is the whole
# barycentric subdivision, a 4-cycle
sd = barycentric_subdivision(X)
print("upper interval at the least element has Betti",
      dict(reduced_betti(sd).items()))

# a vertex of the double edge sees two points above itself: the order
# complex of the cells strictly above it
a = X.cells_of_dim(0)[0]
above_a = order_complex([t for t in X.cells() if t != a and X.leq(a, t)],
                        X.leq)
print("upper interval at a vertex has Betti",
      dict(reduced_betti(above_a).items()))

# exact enumeration is exponential and refuses large inputs by design
wide = SimplicialComplex([(i,) for i in range(25)])
try:
    leray_number(wide)
except CapExceeded as e:
    print("\nrefusal:", e)

# sampling gives an honest lower bound instead
sampled = leray_number(wide, sample=200, seed=0)
print("sampled mode:", sampled.value, f"({sampled.mode}, lower bound only)")
