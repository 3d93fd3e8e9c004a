"""Why the multinerve: two sets covering a circle.

Cover the 4-cycle by its upper and lower paths.  The two paths meet in two
opposite vertices, so the union is a circle, but the nerve is a single edge
and remembers nothing.  The multinerve keeps one cell per connected
component of each intersection: it is the double-edge poset and has the
homology of the circle.
"""

from multinerve import (canonical_projection, components, multinerve, nerve,
                        reduced_betti, region_betti)
from multinerve.fixtures import two_arc_circle_family

family = two_arc_circle_family()

print("component counts:")
for A in ((0,), (1,), (0, 1)):
    print(f"  members {A}: {len(components(family, A))} component(s)")

print("\nunion Betti:", dict(region_betti(family, ()).items()))

N = nerve(family)
print("nerve Betti:", dict(reduced_betti(N).items()), "(contractible)")

M = multinerve(family)
print("multinerve Betti:", dict(reduced_betti(M.poset).items()),
      "(sees the circle)")

# the projection onto the nerve forgets components; over the top edge it is
# exactly 2-to-1
pi = canonical_projection(M)
print("\nprojection flags: monotone =", pi.monotone,
      ", dimension preserving =", pi.dimension_preserving)
print("maximal fiber size r =", pi.max_fiber)

# cells of the multinerve, with their labels
print("\nmultinerve cells:")
for c in M.poset.cells():
    tag = M.tags[c]
    comp = "-" if tag.component is None else tag.component.canon
    print(f"  cell {c}: dim {M.poset.dim_of(c)}, members {tag.subset}, "
          f"component {comp}")
