"""Descent tuples: finite covers of a glued configuration, by hand.

A cover of the nodal cubic is a fiber over the component, a fiber over the
node, and two gluing bijections (one per preimage of the node).  Whether
the cover is connected depends on how the two gluings interact.

Run:  python demos/05_cover_census.py
"""

from devissage import (DescentTuple, assemble_direct, enumerate_tuples,
                       rep_of_tuple, tuple_components, tuple_of_rep,
                       validate_tuple)
from devissage.corpus import nodal_cubic, z2_nodal

cfg = nodal_cubic()

# The gluings are listed in the order of cfg.edges: e1, then e2.
same = DescentTuple({"X1": (2, {})}, {"Z1": (2, {})}, ((0, 1), (0, 1)))
cross = DescentTuple({"X1": (2, {})}, {"Z1": (2, {})}, ((0, 1), (1, 0)))

for name, t in [("parallel gluings", same), ("crossed gluings", cross)]:
    blocks = tuple_components(cfg, t)
    print(f"{name}: valid={validate_tuple(cfg, t) == []},"
          f" components={len(blocks)}")

print("\ncensus of connected covers of the nodal cubic (degree 1..5):",
      [len(enumerate_tuples(cfg, d)) for d in range(1, 6)])

# The dictionary with representations: the crossed tuple acts by the swap.
res = assemble_direct(cfg)
rep = rep_of_tuple(cfg, res, cross)
x = res.presentation.generators[0]
print(f"\ncrossed tuple as a representation: {x} acts by {rep.image(x)}")

back = tuple_of_rep(cfg, res, rep)
print("round-trip returns the same representation:",
      rep_of_tuple(cfg, res, back) == rep)

print("\nZ/2 nodal curve census (degree 1..4):",
      [len(enumerate_tuples(z2_nodal(), d)) for d in range(1, 5)])
