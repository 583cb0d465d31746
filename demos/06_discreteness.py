"""Propagating discreteness verdicts through a configuration's pieces.

Whether a representation of the assembled group factors through a discrete
quotient reduces to the same question for the pieces: coproducts take the
conjunction, quotient steps change nothing, free factors are discrete.  The
pieces are the node groups and a free factor whose rank is the incidence
graph's first Betti number, so no assembly is needed.  Verdicts are
three-valued so partial knowledge propagates honestly.

Run:  python demos/06_discreteness.py
"""

from devissage import (Coproduct, Leaf, Quotient, Verdict, discreteness_verdict,
                       fold_verdicts)
from devissage.corpus import line_cycle

cfg = line_cycle(3)

for verdicts in ({"X1": "discrete", "X2": "discrete", "X3": "discrete"},
                 {"X1": "discrete", "X2": "not-discrete", "X3": "discrete"},
                 {"X1": "discrete", "X2": "unknown", "X3": "discrete"}):
    out = discreteness_verdict(cfg, verdicts)
    print(f"{verdicts} -> {out.overall.value}")

print("\nper-node detail for the last run:")
for name, nv in out.per_node:
    print(f"  {name}: {nv.verdict.value} ({nv.reason})")

# The fold is insensitive to how the assembly tree is shaped.
D, N = Verdict.DISCRETE, Verdict.NOT_DISCRETE
tree = Coproduct((Quotient(Coproduct((Leaf(D), Leaf(N)))), Leaf(D)))
print("\nfold of ((D * N)/~ * D):", fold_verdicts(tree).value)
