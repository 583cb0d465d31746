"""Three-valued discreteness propagation.

A continuous homomorphism out of a topological group is *discrete* when its
kernel is open.  The fundamental group of a configuration is a quotient of
the coproduct of its node groups and a free group whose rank is the
incidence graph's first Betti number (``free_rank``), so the question
reduces to the restrictions: a map out of a coproduct is discrete iff its
restriction to every factor is, and passing to a quotient changes nothing.
Free factors are discrete outright.  The calculus below folds
user-supplied per-piece verdicts through that structure, read off the
configuration alone, with ``unknown`` as the third value:
any ``not-discrete`` wins, otherwise any ``unknown`` wins, otherwise
``discrete``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Union

from .configuration import Configuration, free_rank

__all__ = [
    "Verdict",
    "combine",
    "NodeVerdict",
    "DiscretenessVerdict",
    "discreteness_verdict",
    "Leaf",
    "Coproduct",
    "Quotient",
    "fold_verdicts",
]


class Verdict(str, Enum):
    DISCRETE = "discrete"
    NOT_DISCRETE = "not-discrete"
    UNKNOWN = "unknown"


def combine(verdicts: Iterable[Verdict]) -> Verdict:
    """Three-valued conjunction: not-discrete dominates unknown dominates discrete."""
    out = Verdict.DISCRETE
    for v in verdicts:
        if v is Verdict.NOT_DISCRETE:
            return Verdict.NOT_DISCRETE
        if v is Verdict.UNKNOWN:
            out = Verdict.UNKNOWN
    return out


@dataclass(frozen=True)
class NodeVerdict:
    verdict: Verdict
    reason: str


@dataclass(frozen=True)
class DiscretenessVerdict:
    overall: Verdict
    per_node: tuple[tuple[str, NodeVerdict], ...]


def discreteness_verdict(cfg: Configuration,
                         restrictions: Mapping[str, Verdict | str]) -> DiscretenessVerdict:
    """Fold restriction verdicts through the configuration's pieces and its
    free factor.

    ``restrictions`` must cover every component; singulars with nontrivial
    groups must be covered too (trivial ones are discrete outright), and it
    may name no other node.  A free factor of rank ``free_rank(cfg)``, when
    positive, is discrete and closes the list: the direct route's cotree
    conjugators number that rank, and so do the recursive route's block
    cotree and interface conjugators together.  Edge relations are
    quotient steps and preserve the verdict, so they contribute nothing.
    """
    verdicts = {k: Verdict(v) for k, v in restrictions.items()}
    unknown = sorted(set(verdicts) - {n.id for n in (*cfg.components, *cfg.singulars)})
    if unknown:
        raise ValueError(f"verdict given for unknown node {unknown[0]}")
    entries: list[tuple[str, NodeVerdict]] = []
    for c in cfg.components:
        if c.id not in verdicts:
            raise ValueError(f"missing verdict for component {c.id}")
        entries.append((c.id, NodeVerdict(verdicts[c.id], "supplied restriction verdict")))
    for s in cfg.singulars:
        if not s.group.generators:
            entries.append((s.id, NodeVerdict(Verdict.DISCRETE, "trivial group")))
        elif s.id in verdicts:
            entries.append((s.id, NodeVerdict(verdicts[s.id], "supplied restriction verdict")))
        else:
            raise ValueError(f"missing verdict for nontrivial singular {s.id}")
    rank = free_rank(cfg)
    if rank:
        entries.append(("(free factor)",
                        NodeVerdict(Verdict.DISCRETE, f"free factor of rank {rank}")))
    overall = combine(v.verdict for _, v in entries)
    return DiscretenessVerdict(overall, tuple(entries))


# A tiny expression tree modelling how verdicts compose: coproducts take the
# conjunction of their children, quotients are transparent.  The test suite
# checks exhaustively that every such tree folds to the flat conjunction of
# its leaves.

@dataclass(frozen=True)
class Leaf:
    verdict: Verdict


@dataclass(frozen=True)
class Coproduct:
    children: tuple["VerdictTree", ...]


@dataclass(frozen=True)
class Quotient:
    child: "VerdictTree"


VerdictTree = Union[Leaf, Coproduct, Quotient]


def fold_verdicts(tree: VerdictTree) -> Verdict:
    """The conjunction of the leaves: quotients change nothing."""
    return combine(tree_leaves(tree))


def tree_leaves(tree: VerdictTree) -> list[Verdict]:
    """The leaf verdicts left to right, walked on an explicit stack."""
    out: list[Verdict] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.verdict)
        elif isinstance(node, Quotient):
            stack.append(node.child)
        else:
            stack.extend(reversed(node.children))
    return out
