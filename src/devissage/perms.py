"""Permutations of {0..d-1} and finite permutation groups used as probes.

Conventions used throughout the package:

* a permutation is a tuple ``p`` with ``p[i]`` the image of ``i``;
* ``compose(p, q)`` applies ``q`` first, then ``p``;
* groups act on the left, so the rightmost letter of a word acts first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Perm",
    "identity_perm",
    "compose",
    "inverse_perm",
    "is_transitive",
    "PermGroupTarget",
    "symmetric",
    "cyclic",
]

Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    return tuple(p[x] for x in q)


def inverse_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_perm(p: Sequence[int], degree: int) -> bool:
    return len(p) == degree and sorted(p) == list(range(degree))


def is_transitive(perms: Iterable[Perm], degree: int) -> bool:
    """Single orbit under the group generated by ``perms``."""
    if degree == 0:
        return False
    seen = {0}
    frontier = [0]
    moves = list(perms)
    while frontier:
        x = frontier.pop()
        for p in moves:
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == degree


def _cayley_walk(degree: int, generators: Sequence[Perm]
                 ) -> Iterator[tuple[Perm, int, Perm, bool]]:
    """Every edge ``(g, j, h, new)``, h = compose(g, generators[j]), of a
    breadth-first walk of the right Cayley graph from the identity, in walk
    order and generators in listed order; ``new`` says h is first seen."""
    queue = [identity_perm(degree)]
    seen = set(queue)
    for g in queue:  # the queue grows while it is read
        for j, p in enumerate(generators):
            h = compose(g, p)
            new = h not in seen
            if new:
                seen.add(h)
                queue.append(h)
            yield g, j, h, new


@dataclass(frozen=True)
class PermGroupTarget:
    """A finite permutation group, the universal probe for presentations.

    Construction checks that each generator permutes 0..degree-1 and walks
    their Cayley graph for the elements, a group by construction, sorted so
    enumeration order is deterministic.  Equality and hashing read only the
    degree and the elements.
    """

    degree: int
    generators: tuple[Perm, ...] = field(compare=False)
    name: str = field(default="", compare=False)
    elements: tuple[Perm, ...] = field(init=False)

    def __post_init__(self) -> None:
        d = self.degree
        for p in self.generators:
            if not is_perm(p, d):
                raise ValueError(f"not a permutation of 0..{d - 1}: {p}")
        reached = [h for _, _, h, new in _cayley_walk(d, self.generators) if new]
        object.__setattr__(self, "elements", tuple(sorted([identity_perm(d), *reached])))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return self.name or f"<order-{self.order} group on {self.degree} points>"


@lru_cache(maxsize=None)
def symmetric(degree: int) -> PermGroupTarget:
    """S_degree, generated by the cycle i -> i + 1 (mod degree) and, from
    degree 3 on, the transposition of 0 and 1."""
    cycle = tuple((i + 1) % degree for i in range(degree))
    gens = (cycle, (1, 0, *range(2, degree))) if degree > 2 else (cycle,)
    return PermGroupTarget(degree, gens, name=f"S{degree}")


@lru_cache(maxsize=None)
def cyclic(order: int) -> PermGroupTarget:
    """Z/order acting on itself by rotation, generated by i -> i + 1
    (mod order); its elements are the ``order`` rotations."""
    if order < 1:
        raise ValueError("order must be positive")
    return PermGroupTarget(order, (tuple((i + 1) % order for i in range(order)),),
                           name=f"Z{order}")
