"""Permutations of {0..d-1} and finite permutation groups used as probes.

Conventions used throughout the package:

* a permutation is a tuple ``p`` with ``p[i]`` the image of ``i``;
* ``compose(p, q)`` applies ``q`` first, then ``p``;
* groups act on the left, so the rightmost letter of a word acts first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class PermGroupTarget:
    """A finite permutation group, the universal probe for presentations.

    ``elements`` is the full element list, not a generating set: callers
    list every element, construction sorts them so enumeration order is
    deterministic and checks that they really form a group.
    """

    degree: int
    elements: tuple[Perm, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        els = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", els)
        d = self.degree
        for p in els:
            if not is_perm(p, d):
                raise ValueError(f"not a permutation of 0..{d - 1}: {p}")
        universe = set(els)
        if identity_perm(d) not in universe:
            raise ValueError("identity missing")
        for p in els:
            if inverse_perm(p) not in universe:
                raise ValueError(f"inverse of {p} missing")
            for q in els:
                if compose(p, q) not in universe:
                    raise ValueError(f"product {p}*{q} escapes the element list")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return self.name or f"<order-{self.order} group on {self.degree} points>"


@lru_cache(maxsize=None)
def symmetric(degree: int) -> PermGroupTarget:
    """The full symmetric group S_degree."""
    els = tuple(itertools.permutations(range(degree)))
    return PermGroupTarget(degree, els, name=f"S{degree}")


@lru_cache(maxsize=None)
def cyclic(order: int) -> PermGroupTarget:
    """Z/order acting on itself by rotation: the ``order`` rotations
    i -> i + k (mod order)."""
    rotations = tuple(tuple((i + k) % order for i in range(order))
                      for k in range(order))
    return PermGroupTarget(order, rotations, name=f"Z{order}")
