"""Finite group presentations and the basic constructions on them.

A presentation is a finite generator list plus a finite list of relators
(words asserted equal to the identity).  No word-problem machinery lives
here: two presentations are compared only through their finite permutation
actions (see ``homs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .words import GenId, Word, reduce_word

__all__ = [
    "Presentation",
    "free_presentation",
    "trivial_presentation",
    "cyclic_presentation",
    "free_product",
    "add_relations",
    "rename_namespaces",
]


@dataclass(frozen=True)
class Presentation:
    """Generators plus relators; relators are stored reduced."""

    generators: tuple[GenId, ...]
    relations: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for g in self.generators:
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)
        reduced = []
        for w in self.relations:
            for g in w.generators():
                if g not in seen:
                    raise ValueError(f"relation uses unknown generator {g}")
            reduced.append(reduce_word(w))
        object.__setattr__(self, "relations", tuple(reduced))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def namespaces(self) -> frozenset[str]:
        return frozenset(g.namespace for g in self.generators)

    def __str__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        rels = ", ".join(str(r) for r in self.relations)
        return f"<{gens} | {rels}>"


def free_presentation(namespace: str, rank: int) -> Presentation:
    return Presentation(tuple(GenId(namespace, i) for i in range(rank)))


def trivial_presentation() -> Presentation:
    return Presentation(())


def cyclic_presentation(namespace: str, order: int) -> Presentation:
    """The cyclic group of the given order on one generator."""
    if order < 1:
        raise ValueError("order must be positive")
    a = GenId(namespace, 0)
    return Presentation((a,), (Word(((a, 1),) * order),))


def free_product(p: Presentation, q: Presentation) -> Presentation:
    """Disjoint union of generators and relators.

    The factors must not share namespaces; rename first if they do.  Finite
    actions of the result are exactly pairs of actions of the factors, so hom
    counts multiply.
    """
    clash = p.namespaces() & q.namespaces()
    if clash:
        raise ValueError(f"namespace collision: {sorted(clash)}")
    return Presentation(p.generators + q.generators, p.relations + q.relations)


def add_relations(p: Presentation,
                  pairs: Iterable[tuple[Word, Word]]) -> Presentation:
    """Impose equalities f = g by appending the relators f*g^-1."""
    known = set(p.generators)
    extra = []
    for f, g in pairs:
        for gid in f.generators() | g.generators():
            if gid not in known:
                raise ValueError(f"unknown generator {gid}")
        extra.append(f * g.inverse())
    return Presentation(p.generators, p.relations + tuple(extra))


def rename_namespaces(
    p: Presentation, rename: Callable[[str], str] | Mapping[str, str]
) -> tuple[Presentation, dict[GenId, GenId]]:
    """Rewrite generator namespaces; returns the new presentation and the
    old-to-new generator map."""
    if not callable(rename):
        table = dict(rename)
        rename = lambda ns: table.get(ns, ns)  # noqa: E731
    mapping = {g: GenId(rename(g.namespace), g.index) for g in p.generators}

    def rw(w: Word) -> Word:
        return Word(tuple((mapping[g], s) for g, s in w.letters))

    renamed = Presentation(tuple(mapping[g] for g in p.generators),
                           tuple(rw(w) for w in p.relations))
    return renamed, mapping
