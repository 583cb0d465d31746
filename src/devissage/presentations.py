"""Finite group presentations and the basic constructions on them.

A presentation is a finite generator list plus a finite list of relators
(words asserted equal to the identity).  No word-problem machinery lives
here: two presentations are compared only through their finite permutation
actions (see ``homs``), ``_abelian_failures`` reads words only through
their exponent sums, and ``_fox_rows`` reads indexed relators only through
a permutation table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .words import GenId, Letter, Word, reduce_word

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


def _abelian_failures(relations: Sequence[Word], images: Mapping[GenId, Word],
                      target: Presentation) -> Iterator[int]:
    """The positions of the relators whose image under ``images`` is not
    trivial even in the abelianisation of ``target``: the image's exponent
    sums lie outside the row lattice of the target's exponent-sum matrix.
    Each relator is checked only when asked for."""
    pos = {g: i for i, g in enumerate(target.generators)}

    def sums(letters: Iterable[Letter]) -> list[int]:
        v = [0] * len(pos)
        for g, s in letters:
            v[pos[g]] += s
        return v

    basis = _row_echelon([sums(w.letters) for w in target.relations])
    return (j for j, rel in enumerate(relations)
            if not _in_row_lattice(sums((t, s * e) for g, s in rel.letters
                                        for t, e in images[g].letters), basis))


def _row_echelon(rows: list[list[int]]) -> list[list[int]]:
    """A basis of the integer row lattice of ``rows`` in echelon form: each
    row's first nonzero entry, its pivot, is positive and lies strictly
    right of the previous row's.  Euclid's algorithm on each column in
    turn, by integer row operations only."""
    basis: list[list[int]] = []
    rows = [r for r in rows if any(r)]
    for c in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            p, rest, live = live[0], live[1:], [live[0]]
            for r in rest:
                r = [x - r[c] // p[c] * y for x, y in zip(r, p)]
                (live if r[c] else rows).append(r)
        if live:
            basis.append(live[0] if live[0][c] > 0 else [-x for x in live[0]])
        rows = [r for r in rows if any(r)]
    return basis


def _diagonal_form(rows: list[list[int]]) -> list[int]:
    """The nonzero entries s_1..s_k of a diagonal form U·rows·V, U and V
    unimodular, so that rows·v = 0 has j^(N-k)·prod gcd(s_i, j) solutions
    mod j in N unknowns.  Echelon forms of the rows and of the columns in
    turn, until each row has one nonzero entry; an echelon form alone is
    not enough ([[2, 1], [0, 4]] is diagonally (1, 8))."""
    rows = _row_echelon(rows)
    while any(sum(map(bool, row)) > 1 for row in rows):
        rows = _row_echelon([list(col) for col in zip(*rows)])
    return [next(filter(None, row)) for row in rows]


def _fox_rows(img: Sequence[Sequence[int]], rels: Sequence[Sequence[tuple[int, int]]],
              d: int) -> list[list[int]]:
    """The equations c(w) = sum_g (dw/dg)·c(g) = 0 (Fox calculus) of the
    crossed homs c into the permutation module of the table ``img`` on d
    points: per relator w and point y, a row over the unknowns c(g)_x in
    column g·d + x.  A letter g adds its prefix's action times c(g), and
    g^-1 subtracts that of the prefix through itself."""
    rows = []
    for rel in rels:
        eq = [[0] * (len(img) * d) for _ in range(d)]
        prefix = list(range(d))  # the action of the letters read so far
        for g, s in rel:
            row, col = img[g], g * d
            if s > 0:
                for x in range(d):
                    eq[prefix[x]][col + x] += 1
                prefix = [prefix[row[x]] for x in range(d)]
            else:
                after = [0] * d
                for x in range(d):
                    eq[prefix[x]][col + row[x]] -= 1
                    after[row[x]] = prefix[x]
                prefix = after
        rows += eq
    return rows


def _in_row_lattice(v: list[int], basis: list[list[int]]) -> bool:
    """True iff ``v`` is an integer combination of the echelon ``basis``:
    each pivot fixes its row's coefficient, and nothing may be left."""
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        q = v[c] // row[c]
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)
