"""Homomorphisms from presented groups into finite permutation groups.

This module is the verification substrate for everything else: since the
word problem is undecidable in general, equality claims about presented
groups are only ever certified through exhaustive enumeration of their
finite actions.  ``enumerate_homs`` is the universal oracle;
``count_transitive_actions`` counts connected covers of the classifying
object, i.e. transitive actions up to simultaneous conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections import Counter
from math import comb, factorial, gcd, prod
from typing import Iterator, Mapping, Sequence, Union

from .perms import (Perm, PermGroupTarget, compose, identity_perm,
                    inverse_perm, is_perm)
from .presentations import Presentation, _diagonal_form, _fox_rows
from .words import GenId, Word

__all__ = [
    "Hom",
    "hom",
    "Fingerprint",
    "eval_word",
    "verify_hom",
    "pullback",
    "enumerate_homs",
    "hom_count",
    "fingerprint",
    "count_transitive_actions",
]

Image = Union[Word, Perm]


@dataclass(frozen=True)
class Hom:
    """A homomorphism described on generators.

    Images are words when the target is a presentation and permutations when
    it is a finite group.  Relator-vanishing is checkable (and checked by
    ``verify_hom``) only in the permutation case; word-valued homs are
    certified indirectly, through the finite actions they transport.
    """

    source: Presentation
    target: Presentation | PermGroupTarget
    images: tuple[tuple[GenId, Image], ...]

    @cached_property
    def _by_gen(self) -> dict[GenId, Image]:
        return dict(self.images)  # built on first use: most homs are never asked

    def image(self, g: GenId) -> Image:
        return self._by_gen[g]

    def images_dict(self) -> dict[GenId, Image]:
        return dict(self.images)


def hom(source: Presentation,
        target: Presentation | PermGroupTarget,
        images: Mapping[GenId, Image]) -> Hom:
    """Build a ``Hom``, checking every source generator has a valid image."""
    pairs = []
    known = None if isinstance(target, PermGroupTarget) else set(target.generators)
    for g in source.generators:
        if g not in images:
            raise ValueError(f"missing image for {g}")
        img = images[g]
        if isinstance(target, PermGroupTarget):
            if not (isinstance(img, tuple) and is_perm(img, target.degree)):
                raise ValueError(f"image of {g} is not a degree-{target.degree} permutation")
        else:
            if not isinstance(img, Word):
                raise ValueError(f"image of {g} must be a word")
            unknown = img.generators() - known
            if unknown:
                raise ValueError(f"image of {g} uses unknown generators {sorted(map(str, unknown))}")
        pairs.append((g, img))
    extra = set(images) - set(source.generators)
    if extra:
        raise ValueError(f"images given for non-generators {sorted(map(str, extra))}")
    return Hom(source, target, tuple(pairs))


def eval_word(w: Word, images: Mapping[GenId, Perm], degree: int) -> Perm:
    """Evaluate a word in a permutation action (rightmost letter first).

    Raises ValueError when a letter's generator has no image that is a
    permutation of degree ``degree``."""
    out = identity_perm(degree)
    for g, s in reversed(w.letters):
        p = images.get(g)
        if p is None or not is_perm(p, degree):
            raise ValueError(f"no degree-{degree} permutation image for generator {g}")
        out = compose(p if s > 0 else inverse_perm(p), out)
    return out


def _failing_relators(relations: Sequence[Word], images: Mapping[GenId, Perm],
                      degree: int) -> Iterator[int]:
    """The positions of the relators that do not act trivially under
    ``images``, in order; each relator is evaluated only when asked for."""
    ident = identity_perm(degree)
    return (i for i, rel in enumerate(relations) if eval_word(rel, images, degree) != ident)


def verify_hom(h: Hom) -> bool:
    """True iff every relator of the source maps to the identity.

    Only decidable for permutation targets.
    """
    if not isinstance(h.target, PermGroupTarget):
        raise ValueError("verify_hom needs a finite permutation target")
    d = h.target.degree
    images = h.images_dict()
    universe = set(h.target.elements)
    if any(img not in universe for img in images.values()):
        return False
    return next(_failing_relators(h.source.relations, images, d), None) is None


def pullback(h: Hom, via: Hom) -> Hom:
    """Transport a permutation-valued hom along a word-valued one.

    ``via`` maps presentation P into presentation Q; composing with
    ``h : Q -> G`` yields the induced hom ``P -> G``.
    """
    if not isinstance(h.target, PermGroupTarget):
        raise ValueError("pullback target must be a permutation group")
    if via.target != h.source:
        raise ValueError("hom sources do not line up")
    d = h.target.degree
    himg = h.images_dict()
    images = {g: eval_word(w, himg, d) for g, w in via.images}
    return hom(via.source, h.target, images)


def _indexed_relators(p: Presentation) -> list[tuple[tuple[int, int], ...]]:
    """The nonempty relators, each letter's generator replaced by its
    position in ``p.generators``."""
    pos = {g: i for i, g in enumerate(p.generators)}
    return [tuple((pos[g], s) for g, s in w.letters)
            for w in p.relations if w.letters]


Relator = tuple[tuple[int, int], ...]


def _blocks(r: int, rels: Sequence[Relator]) -> list[tuple[int, tuple[Relator, ...]]]:
    """The relator-connected blocks of the generators 0..r-1 (union-find),
    in the order of their least generators: per block, its rank and its
    relators in their given order, generators renumbered in the block.  A
    generator in no relator is a block of rank 1 with no relator.  The
    group is the free product of its blocks' groups."""
    parent = list(range(r))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for rel in rels:
        for x, _ in rel:
            parent[find(x)] = find(rel[0][0])
    blocks: dict[int, tuple[list[int], list[Relator]]] = {}
    for x in range(r):
        blocks.setdefault(find(x), ([], []))[0].append(x)
    for rel in rels:
        blocks[find(rel[0][0])][1].append(rel)
    pos = {x: i for gens, _ in blocks.values() for i, x in enumerate(gens)}
    return [(len(gens), tuple(tuple((pos[x], s) for x, s in rel) for rel in block_rels))
            for gens, block_rels in blocks.values()]


def _iter_image_tuples(r: int, rels: Sequence[Relator],
                       g: PermGroupTarget) -> Iterator[tuple[Perm, ...]]:
    """Depth-first search over the images of generators 0..r-1 in order,
    for the indexed relators ``rels``.

    A relator is checked as soon as its last-listed generator receives an
    image; this early pruning is what keeps larger probes tractable.  The
    search runs on an explicit stack (per generator, the index of the next
    element to try), so the rank is not bounded by the recursion limit.
    """
    if r == 0:
        yield ()
        return
    by_last: list[list[Relator]] = [[] for _ in range(r)]
    for rel in rels:
        by_last[max(i for i, _ in rel)].append(rel)
    d = g.degree
    ident = identity_perm(d)
    elements = g.elements
    chosen: list[Perm] = [ident] * r
    inverses: list[Perm] = [ident] * r

    def ok(rel: tuple[tuple[int, int], ...]) -> bool:
        out = ident
        for gi, s in reversed(rel):
            out = compose(chosen[gi] if s > 0 else inverses[gi], out)
        return out == ident

    following = [0] * r
    k = 0
    while k >= 0:
        i = following[k]
        if i == len(elements):
            following[k] = 0
            k -= 1
            continue
        following[k] = i + 1
        chosen[k] = elements[i]
        inverses[k] = inverse_perm(elements[i])
        if all(ok(rel) for rel in by_last[k]):
            if k == r - 1:
                yield tuple(chosen)
            else:
                k += 1


def enumerate_homs(p: Presentation, g: PermGroupTarget) -> list[Hom]:
    """All homs from ``p`` to ``g``, in a fixed deterministic order."""
    gens = p.generators
    return [Hom(p, g, tuple(zip(gens, images)))
            for images in _iter_image_tuples(len(gens), _indexed_relators(p), g)]


def hom_count(p: Presentation, g: PermGroupTarget) -> int:
    """The number of homs from ``p`` to ``g``, counted per block.

    The count is the product of the counts of the relator-connected
    blocks (``_blocks``); a generator in no relator is a block of its own
    with |g| images, which gives Hall's |Hom(F_r, G)| = |G|^r without
    enumerating the |G|^r tuples.  ``enumerate_homs`` is the oracle.
    """
    count = 1
    for r, rels in _blocks(len(p.generators), _indexed_relators(p)):
        count *= sum(1 for _ in _iter_image_tuples(r, rels, g))
    return count


@dataclass(frozen=True)
class Fingerprint:
    """Hom counts into a list of probe groups.

    Equal fingerprints are a necessary (not sufficient) condition for two
    presentations to define isomorphic groups.
    """

    probes: tuple[PermGroupTarget, ...]
    counts: tuple[int, ...]

    def __str__(self) -> str:
        return ", ".join(f"{p}:{c}" for p, c in zip(self.probes, self.counts))


def fingerprint(p: Presentation, probes: Sequence[PermGroupTarget]) -> Fingerprint:
    probes = tuple(probes)
    return Fingerprint(probes, tuple(hom_count(p, g) for g in probes))


def _relator_order(rel: tuple[tuple[int, int], ...]) -> tuple:
    # Shortest first, then the least generators, positive letters first.
    return len(rel), [(gi, -s) for gi, s in rel]


def _reduced_relators(p: Presentation) -> list[tuple[tuple[int, int], ...]]:
    """The counter's relators: each nonempty indexed relator cyclically
    reduced, and one kept per class up to rotation and inversion, all in
    ``_relator_order``.

    A permutation action satisfies a relator iff it satisfies every
    cyclic conjugate and the inverse, so the transitive actions are those
    of ``p``.  The order changes no count; positive letters first and
    short relators first made the search faster on relator-heavy inputs.
    Only the counter reads this list; the census never sees a
    presentation, so census = counter also certifies the reduction.
    """
    classes = set()
    for w in _indexed_relators(p):  # already freely reduced
        while len(w) > 1 and w[0] == (w[-1][0], -w[-1][1]):
            w = w[1:-1]
        inv = tuple((gi, -s) for gi, s in reversed(w))
        classes.add(min((v[k:] + v[:k] for v in (w, inv) for k in range(len(w))),
                        key=_relator_order))
    return sorted(classes, key=_relator_order)


def _subgroup_counts(h: Sequence[int]) -> list[int]:
    """Hall's count (1949): from h_k = |Hom(G, S_k)| for k = 1..n, the
    numbers a_1..a_n of index-k subgroups of G.

    t_k = (k-1)!·a_k counts the transitive homs into S_k; a hom into S_n
    is a transitive action on the orbit of point 0, of some size k, times
    any action on the other n-k points, so
    t_n = h_n - sum_{k<n} C(n-1, k-1)·t_k·h_{n-k}, which is
    a_n = h_n/(n-1)! - sum_{k<n} h_{n-k}/(n-k)!·a_k in integers.
    """
    t: list[int] = []
    a: list[int] = []
    for n, hn in enumerate(h, 1):
        t.append(hn - sum(comb(n - 1, k - 1) * t[k - 1] * h[n - k - 1]
                          for k in range(1, n)))
        q, rem = divmod(t[-1], factorial(n - 1))
        if rem:
            raise ValueError(f"h_1..h_{n} are not hom counts into S_1..S_{n}")
        a.append(q)
    return a


def _check_degree(degree: int, name: str = "degree") -> None:
    """The one check of every degree reader: an int that is not a bool,
    and at least 1."""
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ValueError(f"{name} must be an integer, not {degree!r}")
    if degree < 1:
        raise ValueError(f"{name} must be at least 1")


def _pointed_tables(r: int, rels: Sequence[Relator],
                    degree: int) -> Iterator[tuple[int, list[list[int]]]]:
    """The transitive actions on at most ``degree`` points of the group
    with r >= 1 generators and the indexed relators ``rels``, one table
    per pointed action, that is one per subgroup of index at most
    ``degree`` (the stabiliser of point 0).

    The search fills the table cell by cell, point-major ((point 0,
    generator 0), (point 0, generator 1), ...), and points are labelled in
    the order this scan discovers them, so each pointed action has one
    table.  A table is complete when every discovered point's cells are
    filled: on all ``degree`` points, or closed up early on fewer.  The
    scan runs on an explicit stack, one entry per cell, so its depth
    (degree times rank) is not bounded by the interpreter's recursion
    limit; a cell's label is its own table entry.  One site at the top of
    the loop picks, sets and undoes every label: a cell's first label and
    its next one after a failed relator check, a complete table or a
    backtrack all pass through it.  Each complete table on k points is
    yielded as ``(k, img)``, the search's own rows: ``img[g][x]`` is the
    image of point x < k under generator g.  Read it before resuming.
    """
    # Pointwise tracing applies letters one at a time, so walk them reversed
    # to realize the left action (rightmost letter acts first).
    paths = [tuple(reversed(rel)) for rel in rels]
    by_gen: list[list[Relator]] = [[] for _ in range(r)]
    for path in paths:
        for gi in {i for i, _ in path}:
            by_gen[gi].append(path)

    d = degree
    img = [[-1] * d for _ in range(r)]
    pre = [[-1] * d for _ in range(r)]

    def relators_ok(rels, n: int) -> bool:
        # Prune on any relator trace that is fully determined and fails;
        # n points are discovered.
        for path in rels:
            for start in range(n):
                x = start
                for gj, s in path:
                    x = img[gj][x] if s > 0 else pre[gj][x]
                    if x < 0:
                        break
                else:
                    if x != start:
                        return False
        return True

    cells = d * r
    # Per cell: its point, the row and inverse row of its generator, the
    # relators through that generator, and the point of the next cell.
    plan = [(cell // r, img[cell % r], pre[cell % r], by_gen[cell % r],
             (cell + 1) // r) for cell in range(cells)]
    known = [1] * cells  # points discovered when the cell was reached; set on descent
    limit = [min(n + 1, d) for n in range(d + 1)]  # labels open to n points
    cell = 0
    while cell >= 0:
        # The one site that picks, sets and undoes labels.
        point, row, col, rels, next_point = plan[cell]
        n, q = known[cell], row[point] + 1  # q: the first label to try
        if q:
            row[point] = col[q - 1] = -1
        top = limit[n]
        while q < top and col[q] >= 0:
            q += 1
        if q == top:
            cell -= 1
            continue
        row[point], col[q] = q, point
        found = n + 1 if q == n else n
        if rels and not relators_ok(rels, found):
            continue
        if next_point < found:
            cell += 1
            known[cell] = found
        else:
            yield found, img


def count_transitive_actions(p: Presentation, degree: int) -> int:
    """Transitive actions of ``p`` on {0..degree-1} up to conjugation.

    Equivalently: isomorphism classes of connected degree-``degree`` covers
    of the classifying object.  The relators are cyclically reduced
    (``_reduced_relators``) and split into blocks (``_blocks``), so the
    group G is the free product of the blocks' groups, Z for a free
    generator.  Mednykh's count (1982) is
    c_n = (1/n) sum_{l | n} sum_{[G:K] = l} |Epi(K, Z/(n/l))|, where
    |Epi(K, Z/k)| = |Hom(K, Z/k)| - sum_{j | k, j < k} |Epi(K, Z/j)|.
    By Shapiro's lemma j^(l-1)·|Hom(K, Z/j)| counts the crossed homs of G
    into the permutation module (Z/j)^l of G/K.  They add over the orbits
    of an action and multiply over free factors, so the exponential
    formula over each block's pointed tables (``_pointed_tables``), each
    weighted by its crossed homs, j^(N-k)·prod gcd(s_i, j) from a diagonal
    form s_1..s_k of its N-unknown Fox equations (``_fox_rows``), gives
    the sums H_q over all homs of G into S_q, and Hall's recursion
    (``_subgroup_counts``) turns H_1..H_(n/j) into
    j^(l-1)·sum_{[G:K] = l} |Hom(K, Z/j)|.  Equal blocks are counted once.
    """
    _check_degree(degree)
    n = degree
    divisors = [j for j in range(1, n + 1) if n % j == 0]
    homs_into = {j: [1] * (n // j) for j in divisors}  # j -> H_1..H_(n/j) of G
    wide = [[j for j in divisors[1:] if d * j <= n] for d in range(n + 1)]  # j >= 2 per degree
    for (r, rels), times in Counter(_blocks(len(p.generators), _reduced_relators(p))).items():
        crossed = {j: [0] * (n // j) for j in divisors}  # j -> per degree, over the tables
        for d, img in _pointed_tables(r, rels, n):
            crossed[1][d - 1] += 1
            if wide[d]:
                diagonal = _diagonal_form(_fox_rows(img, rels, d))
                for j in wide[d]:
                    crossed[j][d - 1] += (j ** (r * d - len(diagonal))
                                          * prod(gcd(s, j) for s in diagonal))
        for j, sums in crossed.items():
            h = [1]  # the block's H_0, H_1, ...
            for q in range(1, len(sums) + 1):
                h.append(sum(factorial(q - 1) // factorial(q - d) * sums[d - 1] * h[q - d]
                             for d in range(1, q + 1)))
            homs_into[j] = [x * y ** times for x, y in zip(homs_into[j], h[1:])]
    hom_sums = {}  # hom_sums[j][l-1] = sum over index-l K of |Hom(K, Z/j)|
    for j, h in homs_into.items():
        scaled = [divmod(a, j ** l) for l, a in enumerate(_subgroup_counts(h))]
        if any(rem for _, rem in scaled):
            raise RuntimeError("a weighted subgroup count is not a multiple of j^(l-1)")
        hom_sums[j] = [x for x, _ in scaled]
    total = 0
    for l in divisors:
        epi: dict[int, int] = {}  # epi[j] = sum over K of |Epi(K, Z/j)|
        for j in range(1, n // l + 1):
            if n // l % j == 0:
                epi[j] = hom_sums[j][l - 1] - sum(e for i, e in epi.items() if j % i == 0)
        total += epi[n // l]
    if total % n:
        raise RuntimeError("Mednykh's class count is not an integer")
    return total // n
