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
from math import comb, factorial, gcd
from typing import Iterator, Mapping, Sequence, Union

from .perms import (Perm, PermGroupTarget, compose, identity_perm,
                    inverse_perm, is_perm)
from .presentations import Presentation
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


def _iter_image_tuples(p: Presentation, g: PermGroupTarget) -> Iterator[tuple[Perm, ...]]:
    """Depth-first search over generator images in listed order.

    A relator is checked as soon as its last-listed generator receives an
    image; this early pruning is what keeps larger probes tractable.  The
    search runs on an explicit stack (per generator, the index of the next
    element to try), so the rank is not bounded by the recursion limit.
    """
    r = len(p.generators)
    if r == 0:
        yield ()
        return
    rels = _indexed_relators(p)
    by_last: list[list[tuple[tuple[int, int], ...]]] = [[] for _ in range(r)]
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
            for images in _iter_image_tuples(p, g)]


def hom_count(p: Presentation, g: PermGroupTarget) -> int:
    """The number of homs from ``p`` to ``g``, counted per block.

    Two generators share a block when some relator uses both (union-find).
    A hom is an independent choice per block, so the count is the product
    of the blocks' counts; a generator in no relator is a block of its own
    with |g| images, which gives Hall's |Hom(F_r, G)| = |G|^r without
    enumerating the |G|^r tuples.  ``enumerate_homs`` is the oracle.
    """
    parent = {x: x for x in p.generators}

    def find(x: GenId) -> GenId:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for w in p.relations:
        for x, _ in w.letters:
            parent[find(x)] = find(w.letters[0][0])
    gens: dict[GenId, list[GenId]] = {}
    rels: dict[GenId, list[Word]] = {}
    for x in p.generators:
        gens.setdefault(find(x), []).append(x)
    for w in p.relations:
        if w.letters:
            rels.setdefault(find(w.letters[0][0]), []).append(w)
    count = 1
    for root, block in gens.items():
        sub = Presentation(tuple(block), tuple(rels.get(root, ())))
        count *= sum(1 for _ in _iter_image_tuples(sub, g))
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


def _free_product_transitive_count(orders: Sequence[int], r: int, n: int) -> int:
    """c_n(G), the transitive actions on n points up to conjugation of
    G = Z/m_1 * ... * Z/m_k * F_r (``orders`` lists m_1..m_k), by
    Mednykh's count (1982):
    c_n = (1/n) sum_{l | n} sum_{[G:K] = l} |Epi(K, Z/(n/l))|.

    By Kurosh, an index-l subgroup K is the free product of Z/(m_i/|c|)
    over the cycles c of each a_i on G/K and of F_b, where
    b = 1 - C + l(k + r - 1) by Euler characteristic (C cycles in all).
    So j^(l-1)·|Hom(K, Z/j)| = j^(lr)·prod over cycles of
    gcd(m_i/|c|, j)·j^(|c|-1), a weight that multiplies over the orbits
    of any action.  Hall's recursion over the weighted counts
    H_q = j^(qr)·(q!)^r·prod_i S_i(q) of all homs into S_q, where S_i(q)
    sums the weights of the permutations whose m_i-th power is trivial,
    thus gives j^(l-1)·sum_{[G:K] = l} |Hom(K, Z/j)|.  A hom onto Z/k
    maps onto the subgroup of order j for exactly one j | k, so
    |Epi(K, Z/k)| = |Hom(K, Z/k)| - sum_{j | k, j < k} |Epi(K, Z/j)|.
    Free groups are the case k = 0 (Liskovets, 1971).
    """
    hom_sums = {}  # hom_sums[j][l-1] = sum over index-l K of |Hom(K, Z/j)|
    for j in range(1, n + 1):
        if n % j:
            continue
        weights = [[1] for _ in orders]  # per order m, S(0), S(1), ...
        h = []
        for q in range(1, n // j + 1):
            hq = (j ** q * factorial(q)) ** r
            for m, s in zip(orders, weights):
                s.append(sum(factorial(q - 1) // factorial(q - d) * gcd(m // d, j)
                             * j ** (d - 1) * s[q - d]
                             for d in range(1, min(m, q) + 1) if m % d == 0))
                hq *= s[q]
            h.append(hq)
        scaled = [divmod(a, j ** l) for l, a in enumerate(_subgroup_counts(h))]
        if any(rem for _, rem in scaled):
            raise RuntimeError("a weighted subgroup count is not a multiple of j^(l-1)")
        hom_sums[j] = [x for x, _ in scaled]
    total = 0
    for l in range(1, n + 1):
        if n % l:
            continue
        epi: dict[int, int] = {}  # epi[j] = sum over K of |Epi(K, Z/j)|
        for j in range(1, n // l + 1):
            if n // l % j == 0:
                epi[j] = hom_sums[j][l - 1] - sum(e for i, e in epi.items() if j % i == 0)
        total += epi[n // l]
    if total % n:
        raise RuntimeError("Mednykh's class count is not an integer")
    return total // n


def count_transitive_actions(p: Presentation, degree: int) -> int:
    """Transitive actions of ``p`` on {0..degree-1} up to conjugation.

    Equivalently: isomorphism classes of connected degree-``degree`` covers
    of the classifying object.  The relators are first cyclically reduced
    and deduplicated (``_reduced_relators``).  When each one left is a
    power a^e of a single generator, ``p`` is a free product of cyclic
    groups, Z/m for a generator whose relators have lengths of gcd m and Z
    for a generator in no relator, and the count is exact integer
    arithmetic: Hall's subgroup recursion (1949) over Kurosh's subgroups,
    fed into Mednykh's class count (1982), see
    ``_free_product_transitive_count``.  Free groups are the case with no
    relator left, and the trivial group the case with no generator.
    Otherwise ``_count_by_search`` finds the actions by search.
    """
    if not isinstance(degree, int):
        raise ValueError(f"degree must be an integer, not {degree!r}")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    r = len(p.generators)
    rels = _reduced_relators(p)
    orders: dict[int, int] = {}  # generator -> gcd of its relators' lengths
    for rel in rels:
        if any(gi != rel[0][0] for gi, _ in rel):
            return _count_by_search(r, rels, degree)
        orders[rel[0][0]] = gcd(orders.get(rel[0][0], 0), len(rel))
    return _free_product_transitive_count(list(orders.values()), r - len(orders), degree)


def _count_by_search(r: int, rels: Sequence[tuple[tuple[int, int], ...]],
                     degree: int) -> int:
    """Transitive actions on {0..degree-1} up to conjugation of the group
    with r generators and the indexed relators ``rels``, by search;
    ``count_transitive_actions`` calls it only when some relator uses two
    or more generators.

    The search fills the table cell by cell, point-major ((point 0,
    generator 0), (point 0, generator 1), ...), and enumerates one
    canonically labelled table per pointed action (points are labelled in
    the order this scan discovers them, so per-table relabelling freedom is
    gone), then divides out the base-point choice by automorphism counting:
    each isomorphism class of transitive actions contains degree/|Aut|
    pointed tables, so the class count is sum(|Aut|)/degree.  A seed is an
    automorphism iff its scan-order relabelling reproduces the table; that
    relabelling is checked cell by cell while it is built and abandoned at
    the first mismatch, and every complete table tries every other seed.
    The scan runs on an explicit stack, one entry per cell, so its depth
    (degree times rank) is not bounded by the interpreter's recursion
    limit; a cell's label is its own table entry.  One site at the top of
    the loop picks, sets and undoes every label: a cell's first label and
    its next one after a failed relator check, a complete table, an early
    close-up or a backtrack all pass through it.
    """
    # Pointwise tracing applies letters one at a time, so walk them reversed
    # to realize the left action (rightmost letter acts first).
    paths = [tuple(reversed(rel)) for rel in rels]
    by_gen: list[list[tuple[tuple[int, int], ...]]] = [[] for _ in range(r)]
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

    def automorphisms() -> int:
        # Seeds whose scan-order relabelling reproduces the table verbatim
        # are exactly the automorphisms of the action (they act freely).
        # The new label of order[k] is k, so the relabelled cell (k, gi)
        # is m[img[gi][order[k]]]; seed 0 reproduces the table.
        count = 1
        for seed in range(1, d):
            m = [-1] * d
            m[seed] = 0
            order = [seed]
            for k, x in enumerate(order):
                for row in img:
                    y = row[x]
                    if m[y] < 0:
                        m[y] = len(order)
                        order.append(y)
                    if m[y] != row[k]:
                        break
                else:
                    continue
                break
            else:
                count += 1
        return count

    cells = d * r
    # Per cell: its point, the row and inverse row of its generator, the
    # relators through that generator, and the point of the next cell.
    plan = [(cell // r, img[cell % r], pre[cell % r], by_gen[cell % r],
             (cell + 1) // r) for cell in range(cells)]
    known = [1] * cells  # points discovered when the cell was reached; set on descent
    limit = [min(n + 1, d) for n in range(d + 1)]  # labels open to n points
    aut_total = 0
    last = cells - 1
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
        if cell == last:
            aut_total += automorphisms()
        elif next_point < found:
            cell += 1
            known[cell] = found
        # else the scan closed up early: a proper sub-action
    if aut_total % d:
        raise RuntimeError("automorphism bookkeeping is inconsistent")
    return aut_total // d
