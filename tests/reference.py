"""Naive brute-force reference oracles.

Everything here is deliberately dumb: plain itertools products, no pruning,
no clever canonical forms (deduplication tries *all* relabelings).  These
functions are the yardstick the real implementations are measured against at
small degree, and the source of the frozen constants in the test suite.  Keep
them independent of the package under test.  The two closed forms at the end,
Hall's subgroup count and the class count of a free product of cyclic groups,
reach degrees and ranks the brute force cannot.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

Perm = tuple[int, ...]
# A letter is (generator index, +1|-1); a word is a sequence of letters.
Letter = tuple[int, int]


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def identity(d: int) -> Perm:
    return tuple(range(d))


def eval_word(word: Sequence[Letter], images: Sequence[Perm], d: int) -> Perm:
    out = identity(d)
    for g, s in reversed(word):
        p = images[g] if s > 0 else inverse(images[g])
        out = compose(p, out)
    return out


def all_perms(d: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(d))]


def naive_homs(num_gens: int,
               relators: Sequence[Sequence[Letter]],
               elements: Sequence[Perm]) -> list[tuple[Perm, ...]]:
    """Maps gens -> elements killing every relator, in product order."""
    if not elements:
        raise ValueError("empty target")
    d = len(elements[0])
    return [images for images in itertools.product(elements, repeat=num_gens)
            if all(eval_word(r, images, d) == identity(d) for r in relators)]


def naive_hom_count(num_gens: int,
                    relators: Sequence[Sequence[Letter]],
                    elements: Sequence[Perm]) -> int:
    """Number of maps gens -> elements killing every relator."""
    return len(naive_homs(num_gens, relators, elements))


def transitive(images: Sequence[Perm], d: int) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in images:
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == d


def naive_transitive_classes(num_gens: int,
                             relators: Sequence[Sequence[Letter]],
                             d: int) -> int:
    """Transitive actions on d points up to simultaneous conjugation.

    Dedupes by the lexicographically least conjugate over all d! relabelings.
    """
    perms = all_perms(d)
    seen = set()
    for images in itertools.product(perms, repeat=num_gens):
        if not transitive(images, d):
            continue
        if not all(eval_word(r, images, d) == identity(d) for r in relators):
            continue
        canon = min(
            tuple(compose(compose(s, p), inverse(s)) for p in images)
            for s in perms
        )
        seen.add(canon)
    return len(seen)


def naive_tuple_census(comp_groups: Sequence[tuple[int, Sequence[Sequence[Letter]]]],
                       sing_groups: Sequence[tuple[int, Sequence[Sequence[Letter]]]],
                       edges: Sequence[tuple[int, int, Sequence[Sequence[Letter]], Sequence[Sequence[Letter]]]],
                       d: int) -> int:
    """Connected degree-d descent tuples of a glued configuration, up to iso.

    comp_groups / sing_groups: per node, (number of generators, relators).
    edges: (comp index, sing index, psi words, phi words); the two word lists
    give, per edge-group generator, its image in the component group and in
    the singular group.  Deduplication relabels every fiber independently
    (all (d!)^fibers combinations), so keep d and the node count tiny.
    """
    perms = all_perms(d)
    ident = identity(d)

    def actions(num_gens: int, relators) -> list[tuple[Perm, ...]]:
        out = []
        for images in itertools.product(perms, repeat=num_gens):
            if all(eval_word(r, images, d) == ident for r in relators):
                out.append(images)
        return out

    comp_actions = [actions(n, rels) for n, rels in comp_groups]
    sing_actions = [actions(n, rels) for n, rels in sing_groups]
    nc, ns = len(comp_groups), len(sing_groups)

    def connected(ca, sa, glues) -> bool:
        # points: (0, i, x) component, (1, j, x) singular
        total = (nc + ns) * d
        parent = list(range(total))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        def cidx(i, x):
            return i * d + x

        def sidx(j, x):
            return (nc + j) * d + x

        for i, acts in enumerate(ca):
            for p in acts:
                for x in range(d):
                    union(cidx(i, x), cidx(i, p[x]))
        for j, acts in enumerate(sa):
            for p in acts:
                for x in range(d):
                    union(sidx(j, x), sidx(j, p[x]))
        for (ci, sj, _, _), lam in zip(edges, glues):
            for x in range(d):
                union(cidx(ci, x), sidx(sj, lam[x]))
        return len({find(a) for a in range(total)}) == 1

    seen = set()
    for ca in itertools.product(*comp_actions):
        for sa in itertools.product(*sing_actions):
            for glues in itertools.product(perms, repeat=len(edges)):
                ok = True
                for (ci, sj, psi_words, phi_words), lam in zip(edges, glues):
                    for pw, fw in zip(psi_words, phi_words):
                        lhs = compose(eval_word(fw, sa[sj], d), lam)
                        rhs = compose(lam, eval_word(pw, ca[ci], d))
                        if lhs != rhs:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok or not connected(ca, sa, glues):
                    continue
                canon = min(
                    _encode(ca, sa, glues, edges, relab)
                    for relab in itertools.product(perms, repeat=nc + ns)
                )
                seen.add(canon)
    return len(seen)


def _encode(ca, sa, glues, edges, relab):
    nc = len(ca)
    parts = []
    for i, acts in enumerate(ca):
        s = relab[i]
        parts.append(tuple(compose(compose(s, p), inverse(s)) for p in acts))
    for j, acts in enumerate(sa):
        s = relab[nc + j]
        parts.append(tuple(compose(compose(s, p), inverse(s)) for p in acts))
    for (ci, sj, _, _), lam in zip(edges, glues):
        parts.append(compose(compose(relab[nc + sj], lam), inverse(relab[ci])))
    return tuple(parts)


def _scan_sequence(moves, start: tuple[int, int]):
    """Breadth-first scan of a table from ``start``.

    ``moves[f]`` lists (row, target fiber) pairs: row[x] is where point x
    of fiber f goes.  Returns the points in the order the scan first meets
    them and the entries it reads, point by point, move by move."""
    seen = {start}
    order = [start]
    entries = []
    for f, x in order:
        for row, tf in moves[f]:
            y = row[x]
            entries.append(y)
            if (tf, y) not in seen:
                seen.add((tf, y))
                order.append((tf, y))
    return order, tuple(entries)


def _relabel(moves, maps):
    """The table with every point x of fiber f renamed maps[f][x]."""
    out = []
    for f, fiber_moves in enumerate(moves):
        rows = []
        for row, tf in fiber_moves:
            new = [0] * len(row)
            for x, y in enumerate(row):
                new[maps[f][x]] = maps[tf][y]
            rows.append((tuple(new), tf))
        out.append(rows)
    return out


def naive_is_least(moves, d: int) -> bool:
    """True iff no seed of fiber 0 relabels the table to a smaller one.

    From each seed, number the points of every fiber in the order a
    breadth-first scan from (fiber 0, seed) first meets them, relabel the
    whole table, and read the relabelled table's complete scan-order
    sequence from (fiber 0, point 0); the table is least iff its own
    sequence is the smallest of them."""
    own = _scan_sequence(moves, (0, 0))[1]
    for seed in range(d):
        order, _ = _scan_sequence(moves, (0, seed))
        maps = [{} for _ in moves]
        for f, x in order:
            maps[f][x] = len(maps[f])
        relabelled = _relabel(moves, maps)
        if _scan_sequence(relabelled, (0, 0))[1] < own:
            return False
    return True


def scan_moves(img, lam, edge_fibers):
    """Per fiber, the row each move of the census scan reads and the fiber
    it lands in, rebuilt from a complete table.

    ``img[f]`` are fiber f's generator rows, ``lam`` the gluings and
    ``edge_fibers`` each edge's (component fiber, singular fiber).  A
    fiber's moves are its generator rows, then its incident edges in
    listed order: a component reads the gluing, a singular its inverse."""
    moves = [[(row, f) for row in rows] for f, rows in enumerate(img)]
    for row, (cf, sf) in zip(lam, edge_fibers):
        moves[cf].append((row, sf))
        moves[sf].append((inverse(row), cf))
    return moves


def is_least(d: int, moves) -> bool:
    """True iff no other base point in the root fiber relabels the table to
    one that is smaller in scan order (orderly acceptance), comparing each
    seed's relabelling with the table as it is built.

    ``moves`` is as ``scan_moves`` gives it.  This is the order the census
    scan prunes by, stated at the leaves; ``naive_is_least`` states it by
    relabelling in full before comparing."""
    nf = len(moves)
    for seed in range(1, d):
        m = [[-1] * d for _ in range(nf)]  # old label -> new label, per fiber
        cnt = [0] * nf
        m[0][seed] = 0
        cnt[0] = 1
        order = [(0, seed)]
        for f, u in order:
            p = m[f][u]
            for row, tf in moves[f]:
                mt = m[tf]
                t = row[u]
                new = mt[t]
                if new < 0:
                    new = mt[t] = cnt[tf]
                    cnt[tf] = new + 1
                    order.append((tf, t))
                old = row[p]
                if new != old:
                    break
            else:
                continue
            if new < old:
                return False
            break
    return True


def generated_elements(gens: Sequence[Perm], d: int) -> list[Perm]:
    """All elements of the group generated by ``gens``, sorted (so the
    identity comes first)."""
    elements = {identity(d)}
    frontier = [identity(d)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(x, g)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return sorted(elements)


def multiplication_table(gens: Sequence[Perm], d: int) -> tuple[int, list[list[Letter]]]:
    """Presentation of the group generated by ``gens`` from its full table.

    One generator per non-identity element (lexicographic order) and one
    relator x*y*(xy)^-1 per ordered pair of them; returns (number of
    generators, relators), the relator for x*y = 1 being just x*y.
    """
    nontrivial = generated_elements(gens, d)[1:]
    index = {p: i for i, p in enumerate(nontrivial)}
    relators = []
    for x in nontrivial:
        for y in nontrivial:
            xy = compose(x, y)
            rel = [(index[x], 1), (index[y], 1)]
            if xy != identity(d):
                rel.append((index[xy], -1))
            relators.append(rel)
    return len(nontrivial), relators


def hall_subgroup_counts(h: Sequence[int]) -> list[int]:
    """Hall's a_1..a_n, the index-k subgroup counts, from h_k = |Hom(G, S_k)|:
    the transitive homs into S_n are t_n = h_n - sum_k C(n-1, k-1) t_k h_(n-k),
    and a_n = t_n / (n-1)!."""
    t: list[int] = []
    for n, hn in enumerate(h, 1):
        t.append(hn - sum(math.comb(n - 1, k - 1) * t[k - 1] * h[n - k - 1]
                          for k in range(1, n)))
    return [tk // math.factorial(k) for k, tk in enumerate(t)]


def free_product_transitive_count(orders: Sequence[int], r: int, n: int) -> int:
    """c_n of Z/m_1 * ... * Z/m_k * F_r (``orders`` lists m_1..m_k), the
    closed form that needs no search, by Mednykh's count (1982):
    c_n = (1/n) sum_{l | n} sum_{[G:K] = l} |Epi(K, Z/(n/l))|.

    By Kurosh an index-l subgroup K is the free product of Z/(m_i/|c|)
    over the cycles c of each generator a_i on G/K and of a free group, so
    j^(l-1)·|Hom(K, Z/j)| is a weight that multiplies over the cycles of
    an action: j^(lr) times, per cycle c of a_i, gcd(m_i/|c|, j)·j^(|c|-1).
    Hall's recursion over the weighted hom counts into S_q then gives
    j^(l-1)·sum_{[G:K] = l} |Hom(K, Z/j)|, and
    |Epi(K, Z/k)| = |Hom(K, Z/k)| - sum_{j | k, j < k} |Epi(K, Z/j)|.
    Free groups are the case k = 0 (Liskovets, 1971)."""
    hom_sums = {}  # j -> per l, the sum over index-l K of |Hom(K, Z/j)|
    for j in (j for j in range(1, n + 1) if n % j == 0):
        weights = [[1] for _ in orders]  # per order m: S(0), S(1), ...
        h = []
        for q in range(1, n // j + 1):
            hq = (j ** q * math.factorial(q)) ** r
            for m, s in zip(orders, weights):
                s.append(sum(math.factorial(q - 1) // math.factorial(q - c)
                             * math.gcd(m // c, j) * j ** (c - 1) * s[q - c]
                             for c in range(1, min(m, q) + 1) if m % c == 0))
                hq *= s[q]
            h.append(hq)
        hom_sums[j] = [a // j ** l for l, a in enumerate(hall_subgroup_counts(h))]
    total = 0
    for l in (l for l in range(1, n + 1) if n % l == 0):
        epi: dict[int, int] = {}
        for k in (k for k in range(1, n // l + 1) if n // l % k == 0):
            epi[k] = hom_sums[k][l - 1] - sum(e for i, e in epi.items() if k % i == 0)
        total += epi[n // l]
    return total // n
