"""Finite covers of a glued configuration, modelled as descent tuples.

A descent tuple assigns to every component and singular node a finite fiber
with an action of that node's group, and to every edge a gluing bijection
from the component fiber to the singular fiber, equivariant for the edge
group (phi_k(a) . lam_k(s) = lam_k(psi_k(a) . s)).  Connected tuples of
degree d correspond to transitive degree-d actions of the assembled
presentation; ``enumerate_tuples`` counts the former without ever looking
at an assembled presentation, which makes it an independent check on every
assembly route.

The dictionary between the two sides is pinned down by one convention that
must match ``assemble_direct`` exactly: the free generator of a cotree edge
k acts on the root fiber by (transport singular(k) -> root) o lam_k o
(transport root -> component(k)), where transports are composites of tree
gluings along the unique tree paths and the component-to-singular direction
of lam_k is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assembly import AssemblyResult, free_edge_generator
from .configuration import Configuration, DisconnectedError, is_connected
from .homs import Hom, count_transitive_actions, eval_word, hom
from .perms import (Perm, compose, identity_perm, inverse_perm, is_perm,
                    symmetric)
from .presentations import Presentation
from .words import GenId

__all__ = [
    "DescentTuple",
    "TupleIso",
    "is_tuple_iso",
    "validate_tuple",
    "tuple_components",
    "enumerate_tuples",
    "rep_of_tuple",
    "tuple_of_rep",
    "EquivalenceRow",
    "EquivalenceReport",
    "equivalence_report",
]

Fiber = tuple[int, dict[GenId, Perm]]  # (size, generator actions)


@dataclass(frozen=True)
class DescentTuple:
    """Fibers with group actions, glued by bijections along edges."""

    component_fibers: dict[str, Fiber]
    singular_fibers: dict[str, Fiber]
    gluings: dict[str, Perm]  # edge id -> map component fiber -> singular fiber


@dataclass(frozen=True)
class TupleIso:
    """An isomorphism of descent tuples: one bijection per fiber."""

    component_maps: dict[str, Perm]
    singular_maps: dict[str, Perm]


_KIND_NAMES = {"c": "component", "s": "singular"}


def _nodes(cfg: Configuration, t: DescentTuple):
    """``(kind, node, t's fibers of that kind)`` for every component, then
    every singular; kind is "c" or "s", the keys ``_transports`` uses."""
    for c in cfg.components:
        yield "c", c, t.component_fibers
    for s in cfg.singulars:
        yield "s", s, t.singular_fibers


def is_tuple_iso(cfg: Configuration, source: DescentTuple,
                 target: DescentTuple, iso: TupleIso) -> bool:
    """True iff the per-fiber bijections commute with every action and
    every gluing."""
    targets = {"c": target.component_fibers, "s": target.singular_fibers}
    maps = {"c": iso.component_maps, "s": iso.singular_maps}
    for kind, node, fibers in _nodes(cfg, source):
        size, action = fibers[node.id]
        tsize, taction = targets[kind][node.id]
        alpha = maps[kind].get(node.id)
        if alpha is None or size != tsize or not is_perm(alpha, size):
            return False
        for g in node.group.generators:
            if compose(alpha, action[g]) != compose(taction[g], alpha):
                return False
    for e in cfg.edges:
        alpha = iso.component_maps[e.component]
        beta = iso.singular_maps[e.singular]
        if compose(beta, source.gluings[e.id]) != compose(target.gluings[e.id], alpha):
            return False
    return True


def _action_violations(label: str, group: Presentation, fiber: Fiber) -> list[str]:
    size, action = fiber
    problems = []
    for g in group.generators:
        p = action.get(g)
        if p is None or not is_perm(p, size):
            problems.append(f"{label}: image of {g} is not a permutation of the fiber")
            return problems
    for i, rel in enumerate(group.relations):
        if eval_word(rel, action, size) != identity_perm(size):
            problems.append(f"{label}: relator #{i} does not act trivially")
    return problems


def validate_tuple(cfg: Configuration, t: DescentTuple) -> list[str]:
    """Relator satisfaction of every action, edge equivariance of every gluing."""
    problems: list[str] = []
    for kind, node, fibers in _nodes(cfg, t):
        if node.id not in fibers:
            problems.append(f"missing {_KIND_NAMES[kind]} fiber {node.id}")
            continue
        problems += _action_violations(f"{_KIND_NAMES[kind]} {node.id}",
                                       node.group, fibers[node.id])
    extra = (set(t.component_fibers) - {c.id for c in cfg.components}) \
        | (set(t.singular_fibers) - {s.id for s in cfg.singulars}) \
        | (set(t.gluings) - {e.id for e in cfg.edges})
    for name in sorted(extra):
        problems.append(f"unexpected entry {name}")
    if problems:
        return problems
    for e in cfg.edges:
        lam = t.gluings.get(e.id)
        csize, caction = t.component_fibers[e.component]
        ssize, saction = t.singular_fibers[e.singular]
        if lam is None or len(lam) != csize or not is_perm(lam, ssize):
            problems.append(f"edge {e.id}: gluing is not a bijection between the fibers")
            continue
        for a in e.group.generators:
            psi_perm = eval_word(e.psi.image(a), caction, csize)
            phi_perm = eval_word(e.phi.image(a), saction, ssize)
            if compose(phi_perm, lam) != compose(lam, psi_perm):
                problems.append(f"edge {e.id}: gluing is not equivariant at generator {a}")
    return problems


def tuple_components(cfg: Configuration, t: DescentTuple) -> tuple[frozenset, ...]:
    """Finest partition of the disjoint union of fibers closed under all
    actions and gluings; the cover is connected iff there is one block."""
    points = [(kind, node.id, x) for kind, node, fibers in _nodes(cfg, t)
              for x in range(fibers[node.id][0])]
    index = {pt: i for i, pt in enumerate(points)}
    parent = list(range(len(points)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for kind, node, fibers in _nodes(cfg, t):
        size, action = fibers[node.id]
        for p in action.values():
            for x in range(size):
                union(index[(kind, node.id, x)], index[(kind, node.id, p[x])])
    for e in cfg.edges:
        lam = t.gluings[e.id]
        for x in range(len(lam)):
            union(index[("c", e.component, x)], index[("s", e.singular, lam[x])])

    blocks: dict[int, set] = {}
    for pt, i in index.items():
        blocks.setdefault(find(i), set()).add(pt)
    return tuple(sorted((frozenset(b) for b in blocks.values()), key=min))


class _Structure:
    """Index tables for the scan: fibers in a fixed order, generator slots,
    relator paths and edge constraints rewritten over slot numbers.

    All letter paths are stored reversed so that pointwise tracing (first
    path entry applied first) realizes the left action."""

    def __init__(self, cfg: Configuration):
        comps = sorted(cfg.components, key=lambda c: c.id)
        sings = sorted(cfg.singulars, key=lambda s: s.id)
        self.fiber_names = [("c", c.id) for c in comps] + [("s", s.id) for s in sings]
        self.fiber_of = {name: i for i, name in enumerate(self.fiber_names)}
        groups = [c.group for c in comps] + [s.group for s in sings]
        self.gen_ids = [g.generators for g in groups]
        self.slot_of = [{g: i for i, g in enumerate(gens)} for gens in self.gen_ids]
        self.rel_by_slot: list[dict[int, list]] = []
        for f, group in enumerate(groups):
            slots = self.slot_of[f]
            table: dict[int, list] = {}
            for rel in group.relations:
                if not rel.letters:
                    continue
                path = tuple((slots[g], s) for g, s in reversed(rel.letters))
                for sl in {i for i, _ in path}:
                    table.setdefault(sl, []).append(path)
            self.rel_by_slot.append(table)

        self.edge_ids = [e.id for e in cfg.edges]
        self.edge_comp = []
        self.edge_sing = []
        self.edge_constraints = []
        self.edges_at_fiber: list[list[int]] = [[] for _ in self.fiber_names]
        for ei, e in enumerate(cfg.edges):
            cf = self.fiber_of[("c", e.component)]
            sf = self.fiber_of[("s", e.singular)]
            self.edge_comp.append(cf)
            self.edge_sing.append(sf)
            self.edges_at_fiber[cf].append(ei)
            self.edges_at_fiber[sf].append(ei)
            constraints = []
            for a in e.group.generators:
                psi_path = tuple((self.slot_of[cf][g], s)
                                 for g, s in reversed(e.psi.image(a).letters))
                phi_path = tuple((self.slot_of[sf][g], s)
                                 for g, s in reversed(e.phi.image(a).letters))
                constraints.append((psi_path, phi_path))
            self.edge_constraints.append(constraints)


def _scan(st: _Structure, d: int):
    """Yield connected degree-d tuples, one labelled pointed table per
    (tuple, base point in the root fiber) pair, up to isomorphism.

    Points of each fiber are labelled in the order a fixed breadth-first
    scan from (root fiber, point 0) discovers them; a fresh label may only
    be introduced when every smaller label of that fiber is in use, which
    removes all per-fiber relabelling freedom.  Constraints (relators and
    edge equivariance) prune as soon as a trace is fully determined.

    The search runs on an explicit stack, so its depth is bounded by
    memory rather than by the interpreter's recursion limit.  Each frame
    is one choice point: the queue position and move index of an unset
    entry, the last label tried there, the target fiber's point count on
    entry and the target fiber.  Each complete table is yielded as
    ``(img, lam, moves)``: the live generator and gluing tables, which the
    caller must copy to keep, and per fiber the live row each move reads
    with the fiber it lands in (see ``_is_least``).
    """
    nf = len(st.fiber_names)
    ne = len(st.edge_ids)
    img = [[[-1] * d for _ in st.gen_ids[f]] for f in range(nf)]
    pre = [[[-1] * d for _ in st.gen_ids[f]] for f in range(nf)]
    lam = [[-1] * d for _ in range(ne)]
    lpre = [[-1] * d for _ in range(ne)]
    counts = [0] * nf
    queue: list[tuple[int, int]] = [(0, 0)]
    counts[0] = 1

    def trace(f: int, path, x: int) -> int:
        for sl, s in path:
            x = img[f][sl][x] if s > 0 else pre[f][sl][x]
            if x < 0:
                return -1
        return x

    def relators_ok(f: int, slot: int) -> bool:
        for path in st.rel_by_slot[f].get(slot, ()):
            for start in range(counts[f]):
                x = trace(f, path, start)
                if x >= 0 and x != start:
                    return False
        return True

    def equivariant(ei: int) -> bool:
        cf, sf = st.edge_comp[ei], st.edge_sing[ei]
        row = lam[ei]
        for psi_path, phi_path in st.edge_constraints[ei]:
            for x in range(counts[cf]):
                y = trace(cf, psi_path, x)
                lhs = row[y] if y >= 0 else -1
                u = row[x]
                rhs = trace(sf, phi_path, u) if u >= 0 else -1
                if lhs >= 0 and rhs >= 0 and lhs != rhs:
                    return False
        return True

    def gen_ok(f: int, slot: int) -> bool:
        if not relators_ok(f, slot):
            return False
        return all(equivariant(ei) for ei in st.edges_at_fiber[f])

    # Every move sets fwd[p] = q and bwd[q] = p for a point p of its own
    # fiber and a point q of the target fiber tf.  Per fiber the moves come
    # in a fixed order: generator slots first (img, pre), then incident
    # edges in listed order, forward from components (lam, lpre) and
    # backward from singulars (lpre, lam).  The same order drives the
    # comparison in _is_least.
    plan = [[(img[f][sl], pre[f][sl], f, True, sl) for sl in range(len(gens))]
            for f, gens in enumerate(st.gen_ids)]
    for ei, (cf, sf) in enumerate(zip(st.edge_comp, st.edge_sing)):
        plan[cf].append((lam[ei], lpre[ei], sf, False, ei))
        plan[sf].append((lpre[ei], lam[ei], cf, False, ei))
    # Per fiber, the row each move reads and its target fiber.
    moves = [[(fwd, tf) for fwd, _, tf, _, _ in steps] for steps in plan]
    full = nf * d  # the queue holds every labelled point exactly once

    stack: list[list[int]] = []
    qi = mi = 0
    while True:
        # Advance past assigned moves to the next choice point, or to the
        # end of the queue, where a table with every fiber full is complete.
        while qi < len(queue):
            f, p = queue[qi]
            steps = plan[f]
            if mi == len(steps):
                qi, mi = qi + 1, 0
                continue
            fwd, _, tf, _, _ = steps[mi]
            if fwd[p] < 0:
                stack.append([qi, mi, -1, counts[tf], tf])
                break
            mi += 1
        else:
            if len(queue) == full:
                yield img, lam, moves

        # Undo the top frame's last choice and try its next label; pop
        # frames whose labels are exhausted.
        while stack:
            frame = stack[-1]
            fqi, fmi, q, n, tf = frame
            f, p = queue[fqi]
            fwd, bwd, _, is_gen, idx = plan[f][fmi]
            if q >= 0:
                fwd[p] = bwd[q] = -1
                if q == n:
                    counts[tf] = n
                    queue.pop()
            for q in range(q + 1, min(n + 1, d)):
                if bwd[q] >= 0:
                    continue
                fwd[p], bwd[q] = q, p
                if q == n:
                    counts[tf] = n + 1
                    queue.append((tf, q))
                if gen_ok(f, idx) if is_gen else equivariant(idx):
                    break
                fwd[p] = bwd[q] = -1
                if q == n:
                    counts[tf] = n
                    queue.pop()
            else:
                stack.pop()
                continue
            frame[2] = q
            qi, mi = fqi, fmi + 1
            break
        else:
            return


def _is_least(d: int, moves) -> bool:
    """True iff no other base point in the root fiber relabels the table to
    one that is smaller in scan order (orderly acceptance).

    ``moves[f]`` lists, in the scan's move order, the row each move of
    fiber f reads (a generator row, a gluing or an inverse gluing) and the
    fiber it lands in.  A table is compared as the sequence of its entries
    in the order ``_scan`` fills them: the points in breadth-first order
    from (root fiber, point 0), and each point's moves in order.  A table
    emitted by ``_scan`` is its own relabelling from base point 0.  From
    each other seed the relabelling is built in that same order and
    compared as it is built: the point u at queue position k carries its
    new label p, the table's point at position k is p as long as the two
    sequences agree, and each move compares u's relabelled image with the
    table's entry at p.  The first difference decides the seed.  The
    sequence determines the table, so this is a total order, and exactly
    one emitted table per tuple class is least; accepting only those
    deduplicates without storing anything.
    """
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


def _census_structure(cfg: Configuration, degree: int) -> _Structure:
    """The scan's index tables, once the census is known to be defined."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if not is_connected(cfg):
        raise DisconnectedError("tuple census requires a connected configuration")
    return _Structure(cfg)


def _tuple_from_tables(st: _Structure, d: int, img, lam) -> DescentTuple:
    component_fibers: dict[str, Fiber] = {}
    singular_fibers: dict[str, Fiber] = {}
    for f, (kind, name) in enumerate(st.fiber_names):
        action = {g: img[f][sl] for sl, g in enumerate(st.gen_ids[f])}
        fiber: Fiber = (d, action)
        if kind == "c":
            component_fibers[name] = fiber
        else:
            singular_fibers[name] = fiber
    gluings = {eid: lam[ei] for ei, eid in enumerate(st.edge_ids)}
    return DescentTuple(component_fibers, singular_fibers, gluings)


def enumerate_tuples(cfg: Configuration, degree: int) -> list[DescentTuple]:
    """All connected descent tuples with fibers of size exactly ``degree``,
    up to isomorphism, in a deterministic order.

    The scan yields one labelled table per pointed class; a table is kept
    iff no other base point of the root fiber relabels it to a table that
    is smaller in scan order (orderly acceptance, see ``_is_least``), so
    no dictionary of canonical forms is built.  Each tuple is returned in
    that least labelling, and the list is sorted by the row-major key:
    generator rows by fiber and slot, then gluing rows by edge.  Over a
    connected configuration every fiber of a connected tuple has the same
    size, so a single degree describes the whole cover.
    """
    st = _census_structure(cfg, degree)
    found: list[tuple[tuple[int, ...], list, list]] = []
    for img, lam, moves in _scan(st, degree):
        if not _is_least(degree, moves):
            continue
        new_img = [[tuple(row) for row in rows] for rows in img]
        new_lam = [tuple(row) for row in lam]
        key = tuple(x for rows in new_img for row in rows for x in row) \
            + tuple(x for row in new_lam for x in row)
        found.append((key, new_img, new_lam))
    found.sort(key=lambda entry: entry[0])
    return [_tuple_from_tables(st, degree, img, lam) for _, img, lam in found]


def _count_tuples(cfg: Configuration, degree: int) -> int:
    """``len(enumerate_tuples(cfg, degree))`` without copying any table or
    building any tuple: the number of least tables the scan yields."""
    st = _census_structure(cfg, degree)
    return sum(_is_least(degree, moves) for _, _, moves in _scan(st, degree))


def _transports(cfg: Configuration, result: AssemblyResult,
                t: DescentTuple, degree: int) -> dict[tuple[str, str], Perm]:
    """Tree-path transport maps root fiber -> each fiber.

    The tree edges come in discovery order, so the endpoint an edge was
    discovered from already has its transport when the edge is reached.
    """
    tau: dict[tuple[str, str], Perm] = {("c", result.root): identity_perm(degree)}
    for eid in result.tree:
        e = cfg.edge(eid)
        lam = t.gluings[eid]
        if ("c", e.component) in tau:
            tau[("s", e.singular)] = compose(lam, tau[("c", e.component)])
        else:
            tau[("c", e.component)] = compose(inverse_perm(lam), tau[("s", e.singular)])
    return tau


def rep_of_tuple(cfg: Configuration, result: AssemblyResult,
                 t: DescentTuple) -> Hom:
    """The action of the assembled presentation on the root-component fiber.

    ``result`` must be tree-based, that is, come from ``assemble_direct``.
    Node generators act through tree-edge transport; the free generator of
    a cotree edge acts by the gluing composite around its fundamental cycle.
    Relators are verified to act trivially; a violation means the assembly
    and the census disagree on conventions, which is a bug, so it raises
    RuntimeError rather than returning a report.
    """
    if result.tree is None or result.root is None:
        raise ValueError("transports need a tree-based assembly result")
    degree = t.component_fibers[result.root][0]
    tau = _transports(cfg, result, t, degree)

    images: dict[GenId, Perm] = {}
    for kind, node, fibers in _nodes(cfg, t):
        _, action = fibers[node.id]
        tr = tau[(kind, node.id)]
        tr_inv = inverse_perm(tr)
        for g in node.group.generators:
            images[g] = compose(tr_inv, compose(action[g], tr))
    tree = set(result.tree)
    for e in cfg.edges:
        if e.id in tree:
            continue
        x = free_edge_generator(e.id)
        images[x] = compose(inverse_perm(tau[("s", e.singular)]),
                            compose(t.gluings[e.id], tau[("c", e.component)]))

    pres = result.presentation
    ident = identity_perm(degree)
    for rel in pres.relations:
        if eval_word(rel, images, degree) != ident:
            raise RuntimeError(f"relator {rel} does not act trivially; "
                               "tuple/assembly dictionary is inconsistent")
    return hom(pres, symmetric(degree), images)


def tuple_of_rep(cfg: Configuration, result: AssemblyResult,
                 rep: Hom) -> DescentTuple:
    """Inverse of ``rep_of_tuple`` up to isomorphism, for a tree-based
    (``assemble_direct``) result: every fiber is a copy of the
    representation space, tree gluings are identities, and each cotree
    gluing realizes its free generator's image."""
    if result.tree is None:
        raise ValueError("need a tree-based assembly result")
    if rep.source != result.presentation:
        raise ValueError("representation is not of the assembled presentation")
    degree = rep.target.degree
    images = rep.images_dict()
    ident = identity_perm(degree)
    for rel in result.presentation.relations:
        if eval_word(rel, images, degree) != ident:
            raise ValueError(f"representation violates relator {rel}")

    component_fibers = {
        c.id: (degree, {g: images[g] for g in c.group.generators})
        for c in cfg.components}
    singular_fibers = {
        s.id: (degree, {g: images[g] for g in s.group.generators})
        for s in cfg.singulars}
    tree = set(result.tree)
    gluings = {e.id: (ident if e.id in tree
                      else images[free_edge_generator(e.id)])
               for e in cfg.edges}
    return DescentTuple(component_fibers, singular_fibers, gluings)


@dataclass(frozen=True)
class EquivalenceRow:
    degree: int
    tuples: int
    reps: int


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-degree comparison of the cover census with the assembled
    presentation's transitive-action count; pass iff they always agree."""

    rows: tuple[EquivalenceRow, ...]
    passed: bool


def equivalence_report(cfg: Configuration, result: AssemblyResult,
                       max_degree: int) -> EquivalenceReport:
    rows = []
    for d in range(1, max_degree + 1):
        rows.append(EquivalenceRow(
            d, _count_tuples(cfg, d),
            count_transitive_actions(result.presentation, d)))
    return EquivalenceReport(tuple(rows),
                             all(r.tuples == r.reps for r in rows))
