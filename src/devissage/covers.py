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

Every tuple reader starts from one shape check, ``_shape_problems``:
``validate_tuple`` lists the problems, ``tuple_components`` and
``rep_of_tuple`` raise ValueError with the first, ``is_tuple_iso`` is False.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assembly import AssemblyResult, free_edge_generator
from .census import _scan, _Structure
from .configuration import Configuration
from .homs import (Hom, _check_degree, _failing_relators, count_transitive_actions,
                   eval_word, hom)
from .perms import (Perm, PermGroupTarget, compose, identity_perm,
                    inverse_perm, is_perm, symmetric)
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


@dataclass(frozen=True, slots=True)
class DescentTuple:
    """Fibers with group actions, glued by bijections along edges.

    Fibers are keyed by node id; the gluings are positional, entry i
    gluing along ``cfg.edges[i]`` of the configuration the tuple covers.
    The tuples ``enumerate_tuples`` returns share equal permutations,
    fibers and node maps across its list, so their dicts must not be
    mutated."""

    component_fibers: dict[str, Fiber]
    singular_fibers: dict[str, Fiber]
    gluings: tuple[Perm, ...]  # per edge, in cfg.edges order: component -> singular fiber


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


def _shape_problems(cfg: Configuration, t: DescentTuple) -> list[str]:
    """Why ``t`` cannot be read over ``cfg``: per node, a missing fiber or
    its first generator image that is not a permutation; fibers of no node;
    a wrong gluing count; then, if all is clean, each gluing that is not a
    bijection between its fibers."""
    problems: list[str] = []
    for kind, node, fibers in _nodes(cfg, t):
        if node.id not in fibers:
            problems.append(f"missing {_KIND_NAMES[kind]} fiber {node.id}")
            continue
        size, action = fibers[node.id]
        for g in node.group.generators:
            p = action.get(g)
            if p is None or not is_perm(p, size):
                problems.append(f"{_KIND_NAMES[kind]} {node.id}: image of {g} "
                                "is not a permutation of the fiber")
                break
    extra = (set(t.component_fibers) - {c.id for c in cfg.components}) \
        | (set(t.singular_fibers) - {s.id for s in cfg.singulars})
    for name in sorted(extra):
        problems.append(f"unexpected entry {name}")
    if len(t.gluings) != len(cfg.edges):
        problems.append(f"{len(t.gluings)} gluings for {len(cfg.edges)} edges")
    if problems:
        return problems
    for e, lam in zip(cfg.edges, t.gluings, strict=True):
        if len(lam) != t.component_fibers[e.component][0] \
                or not is_perm(lam, t.singular_fibers[e.singular][0]):
            problems.append(f"edge {e.id}: gluing is not a bijection between the fibers")
    return problems


def is_tuple_iso(cfg: Configuration, source: DescentTuple,
                 target: DescentTuple, iso: TupleIso) -> bool:
    """True iff the per-fiber bijections commute with every action and
    every gluing; False when either tuple has a shape problem."""
    if _shape_problems(cfg, source) or _shape_problems(cfg, target):
        return False
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
    for e, lam, tlam in zip(cfg.edges, source.gluings, target.gluings, strict=True):
        alpha = iso.component_maps[e.component]
        beta = iso.singular_maps[e.singular]
        if compose(beta, lam) != compose(tlam, alpha):
            return False
    return True


def validate_tuple(cfg: Configuration, t: DescentTuple) -> list[str]:
    """Every problem of the first kind ``t`` has: shape problems, else
    relators that do not act trivially, else gluings that are not
    equivariant; empty when ``t`` is a descent tuple over ``cfg``."""
    if problems := _shape_problems(cfg, t):
        return problems
    for kind, node, fibers in _nodes(cfg, t):
        size, action = fibers[node.id]
        problems += [f"{_KIND_NAMES[kind]} {node.id}: relator #{i} does not act trivially"
                     for i in _failing_relators(node.group.relations, action, size)]
    if problems:
        return problems
    for e, lam in zip(cfg.edges, t.gluings, strict=True):
        csize, caction = t.component_fibers[e.component]
        ssize, saction = t.singular_fibers[e.singular]
        for a in e.group.generators:
            psi_perm = eval_word(e.psi.image(a), caction, csize)
            phi_perm = eval_word(e.phi.image(a), saction, ssize)
            if compose(phi_perm, lam) != compose(lam, psi_perm):
                problems.append(f"edge {e.id}: gluing is not equivariant at generator {a}")
    return problems


def tuple_components(cfg: Configuration, t: DescentTuple) -> tuple[frozenset, ...]:
    """Finest partition of the disjoint union of fibers closed under all
    actions and gluings; the cover is connected iff there is one block.
    Raises ValueError with the first shape problem of ``t``, if any."""
    if problems := _shape_problems(cfg, t):
        raise ValueError(problems[0])
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
        for p in (action[g] for g in node.group.generators):
            for x in range(size):
                union(index[(kind, node.id, x)], index[(kind, node.id, p[x])])
    for e, lam in zip(cfg.edges, t.gluings, strict=True):
        for x in range(len(lam)):
            union(index[("c", e.component, x)], index[("s", e.singular, lam[x])])

    blocks: dict[int, set] = {}
    for pt, i in index.items():
        blocks.setdefault(find(i), set()).add(pt)
    return tuple(sorted((frozenset(b) for b in blocks.values()), key=min))


def _tuple_from_tables(st: _Structure, d: int, img, lam,
                       shared: dict) -> DescentTuple:
    """The tuple of the scan's live tables, each row copied once and
    replaced by its equal in ``shared`` when there is one.  The scan's
    gluing rows come in ``cfg.edges`` order, which is the tuple's.

    ``shared`` interns permutations by value, the fiber of every node
    without generators under ``()``, any other fiber by its generators and
    the ids of its rows, and node maps by their kind and the ids of the
    fibers of their nodes with generators, since every other node holds
    the ``()`` fiber.  The kinds of key cannot collide: a permutation
    holds ints, a fiber key is empty or starts with a tuple, and a map
    key starts with its kind, "c" or "s".  An id key is sound because
    ``shared`` keeps every object it names alive; the kind keeps a
    component map from standing for a singular map."""
    def share(row: list[int]) -> Perm:
        perm = tuple(row)
        return shared.setdefault(perm, perm)

    blank: Fiber = shared.setdefault((), (d, {}))
    maps: dict[str, dict[str, Fiber]] = {"c": {}, "s": {}}
    keys: dict[str, list] = {"c": ["c"], "s": ["s"]}
    for f, (kind, name) in enumerate(st.fiber_names):
        gens = st.gen_ids[f]
        fiber = blank
        if gens:
            rows = [share(row) for row in img[f]]
            key = (gens, *map(id, rows))
            fiber = shared.get(key)
            if fiber is None:
                fiber = shared[key] = (d, dict(zip(gens, rows)))
            keys[kind].append(id(fiber))
        maps[kind][name] = fiber
    component_fibers = shared.setdefault(tuple(keys["c"]), maps["c"])
    singular_fibers = shared.setdefault(tuple(keys["s"]), maps["s"])
    return DescentTuple(component_fibers, singular_fibers, tuple(map(share, lam)))


def enumerate_tuples(cfg: Configuration, degree: int) -> list[DescentTuple]:
    """All connected descent tuples with fibers of size exactly ``degree``,
    up to isomorphism, in the order the census scan emits them.

    The scan emits exactly the tables that no other base point of the
    root fiber relabels to a table smaller in scan order (orderly
    generation, see ``census._scan``): it cuts a prefix as soon as some
    relabelling is smaller on it, so nothing is tested at the leaves and
    no dictionary of canonical forms is built.  Each tuple is returned in
    that least labelling, once, and the scan's fixed order makes the list
    deterministic.  The configuration must be connected (``_Structure``
    checks), so every fiber of a connected tuple has the same size, which
    ``degree`` gives.

    Equal objects in the returned list are one shared object: every
    permutation, gluings and generator actions alike (at most d!
    distinct ones, against one per generator and edge in every tuple),
    every fiber, and every ``component_fibers`` and ``singular_fibers``
    map.  Tuples whose node actions are equal differ only in their
    ``gluings`` tuple, the one object each tuple holds alone.  Callers
    must not mutate a returned tuple's dicts.
    """
    _check_degree(degree)
    st = _Structure(cfg)
    shared: dict = {}
    return [_tuple_from_tables(st, degree, img, lam, shared)
            for img, lam, _ in _scan(st, degree)]


def _transports(cfg: Configuration, result: AssemblyResult,
                t: DescentTuple, degree: int) -> dict[tuple[str, str], Perm]:
    """Tree-path transport maps root fiber -> each fiber.

    The tree edges come in discovery order, so the endpoint an edge was
    discovered from already has its transport when the edge is reached.
    """
    tau: dict[tuple[str, str], Perm] = {("c", result.root): identity_perm(degree)}
    for i in (cfg._index[2][eid] for eid in result.tree):
        e, lam = cfg.edges[i], t.gluings[i]
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
    A tuple that ``validate_tuple`` rejects raises ValueError with its
    first problem.  Relators are verified to act trivially; a violation
    means the assembly and the census disagree on conventions, which is a
    bug, so it raises RuntimeError rather than returning a report.
    """
    if result.tree is None or result.root is None:
        raise ValueError("transports need a tree-based assembly result")
    if problems := validate_tuple(cfg, t):
        raise ValueError(problems[0])
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
    for e, lam in zip(cfg.edges, t.gluings, strict=True):
        if e.id in tree:
            continue
        x = free_edge_generator(e.id)
        images[x] = compose(inverse_perm(tau[("s", e.singular)]),
                            compose(lam, tau[("c", e.component)]))

    pres = result.presentation
    for i in _failing_relators(pres.relations, images, degree):
        raise RuntimeError(f"relator {pres.relations[i]} does not act trivially; "
                           "tuple/assembly dictionary is inconsistent")
    return hom(pres, symmetric(degree), images)


def tuple_of_rep(cfg: Configuration, result: AssemblyResult,
                 rep: Hom) -> DescentTuple:
    """Inverse of ``rep_of_tuple`` up to isomorphism, for a tree-based
    (``assemble_direct``) result: every fiber is a copy of the
    representation space, tree gluings are identities, and each cotree
    gluing realizes its free generator's image.  Anything but a permutation
    action of the assembled presentation raises ValueError."""
    if result.tree is None:
        raise ValueError("need a tree-based assembly result")
    if rep.source != result.presentation:
        raise ValueError("representation is not of the assembled presentation")
    if not isinstance(rep.target, PermGroupTarget):
        raise ValueError("representation is not into a permutation group")
    degree = rep.target.degree
    images = hom(result.presentation, rep.target, rep.images_dict()).images_dict()
    for i in _failing_relators(result.presentation.relations, images, degree):
        raise ValueError(f"representation violates relator {result.presentation.relations[i]}")

    component_fibers = {
        c.id: (degree, {g: images[g] for g in c.group.generators})
        for c in cfg.components}
    singular_fibers = {
        s.id: (degree, {g: images[g] for g in s.group.generators})
        for s in cfg.singulars}
    tree = set(result.tree)
    ident = identity_perm(degree)
    gluings = tuple(ident if e.id in tree else images[free_edge_generator(e.id)]
                    for e in cfg.edges)
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
    """Tuple census against transitive actions for d = 1..max_degree: one
    census index serves every degree, whose count is the number of tables
    its scan yields, none of them copied."""
    _check_degree(max_degree, "max_degree")
    st = _Structure(cfg)
    rows = tuple(EquivalenceRow(d, sum(1 for _ in _scan(st, d)),
                                count_transitive_actions(result.presentation, d))
                 for d in range(1, max_degree + 1))
    return EquivalenceReport(rows, all(r.tuples == r.reps for r in rows))
