"""Assembly of the fundamental-group presentation of a glued configuration.

Two independent routes produce the same group (up to isomorphism, certified
by hom fingerprints and by the cover census in ``covers``):

* ``assemble_direct`` - one spanning-tree pass: every cotree edge contributes
  a free conjugator, every edge k imposes psi_k(a) = x_k^-1 phi_k(a) x_k with
  x_k trivial on tree edges;
* ``assemble_recursive`` - add one singular-centered block at a time, in a
  fixed block order, by the van Kampen construction (form i), amalgamating
  over the groups of the components each block shares with those before
  it; the presentation is built once, after the last block.

Base-point and path choices are realized by the spanning tree: tree edges
are the chosen paths (conjugator = identity), cotree edges get free
conjugators.  Varying the BFS root changes the presentation only up to
isomorphism, which the test suite checks through fingerprints.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from .configuration import (ComponentNode, Configuration, DisconnectedError,
                            Edge, SingularNode, is_connected, spanning_tree)
from .presentations import Presentation
from .words import GenId, Word, gen

__all__ = [
    "Origin",
    "AssemblyResult",
    "free_edge_generator",
    "assemble_direct",
    "block_order",
    "assemble_recursive",
]


@dataclass(frozen=True)
class Origin:
    """Where a generator of an assembled presentation came from."""

    kind: str  # "component" | "singular" | "edge" | "conjugator"
    node: str
    detail: str = ""


@dataclass(frozen=True)
class AssemblyResult:
    """An assembled presentation plus provenance.

    ``tree``/``root`` describe the spanning tree used and are set only for
    the direct method; the recursive method has no single tree
    (its extra conjugators come from block interfaces instead).  For
    tree-based results, cotree edges correspond one-to-one with the free
    edge generators and tree edges carry the trivial word.
    """

    presentation: Presentation
    dictionary: dict[GenId, Origin]
    method: str
    tree: tuple[str, ...] | None = None
    root: str | None = None


def free_edge_generator(edge_id: str) -> GenId:
    """The free conjugator attached to a cotree edge.

    Lives in a derived namespace so that it can never collide with the
    edge group's own generators.
    """
    return GenId(f"x.{edge_id}", 0)


def _assemble(components: Sequence[ComponentNode], singulars: Sequence[SingularNode],
              edges: Sequence[Edge], cotree: set[str]
              ) -> tuple[list[GenId], list[Word], dict[GenId, Origin]]:
    """Generators, relators and dictionary of the nodes and edges given,
    with a free conjugator for each edge whose id is in ``cotree``: the
    spanning-tree assembly of both routes, before any renaming."""
    gens: list[GenId] = []
    rels: list[Word] = []
    dictionary: dict[GenId, Origin] = {}
    for kind, nodes in (("component", components), ("singular", singulars)):
        for node in nodes:
            gens.extend(node.group.generators)
            rels.extend(node.group.relations)
            dictionary.update({g: Origin(kind, node.id) for g in node.group.generators})
    for e in edges:
        if e.id in cotree:
            x = free_edge_generator(e.id)
            gens.append(x)
            dictionary[x] = Origin("edge", e.id)
            conj = gen(x)
        else:
            conj = Word()
        for a, psi_a in e.psi.images:
            phi_a = e.phi.image(a)
            rels.append(psi_a.inverse() * conj.inverse() * phi_a * conj)
    return gens, rels, dictionary


def assemble_direct(cfg: Configuration, root: str | None = None) -> AssemblyResult:
    """Spanning-tree assembly.

    Generators: all component and singular generators plus one free
    generator per cotree edge.  Relations: all node relations plus, for
    every edge k and every generator a of its edge group, the relator
    psi_k(a)^-1 x_k^-1 phi_k(a) x_k  (x_k empty on tree edges).
    """
    tree, cotree = spanning_tree(cfg, root)
    if root is None:
        root = min(c.id for c in cfg.components)
    gens, rels, dictionary = _assemble(cfg.components, cfg.singulars, cfg.edges,
                                       set(cotree))
    pres = Presentation(tuple(gens), tuple(rels))
    return AssemblyResult(pres, dictionary, "direct", tree=tree, root=root)


def block_order(cfg: Configuration) -> tuple[str, ...]:
    """Greedy ordering of the blocks so every prefix union is connected.

    Block s is ``subconfiguration(cfg, [s])``: singular s, its incident
    edges and the components they reach.  Start with the least singular id;
    repeatedly add the least-id block whose components meet the components
    covered so far.  A heap holds the blocks that meet the covered
    components; a component's incident edges are read once, when it is
    first covered, so the walk reads each edge at most twice.  Connectivity
    guarantees the order completes.
    """
    if not is_connected(cfg):
        raise DisconnectedError("assembly requires a connected configuration")
    if not cfg.singulars:
        raise ValueError("no singulars: the configuration is a single regular component")
    incident = cfg._incident
    heap = [min(s.id for s in cfg.singulars)]
    reached = set(heap)
    covered: set[str] = set()
    order = []
    while heap:
        sid = heapq.heappop(heap)
        order.append(sid)
        for cid in {cfg.edges[i].component for i in incident[("s", sid)]} - covered:
            covered.add(cid)
            for i in incident[("c", cid)]:
                other = cfg.edges[i].singular
                if other not in reached:
                    reached.add(other)
                    heapq.heappush(heap, other)
    return tuple(order)


def assemble_recursive(cfg: Configuration) -> AssemblyResult:
    """Block-splitting assembly.

    With one singular (or none) this delegates to the direct route.
    Otherwise the blocks are folded in ``block_order`` by the van Kampen
    construction in form (i), as one flat pass: each block is assembled
    over its spanning tree and its generators and relators are appended
    to one growing list, and the presentation is built once at the end.
    Block s is a star, read from ``cfg``'s incidence index with no walk:
    its spanning tree is the first listed edge to each of its components,
    the tree ``assemble_direct`` walks on ``subconfiguration(cfg, [s])``.
    The interfaces are the groups of the components a block shares with
    the ones before it (none for the first): in the descent-tuple model
    the fiber over a shared component carries an action of exactly that
    group on both sides.  A block's copy of a shared component generator g is renamed
    g@block, and with conjugators F@block.2..s (v_1 empty) each copy is
    tied to the original by the relator g^-1 v_i^-1 g@block v_i, so the
    result presents the same group with conjugation-identified copies.
    """
    if len(cfg.singulars) <= 1:
        return assemble_direct(cfg)
    gens: list[GenId] = []
    rels: list[Word] = []
    dictionary: dict[GenId, Origin] = {}
    namespaces: set[str] = set()
    covered: set[str] = set()
    comp_at = cfg._index[0]
    for last in block_order(cfg):
        edges = [cfg.edges[i] for i in cfg._incident[("s", last)]]
        # component id -> id of its first edge here, the block's tree edge
        first = {e.component: e.id for e in reversed(edges)}
        shared = sorted(c for c in first if c in covered)
        assert shared or not covered, "each block meets the ones before it"
        right_gens, right_rels, right_dictionary = _assemble(
            [cfg.components[i] for i in sorted(comp_at[c] for c in first)],
            [cfg.singular(last)], edges, {e.id for e in edges} - set(first.values()))
        copies = {g: GenId(f"{g.namespace}@{last}", g.index)
                  for cid in shared for g in cfg.component(cid).group.generators}
        conj_ns = f"F@{last}"
        conjugators = [GenId(conj_ns, i) for i in range(2, len(shared) + 1)]
        block_gens = [copies.get(g, g) for g in right_gens]
        # validate_config reserves "@" and makes namespaces unique, so only
        # unvalidated inputs can collide; the incoming block is checked alone
        spaces = {g.namespace for g in block_gens}
        clash = namespaces & (spaces | {conj_ns}) | spaces & {conj_ns}
        if clash:
            raise ValueError(f"namespace collision: {sorted(clash)}")
        namespaces |= spaces | {x.namespace for x in conjugators}

        gens += block_gens + conjugators
        rels += (Word(tuple((copies.get(g, g), s) for g, s in w.letters))
                 for w in right_rels)
        for cid, v in zip(shared, [Word()] + [gen(x) for x in conjugators]):
            rels += (gen(g, -1) * v.inverse() * gen(copies[g]) * v
                     for g in cfg.component(cid).group.generators)
        dictionary.update((x, Origin("conjugator", cid, detail=last))
                          for x, cid in zip(conjugators, shared[1:]))
        for g, origin in right_dictionary.items():
            if g in copies:
                origin = Origin("component", origin.node, detail=f"copy@{last}")
            dictionary[copies.get(g, g)] = origin
        covered.update(first)
    return AssemblyResult(Presentation(tuple(gens), tuple(rels)), dictionary, "recursive")
