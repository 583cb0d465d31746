"""Assembly of the fundamental-group presentation of a glued configuration.

Two independent routes produce the same group (up to isomorphism, certified
by hom fingerprints and by the cover census in ``covers``):

* ``assemble_direct`` - one spanning-tree pass: every cotree edge contributes
  a free conjugator, every edge k imposes psi_k(a) = x_k^-1 phi_k(a) x_k with
  x_k trivial on tree edges;
* ``assemble_recursive`` - add one singular-centered block at a time, in a
  fixed block order, and recombine with the van Kampen construction,
  amalgamating over the groups of the components the two sides share.

Base-point and path choices are realized by the spanning tree: tree edges
are the chosen paths (conjugator = identity), cotree edges get free
conjugators.  Varying the BFS root changes the presentation only up to
isomorphism, which the test suite checks through fingerprints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .configuration import (ComponentNode, Configuration, DisconnectedError,
                            Edge, build_graph, is_connected, spanning_tree,
                            subconfiguration)
from .homs import hom
from .presentations import Presentation, rename_namespaces
from .vankampen import Interface, VKInput, van_kampen
from .words import GenId, Word, gen, reduce_word

__all__ = [
    "Origin",
    "AssemblyResult",
    "free_edge_generator",
    "assemble_direct",
    "SingularBlock",
    "split_blocks",
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


def assemble_direct(cfg: Configuration, root: str | None = None) -> AssemblyResult:
    """Spanning-tree assembly.

    Generators: all component and singular generators plus one free
    generator per cotree edge.  Relations: all node relations plus, for
    every edge k and every generator a of its edge group, the relator
    psi_k(a)^-1 x_k^-1 phi_k(a) x_k  (x_k empty on tree edges).
    """
    tree, cotree = spanning_tree(build_graph(cfg), root)
    if root is None:
        root = min(c.id for c in cfg.components)

    gens: list[GenId] = []
    rels: list[Word] = []
    dictionary: dict[GenId, Origin] = {}
    for c in cfg.components:
        gens.extend(c.group.generators)
        rels.extend(c.group.relations)
        dictionary.update({g: Origin("component", c.id) for g in c.group.generators})
    for s in cfg.singulars:
        gens.extend(s.group.generators)
        rels.extend(s.group.relations)
        dictionary.update({g: Origin("singular", s.id) for g in s.group.generators})
    cotree_set = set(cotree)
    for e in cfg.edges:
        if e.id in cotree_set:
            x = free_edge_generator(e.id)
            gens.append(x)
            dictionary[x] = Origin("edge", e.id)
            conj = gen(x)
        else:
            conj = Word()
        for a, psi_a in e.psi.images:
            phi_a = e.phi.image(a)
            rels.append(reduce_word(
                psi_a.inverse() * conj.inverse() * phi_a * conj))
    pres = Presentation(tuple(gens), tuple(rels),
                        notes=("edge relations imposed on edge-group generators only",))
    return AssemblyResult(pres, dictionary, "direct", tree=tree, root=root)


@dataclass(frozen=True)
class SingularBlock:
    """One singular locus with its incident edges and adjacent components."""

    singular: str
    components: tuple[str, ...]
    edges: tuple[str, ...]


def split_blocks(cfg: Configuration) -> tuple[SingularBlock, ...]:
    """Partition the configuration into singular-centered blocks.

    Block j consists of singular j, its incident edges, and every component
    adjacent to it.  Each block is connected (it is a star around its
    singular) and contains no other singular; both facts are asserted.
    """
    if not is_connected(build_graph(cfg)):
        raise DisconnectedError("assembly requires a connected configuration")
    if not cfg.singulars:
        raise ValueError("no singulars: the configuration is a single regular component")
    blocks = []
    for s in cfg.singulars:
        sub = subconfiguration(cfg, [s.id])
        if not sub.edges:
            raise ValueError(f"singular {s.id} has no incident edges")
        assert is_connected(build_graph(sub)) and len(sub.singulars) == 1
        blocks.append(SingularBlock(s.id,
                                    tuple(sorted({e.component for e in sub.edges})),
                                    tuple(e.id for e in sub.edges)))
    return tuple(blocks)


def _ordered_blocks(cfg: Configuration) -> list[SingularBlock]:
    """``split_blocks`` in ``block_order``; a heap holds the blocks that
    meet the covered components, so no step rescans the others."""
    blocks = {b.singular: b for b in split_blocks(cfg)}
    touching: dict[str, list[str]] = {}
    for b in blocks.values():
        for cid in b.components:
            touching.setdefault(cid, []).append(b.singular)
    first = min(blocks)
    reached = {first}
    heap = [first]
    order = []
    while heap:
        block = blocks[heapq.heappop(heap)]
        order.append(block)
        for cid in block.components:
            for sid in touching[cid]:
                if sid not in reached:
                    reached.add(sid)
                    heapq.heappush(heap, sid)
    if len(order) != len(blocks):
        raise DisconnectedError("block union never becomes connected")
    return order


def block_order(cfg: Configuration) -> tuple[str, ...]:
    """Greedy ordering of the blocks so every prefix union is connected.

    Start with the least singular id; repeatedly add the least-id block
    whose component set meets the components covered so far.  Connectivity
    of the configuration guarantees the order completes.
    """
    return tuple(b.singular for b in _ordered_blocks(cfg))


def _rename_components(cfg: Configuration, comp_ids: set[str],
                       suffix: str) -> Configuration:
    """Suffix the group namespaces of the given components (ids stay put);
    edge psi maps into them are rewritten to match."""
    renamed_groups: dict[str, Presentation] = {}
    gen_maps: dict[str, dict] = {}
    components = []
    for c in cfg.components:
        if c.id in comp_ids:
            group, mapping = rename_namespaces(c.group, lambda ns: ns + suffix)
            renamed_groups[c.id] = group
            gen_maps[c.id] = mapping
            components.append(ComponentNode(c.id, group))
        else:
            components.append(c)
    edges = []
    for e in cfg.edges:
        if e.component in comp_ids:
            mapping = gen_maps[e.component]
            images = {a: Word(tuple((mapping[g], s) for g, s in w.letters))
                      for a, w in e.psi.images}
            psi = hom(e.group, renamed_groups[e.component], images)
            edges.append(Edge(e.id, e.component, e.singular, e.group, psi, e.phi))
        else:
            edges.append(e)
    return Configuration(tuple(components), cfg.singulars, tuple(edges))


def assemble_recursive(cfg: Configuration) -> AssemblyResult:
    """Block-splitting assembly.

    With one singular (or none) this delegates to the direct route.
    Otherwise the blocks are folded in ``block_order``: each block is
    assembled directly and recombined with the blocks before it by the van
    Kampen construction (the nesting of splitting off the last block and
    recursing, since the greedy order of a prefix is that prefix).  The
    interfaces are the groups of the shared components: in the descent-tuple
    model the fiber over a shared component carries an action of exactly
    that group on both sides.  Each added block gets its shared component
    generators renamed (suffix ``@block``), so the result presents the same
    group with extra, conjugation-identified copies of those generators.
    """
    if len(cfg.singulars) <= 1:
        return assemble_direct(cfg)
    first, *rest = _ordered_blocks(cfg)
    start = assemble_direct(subconfiguration(cfg, [first.singular]))
    combined = start.presentation
    dictionary = dict(start.dictionary)
    covered = set(first.components)
    for block in rest:
        last = block.singular
        shared = sorted(covered.intersection(block.components))
        assert shared, "block order guarantees each block meets the ones before it"
        right = assemble_direct(_rename_components(
            subconfiguration(cfg, [last]), set(shared), f"@{last}"))

        interfaces = []
        for cid in shared:
            group = cfg.component(cid).group
            iface_group, mapping = rename_namespaces(group, lambda ns: f"{ns}#{last}")
            psi = hom(iface_group, combined,
                      {mapping[g]: gen(g) for g in group.generators})
            phi = hom(iface_group, right.presentation,
                      {mapping[g]: gen(GenId(f"{g.namespace}@{last}", g.index))
                       for g in group.generators})
            interfaces.append(Interface(iface_group, psi, phi))

        combined = van_kampen(
            VKInput(combined, right.presentation, tuple(interfaces)),
            conj_namespace=f"F@{last}")

        for g, origin in right.dictionary.items():
            if origin.kind == "component" and origin.node in shared and not origin.detail:
                origin = Origin("component", origin.node, detail=f"copy@{last}")
            dictionary[g] = origin
        for i, cid in enumerate(shared[1:], start=2):
            dictionary[GenId(f"F@{last}", i)] = Origin("conjugator", cid, detail=last)
        covered.update(block.components)
    return AssemblyResult(combined, dictionary, "recursive")
