"""The combinatorial model of a glued space and its incidence graph.

A configuration records the connected pieces of the normalization
(components), the connected pieces of the singular locus (singulars), and
one edge per connected piece of the preimage of the singular locus, each
edge carrying a group with maps psi (into its component's group) and phi
(into its singular's group).  The incidence graph is bipartite with
multi-edges; it is walked once per configuration, and its spanning trees
drive all base-point choices downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .homs import Hom
from .presentations import Presentation

__all__ = [
    "ComponentNode",
    "SingularNode",
    "Edge",
    "Configuration",
    "DisconnectedError",
    "validate_config",
    "is_connected",
    "free_rank",
    "spanning_tree",
    "subconfiguration",
]

_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")


class DisconnectedError(ValueError):
    """The incidence graph is not connected."""


@dataclass(frozen=True)
class ComponentNode:
    id: str
    group: Presentation


@dataclass(frozen=True)
class SingularNode:
    id: str
    group: Presentation


@dataclass(frozen=True)
class Edge:
    id: str
    component: str
    singular: str
    group: Presentation
    psi: Hom  # edge group -> component group
    phi: Hom  # edge group -> singular group


@dataclass(frozen=True)
class Configuration:
    components: tuple[ComponentNode, ...]
    singulars: tuple[SingularNode, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def _index(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Position of each component, singular and edge id in its tuple,
        built once; the first of a duplicated id wins."""
        return tuple({x.id: i for i, x in reversed(list(enumerate(nodes)))}
                     for nodes in (self.components, self.singulars, self.edges))

    @cached_property
    def _incident(self) -> dict[tuple[str, str], list[int]]:
        """``_incidence`` of the edges, kept for ``subconfiguration``, the
        block order and the recursive route's star blocks; a walk builds
        its own and drops it, so a walked-only configuration keeps none."""
        return _incidence(self.edges)

    @cached_property
    def _walk(self) -> tuple[tuple[str, ...], bool]:
        """The walk from the least component: its tree edges in discovery
        order, and whether it visited exactly the listed components and
        singulars (counting alone would let a node behind an edge to an
        unlisted id stand in for a listed one the walk missed)."""
        if not self.components:
            return (), False
        tree, visited = _bfs(self, min(c.id for c in self.components))
        comp_at, sing_at, _ = self._index
        return tuple(tree), len(visited) == len(comp_at) + len(sing_at) and all(
            node in (comp_at if kind == "c" else sing_at) for kind, node in visited)

    def component(self, node_id: str) -> ComponentNode:
        return self.components[self._index[0][node_id]]

    def singular(self, node_id: str) -> SingularNode:
        return self.singulars[self._index[1][node_id]]

    def edge(self, edge_id: str) -> Edge:
        return self.edges[self._index[2][edge_id]]


def _incidence(edges: tuple[Edge, ...]) -> dict[tuple[str, str], list[int]]:
    """Vertex ("c", component id) or ("s", singular id) -> positions of its
    incident edges, in listed order; a node no edge names is not a key."""
    incident: dict[tuple[str, str], list[int]] = {}
    for i, e in enumerate(edges):
        incident.setdefault(("c", e.component), []).append(i)
        incident.setdefault(("s", e.singular), []).append(i)
    return incident


def subconfiguration(cfg: Configuration, singular_ids) -> Configuration:
    """The sub-configuration induced by a set of singulars: those singulars,
    their incident edges, and every component adjacent to one of them, in
    listed order, read from the index at the cost of the result's size."""
    comp_at, sing_at, _ = cfg._index
    wanted = set(singular_ids)
    edges = tuple(cfg.edges[i] for i in sorted(
        i for s in wanted for i in cfg._incident.get(("s", s), ())))
    comps = sorted(comp_at[c] for c in {e.component for e in edges} if c in comp_at)
    sings = sorted(sing_at[s] for s in wanted if s in sing_at)
    return Configuration(tuple(cfg.components[i] for i in comps),
                         tuple(cfg.singulars[i] for i in sings), edges)


def validate_config(cfg: Configuration) -> list[str]:
    """Every reason a configuration is invalid, in a fixed order; empty
    means ok.  The incidence graph must be connected; that is checked last,
    and only when nothing else is wrong, because the graph of a
    configuration with dangling or duplicated ids is not well defined."""
    errors: list[str] = []
    if not cfg.components:
        errors.append("configuration has no components")

    ids: list[str] = ([c.id for c in cfg.components]
                      + [s.id for s in cfg.singulars]
                      + [e.id for e in cfg.edges])
    seen: set[str] = set()
    for i in ids:
        if not _ID_RE.match(i):
            errors.append(f"invalid id {i!r} (letters, digits, _, - only)")
        if i in seen:
            errors.append(f"duplicate id {i!r}")
        seen.add(i)

    comp_ids, sing_ids, _ = cfg._index
    used_singulars: set[str] = set()
    for e in cfg.edges:
        if e.component not in comp_ids:
            errors.append(f"edge {e.id}: unknown component {e.component!r}")
        if e.singular not in sing_ids:
            errors.append(f"edge {e.id}: unknown singular {e.singular!r}")
        used_singulars.add(e.singular)

    for s in cfg.singulars:
        if s.id not in used_singulars:
            errors.append(f"singular {s.id} has no incident edges")
    if not cfg.singulars and (len(cfg.components) > 1 or cfg.edges):
        errors.append("a configuration without singulars must be a single bare component")

    namespaces: dict[str, str] = {}
    groups = ([(c.id, c.group) for c in cfg.components]
              + [(s.id, s.group) for s in cfg.singulars]
              + [(e.id, e.group) for e in cfg.edges])
    for owner, group in groups:
        for ns in group.namespaces():
            if ns in namespaces:
                errors.append(f"namespace {ns!r} used by both {namespaces[ns]} and {owner}")
            else:
                namespaces[ns] = owner
            if "@" in ns or "#" in ns or ns.startswith("x."):
                errors.append(f"namespace {ns!r} of {owner} uses characters reserved "
                              "for assembly-derived generators")

    for e in cfg.edges:
        if e.component not in comp_ids or e.singular not in sing_ids:
            continue
        if e.psi.source != e.group:
            errors.append(f"edge {e.id}: psi source is not the edge group")
        if e.phi.source != e.group:
            errors.append(f"edge {e.id}: phi source is not the edge group")
        if e.psi.target != cfg.component(e.component).group:
            errors.append(f"edge {e.id}: psi target is not the group of {e.component}")
        if e.phi.target != cfg.singular(e.singular).group:
            errors.append(f"edge {e.id}: phi target is not the group of {e.singular}")
    if not errors and not is_connected(cfg):
        errors.append("incidence graph is not connected")
    return errors


def _bfs(cfg: Configuration, root: str) -> tuple[list[str], set[tuple[str, str]]]:
    """Breadth-first search of the incidence graph from component ``root``:
    tree edges in discovery order plus the set of visited vertices, each
    vertex's edges explored in listed order.  The index (``_incidence``) is
    built for this walk only, so it never outlives the search."""
    incident, edges = _incidence(cfg.edges), cfg.edges
    start = ("c", root)
    visited = {start}
    queue = [start]
    tree: list[str] = []
    for kind, node in queue:  # the queue grows while it is read
        for i in incident.get((kind, node), ()):
            e = edges[i]
            other = ("s", e.singular) if kind == "c" else ("c", e.component)
            if other not in visited:
                visited.add(other)
                tree.append(e.id)
                queue.append(other)
    return tree, visited


def is_connected(cfg: Configuration) -> bool:
    """Whether the incidence graph is connected: the walk from the least
    component reaches every listed component and singular, and nothing
    else (an edge to an unlisted node disconnects)."""
    return cfg._walk[1]


def free_rank(cfg: Configuration) -> int:
    """Edges - singulars - components + 1 for a connected configuration.

    This is the rank of the free factor contributed by the gluing pattern
    alone, and equals the incidence graph's first Betti number.
    """
    if not is_connected(cfg):
        raise DisconnectedError("free rank requires a connected configuration")
    return len(cfg.edges) - len(cfg.singulars) - len(cfg.components) + 1


def spanning_tree(cfg: Configuration,
                  root: str | None = None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Deterministic spanning tree of the incidence graph: breadth-first
    from component ``root`` (default the lexicographically least component),
    edges explored in listed order.

    Returns (tree edge ids in discovery order, cotree edge ids in listed
    order); the cotree size equals ``free_rank(cfg)``.  Connectivity does
    not depend on the root, so another root walks again only for its tree.
    """
    if not cfg.components:
        raise DisconnectedError("empty graph")
    if root is not None and root not in cfg._index[0]:
        raise ValueError(f"root {root!r} is not a component id")
    tree, connected = cfg._walk
    if not connected:
        raise DisconnectedError("graph is not connected")
    if root not in (None, min(c.id for c in cfg.components)):
        tree = tuple(_bfs(cfg, root)[0])
    in_tree = set(tree)
    cotree = tuple(e.id for e in cfg.edges if e.id not in in_tree)
    return tree, cotree
