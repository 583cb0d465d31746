"""The combinatorial model of a glued space and its incidence graph.

A configuration records the connected pieces of the normalization
(components), the connected pieces of the singular locus (singulars), and
one edge per connected piece of the preimage of the singular locus, each
edge carrying a group with maps psi (into its component's group) and phi
(into its singular's group).  The incidence graph is bipartite with
multi-edges; it is read from the configuration's edge list, not stored, and
its spanning trees drive all base-point choices downstream.
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
    def _incident(self) -> dict[str, list[int]]:
        """Singular id -> positions of its incident edges, in listed order."""
        incident: dict[str, list[int]] = {}
        for i, e in enumerate(self.edges):
            incident.setdefault(e.singular, []).append(i)
        return incident

    def component(self, node_id: str) -> ComponentNode:
        return self.components[self._index[0][node_id]]

    def singular(self, node_id: str) -> SingularNode:
        return self.singulars[self._index[1][node_id]]

    def edge(self, edge_id: str) -> Edge:
        return self.edges[self._index[2][edge_id]]


def subconfiguration(cfg: Configuration, singular_ids) -> Configuration:
    """The sub-configuration induced by a set of singulars: those singulars,
    their incident edges, and every component adjacent to one of them, in
    listed order, read from the index at the cost of the result's size."""
    comp_at, sing_at, _ = cfg._index
    wanted = set(singular_ids)
    edges = tuple(cfg.edges[i] for i in sorted(
        i for s in wanted for i in cfg._incident.get(s, ())))
    comps = sorted(comp_at[c] for c in {e.component for e in edges} if c in comp_at)
    sings = sorted(sing_at[s] for s in wanted if s in sing_at)
    return Configuration(tuple(cfg.components[i] for i in comps),
                         tuple(cfg.singulars[i] for i in sings), edges)


def validate_config(cfg: Configuration) -> list[str]:
    """Structural checks; returns a list of problems (empty means ok)."""
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

    comp_ids = {c.id for c in cfg.components}
    sing_ids = {s.id for s in cfg.singulars}
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
    return errors


def _bfs(cfg: Configuration, root: str) -> tuple[list[str], set[tuple[str, str]]]:
    """Breadth-first search of the incidence graph from component ``root``:
    tree edges in discovery order plus the set of visited vertices.

    The graph is bipartite with multi-edges; its vertices are ("c",
    component id) and ("s", singular id), and each vertex's edges are
    explored in listed order.  The adjacency is built for this call only,
    so it never outlives the search.
    """
    adjacency: dict[tuple[str, str], list[tuple[str, tuple[str, str]]]] = {}
    for e in cfg.edges:
        adjacency.setdefault(("c", e.component), []).append((e.id, ("s", e.singular)))
        adjacency.setdefault(("s", e.singular), []).append((e.id, ("c", e.component)))
    start = ("c", root)
    visited = {start}
    queue = [start]
    tree: list[str] = []
    for vertex in queue:  # the queue grows while it is read
        for eid, other in adjacency.get(vertex, ()):
            if other not in visited:
                visited.add(other)
                tree.append(eid)
                queue.append(other)
    return tree, visited


def _reaches_all_listed(cfg: Configuration, visited: set[tuple[str, str]]) -> bool:
    """Whether a search visited exactly the listed components and
    singulars: as many vertices as there are listed ids, each of them
    listed.  Counting alone would let a node reached only through an edge
    to an unlisted id stand in for a listed node the search never reached."""
    comp_at, sing_at, _ = cfg._index
    return len(visited) == len(comp_at) + len(sing_at) and all(
        node in (comp_at if kind == "c" else sing_at) for kind, node in visited)


def is_connected(cfg: Configuration) -> bool:
    """Whether the incidence graph is connected: a search from the least
    component reaches every listed component and singular, and nothing
    else (an edge to an unlisted node disconnects)."""
    if not cfg.components:
        return False
    _, visited = _bfs(cfg, min(c.id for c in cfg.components))
    return _reaches_all_listed(cfg, visited)


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
    order); the cotree size equals ``free_rank(cfg)``.
    """
    if not cfg.components:
        raise DisconnectedError("empty graph")
    if root is None:
        root = min(c.id for c in cfg.components)
    elif not any(c.id == root for c in cfg.components):
        raise ValueError(f"root {root!r} is not a component id")
    tree, visited = _bfs(cfg, root)
    if not _reaches_all_listed(cfg, visited):
        raise DisconnectedError("graph is not connected")
    in_tree = set(tree)
    cotree = tuple(e.id for e in cfg.edges if e.id not in in_tree)
    return tuple(tree), cotree
