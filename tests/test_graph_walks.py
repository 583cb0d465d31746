"""Blocks, block order and spanning trees against plain references.

A block is ``subconfiguration(cfg, [s])``; it is checked against a rescan
of the edge list.  The block order is checked against the greedy rule as
its docstring states it, applied to those blocks, and the spanning tree
against a breadth-first search that rescans the whole edge list at every
vertex.  Edge-shuffled copies make the edges of different singulars
interleave, as ``perfbench`` relabelling does; ``comb`` and ``nodes`` are
hubs, one component meeting every singular.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from devissage import (ComponentNode, Configuration, DisconnectedError,
                       SingularNode, assemble_direct, block_order,
                       configuration, enumerate_tuples, is_connected,
                       spanning_tree, subconfiguration, trivial_presentation)
from devissage.cli import main
from devissage.corpus import full_corpus, line_cycle
from test_assembly import comb, nodes

CONFIG_FILES = sorted(Path(__file__).parents[1].glob("configs/*.json"))


def reference_blocks(cfg: Configuration) -> dict[str, set[str]]:
    """Singular id -> the component ids of its block."""
    return {s.id: {c.id for c in subconfiguration(cfg, [s.id]).components}
            for s in cfg.singulars}


def reference_order(cfg: Configuration) -> tuple[str, ...]:
    components = reference_blocks(cfg)
    order = [min(components)]
    covered = set(components[order[0]])
    while len(order) < len(components):
        nxt = min(s for s in components
                  if s not in order and components[s] & covered)
        order.append(nxt)
        covered |= components[nxt]
    return tuple(order)


def reference_tree(cfg: Configuration, root: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    visited = {("c", root)}
    queue = [("c", root)]
    tree = []
    for kind, node in queue:
        for e in cfg.edges:
            here, other = (((e.component, ("s", e.singular)) if kind == "c"
                           else (e.singular, ("c", e.component))))
            if here == node and other not in visited:
                visited.add(other)
                tree.append(e.id)
                queue.append(other)
    assert len(visited) == len(cfg.components) + len(cfg.singulars)
    return tuple(tree), tuple(e.id for e in cfg.edges if e.id not in tree)


def shuffled(cfg: Configuration, seed: int) -> Configuration:
    """The same configuration with its edges and its nodes listed in a
    seeded random order."""
    rng = random.Random(seed)
    parts = [list(cfg.components), list(cfg.singulars), list(cfg.edges)]
    for part in parts:
        rng.shuffle(part)
    return Configuration(*map(tuple, parts))


def cases():
    base = dict(full_corpus())
    base.update({f"line_cycle{n}": line_cycle(n) for n in (1, 6, 40)})
    base.update({"comb6": comb(6), "nodes6": nodes(6), "comb40": comb(40)})
    out = []
    for name, cfg in base.items():
        out.append(pytest.param(cfg, id=name))
        out.extend(pytest.param(shuffled(cfg, seed), id=f"{name}-shuffled{seed}")
                   for seed in (1, 2, 3))
    return out


@pytest.mark.parametrize("cfg", cases())
def test_blocks_and_order_match_reference(cfg):
    for s in cfg.singulars:
        edges = tuple(e for e in cfg.edges if e.singular == s.id)
        reached = {e.component for e in edges}
        assert subconfiguration(cfg, [s.id]) == Configuration(
            tuple(c for c in cfg.components if c.id in reached), (s,), edges)
    assert block_order(cfg) == reference_order(cfg)


@pytest.mark.parametrize("cfg", cases())
def test_spanning_tree_matches_reference_from_every_root(cfg):
    assert spanning_tree(cfg) == reference_tree(cfg, min(c.id for c in cfg.components))
    for c in cfg.components:
        tree, cotree = reference_tree(cfg, c.id)
        assert spanning_tree(cfg, c.id) == (tree, cotree)
        assert assemble_direct(cfg, c.id).tree == tree


def test_shuffled_copies_interleave_singulars():
    cfg = shuffled(line_cycle(6), 1)
    singulars = [e.singular for e in cfg.edges]
    assert singulars != sorted(singulars, key=singulars.index)


def test_spanning_tree_error_messages():
    cfg = line_cycle(3)
    with pytest.raises(ValueError, match="^root 'Z1' is not a component id$"):
        spanning_tree(cfg, root="Z1")
    empty = Configuration((), (), ())
    with pytest.raises(DisconnectedError, match="^empty graph$"):
        spanning_tree(empty)
    cut = Configuration(cfg.components + (ComponentNode("X9", trivial_presentation()),),
                        cfg.singulars, cfg.edges)
    with pytest.raises(DisconnectedError, match="^graph is not connected$"):
        spanning_tree(cut)
    with pytest.raises(DisconnectedError,
                       match="^assembly requires a connected configuration$"):
        block_order(cut)


# --- one incidence index and one walk per configuration --------------------

def reference_incident(cfg: Configuration) -> dict[tuple[str, str], list[int]]:
    """Vertex -> edge positions, each vertex's list a rescan of all edges."""
    vertices = ({("c", e.component) for e in cfg.edges}
                | {("s", e.singular) for e in cfg.edges})
    return {v: [i for i, e in enumerate(cfg.edges)
                if v in (("c", e.component), ("s", e.singular))]
            for v in vertices}


@pytest.mark.parametrize("cfg", cases())
def test_incidence_index_matches_a_rescan_of_the_edges(cfg):
    assert cfg._incident == reference_incident(cfg)


def counted_walks(monkeypatch) -> list[str]:
    """The root of every incidence-graph walk from here on."""
    roots: list[str] = []
    walk = configuration._bfs

    def counted(cfg, root):
        roots.append(root)
        return walk(cfg, root)

    monkeypatch.setattr(configuration, "_bfs", counted)
    return roots


@pytest.mark.parametrize("path", CONFIG_FILES, ids=[p.stem for p in CONFIG_FILES])
def test_cli_walks_each_configuration_once(path, monkeypatch, capsys):
    roots = counted_walks(monkeypatch)
    assert main([str(path), "--verify", "--max-degree", "3"]) == 0
    # the recursive route reads its star blocks from the index, unwalked
    assert len(roots) == 1


def test_assembly_and_census_share_one_walk(monkeypatch):
    cfg = line_cycle(1000)
    roots = counted_walks(monkeypatch)
    assemble_direct(cfg)
    for d in (2, 3):
        enumerate_tuples(cfg, d)
    assert roots == [min(c.id for c in cfg.components)]


def test_empty_configuration_is_not_connected():
    assert not is_connected(Configuration((), (), ()))


def test_block_order_rejects_a_singular_without_edges():
    cfg = line_cycle(3)
    lonely = Configuration(cfg.components,
                           cfg.singulars + (SingularNode("Z9", trivial_presentation()),),
                           cfg.edges)
    with pytest.raises(DisconnectedError,
                       match="^assembly requires a connected configuration$"):
        block_order(lonely)
