"""Configuration validation, incidence graph, rank, spanning trees."""

from __future__ import annotations

import pytest

from devissage import (ComponentNode, Configuration, DisconnectedError, Edge,
                       SingularNode, Word, cyclic_presentation,
                       enumerate_tuples, free_rank, hom, is_connected, spanning_tree,
                       trivial_presentation, validate_config)
from devissage.corpus import (bouquet, chain, line_cycle, nodal_cubic, star,
                              trivial_edge)

TRIV = trivial_presentation()


def test_nodal_cubic_is_valid():
    assert validate_config(nodal_cubic()) == []


def test_dangling_singular_reference():
    comp = ComponentNode("X1", TRIV)
    sing = SingularNode("Z1", TRIV)
    bad = Edge("e1", "X1", "Zmissing", TRIV, hom(TRIV, TRIV, {}), hom(TRIV, TRIV, {}))
    errs = validate_config(Configuration((comp,), (sing,), (bad,)))
    assert any("unknown singular" in e for e in errs)


def test_duplicate_namespace_across_components():
    c1 = ComponentNode("X1", cyclic_presentation("a", 2))
    c2 = ComponentNode("X2", cyclic_presentation("a", 3))
    sing = SingularNode("Z1", TRIV)
    edges = (trivial_edge("e1", c1, sing), trivial_edge("e2", c2, sing))
    errs = validate_config(Configuration((c1, c2), (sing,), edges))
    assert any("namespace" in e for e in errs)


def test_isolated_singular_rejected():
    comp = ComponentNode("X1", TRIV)
    s1, s2 = SingularNode("Z1", TRIV), SingularNode("Z2", TRIV)
    edges = (trivial_edge("e1", comp, s1),)
    errs = validate_config(Configuration((comp,), (s1, s2), edges))
    assert any("no incident edges" in e for e in errs)


def test_bare_component_is_valid_but_two_are_not():
    one = Configuration((ComponentNode("X1", TRIV),), (), ())
    assert validate_config(one) == []
    two = Configuration((ComponentNode("X1", TRIV), ComponentNode("X2", TRIV)), (), ())
    assert validate_config(two) != []


def test_reserved_namespace_rejected():
    comp = ComponentNode("X1", cyclic_presentation("x.e1", 2))
    sing = SingularNode("Z1", TRIV)
    errs = validate_config(Configuration((comp,), (sing,),
                                         (trivial_edge("e1", comp, sing),)))
    assert any("reserved" in e for e in errs)


def test_psi_source_mismatch_detected():
    comp = ComponentNode("X1", TRIV)
    sing = SingularNode("Z1", TRIV)
    other = cyclic_presentation("w", 2)
    bad = Edge("e1", "X1", "Z1", TRIV,
               hom(other, TRIV, {other.generators[0]: Word()}),
               hom(TRIV, TRIV, {}))
    errs = validate_config(Configuration((comp,), (sing,), (bad,)))
    assert any("psi source" in e for e in errs)


Z2W = cyclic_presentation("w", 2)
X1, X2, Z1 = ComponentNode("X1", TRIV), ComponentNode("X2", TRIV), SingularNode("Z1", TRIV)


def _one_edge(comp_id="X1", edge_comp="X1", phi=None):
    """A component and Z1 joined by one trivial edge, whose component
    reference and phi can be swapped for bad ones."""
    return Configuration((ComponentNode(comp_id, TRIV),), (Z1,),
                         (Edge("e1", edge_comp, "Z1", TRIV, hom(TRIV, TRIV, {}),
                               phi or hom(TRIV, TRIV, {})),))


PROBLEMS = {
    "no-components": (Configuration((), (), ()), "configuration has no components"),
    "invalid-id": (_one_edge("X 1", "X 1"),
                   "invalid id 'X 1' (letters, digits, _, - only)"),
    "unknown-component": (_one_edge(edge_comp="Xmissing"),
                          "edge e1: unknown component 'Xmissing'"),
    "phi-source": (_one_edge(phi=hom(Z2W, TRIV, {Z2W.generators[0]: Word()})),
                   "edge e1: phi source is not the edge group"),
    "phi-target": (_one_edge(phi=hom(TRIV, Z2W, {})),
                   "edge e1: phi target is not the group of Z1"),
    "disconnected": (Configuration((X1, X2), (Z1,), (trivial_edge("e1", X1, Z1),
                                                     trivial_edge("e2", X1, Z1))),
                     "incidence graph is not connected"),
}


@pytest.mark.parametrize("cfg,problem", PROBLEMS.values(), ids=PROBLEMS.keys())
def test_validate_config_names_the_one_problem(cfg, problem):
    assert validate_config(cfg) == [problem]


# --- graph -------------------------------------------------------------------

def test_nodal_cubic_graph():
    g = nodal_cubic()
    assert len(g.components) + len(g.singulars) == 2 and len(g.edges) == 2
    assert is_connected(g)
    assert free_rank(g) == 1


def test_two_bare_components_disconnected():
    cfg = Configuration((ComponentNode("X1", TRIV), ComponentNode("X2", TRIV)), (), ())
    assert not is_connected(cfg)


def test_cycle_of_two_lines_rank_one():
    g = line_cycle(2)
    assert is_connected(g)
    assert len(g.edges) - len(g.components) - len(g.singulars) + 1 == 1 == free_rank(g)


@pytest.mark.parametrize("cfg,expected", [
    (nodal_cubic(), 1),          # 2 - 1 - 1 + 1
    (line_cycle(2), 1),          # 4 - 2 - 2 + 1
    (bouquet(3), 2),             # 3 - 1 - 1 + 1
    (bouquet(4), 3),
    (star(4), 0),
    (chain(4), 0),
])
def test_free_rank_formula(cfg, expected):
    assert free_rank(cfg) == expected
    assert free_rank(cfg) == (len(cfg.edges) - len(cfg.singulars)
                              - len(cfg.components) + 1)


def test_free_rank_requires_connected():
    cfg = Configuration((ComponentNode("X1", TRIV), ComponentNode("X2", TRIV)), (), ())
    with pytest.raises(DisconnectedError):
        free_rank(cfg)


def _ghost_edge(singular: str) -> Edge:
    return Edge(f"e_{singular}", "X1", singular, TRIV,
                hom(TRIV, TRIV, {}), hom(TRIV, TRIV, {}))


@pytest.mark.parametrize("singulars", [("Zghost",), ("Z1", "Zghost")])
def test_edge_to_unlisted_node_disconnects(singulars):
    # a search that counted the vertices it reached would let Zghost stand
    # in for the listed Z1 it never reached (or add one vertex too many)
    cfg = Configuration((ComponentNode("X1", TRIV),), (SingularNode("Z1", TRIV),),
                        tuple(_ghost_edge(z) for z in singulars))
    assert not is_connected(cfg)
    with pytest.raises(DisconnectedError):
        free_rank(cfg)
    with pytest.raises(DisconnectedError, match="^graph is not connected$"):
        spanning_tree(cfg)
    with pytest.raises(DisconnectedError):
        enumerate_tuples(cfg, 2)


# --- spanning tree -----------------------------------------------------------

def test_nodal_cubic_tree_and_cotree():
    tree, cotree = spanning_tree(nodal_cubic())
    assert tree == ("e1",) and cotree == ("e2",)


def test_star_has_empty_cotree():
    tree, cotree = spanning_tree(star(4))
    assert len(tree) == 4 and cotree == ()


@pytest.mark.parametrize("cfg", [nodal_cubic(), line_cycle(3), bouquet(4), chain(3)])
def test_cotree_size_equals_rank(cfg):
    tree, cotree = spanning_tree(cfg)
    assert len(cotree) == free_rank(cfg)
    assert len(tree) == len(cfg.components) + len(cfg.singulars) - 1


def test_spanning_tree_deterministic_and_rootable():
    g = line_cycle(3)
    assert spanning_tree(g) == spanning_tree(g)
    t1, c1 = spanning_tree(g, root="X2")
    assert len(c1) == 1
    with pytest.raises(ValueError):
        spanning_tree(g, root="Z1")  # roots are components


def test_spanning_tree_disconnected_raises():
    cfg = Configuration((ComponentNode("X1", TRIV), ComponentNode("X2", TRIV)), (), ())
    with pytest.raises(DisconnectedError):
        spanning_tree(cfg)
