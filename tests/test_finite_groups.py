"""Finite permutation groups in configs: the Schreier presentation on the
listed permutations, checked against the full multiplication table built
independently in tests/reference.py."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import reference
from devissage import (ConfigParseError, GenId, Word, assemble_direct,
                       count_transitive_actions, cyclic, enumerate_tuples,
                       equivalence_report, hom_count, parse_config,
                       parse_config_text, symmetric)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# name -> (permutation degree, generating permutations, group order)
GROUPS = {
    "S3": (3, [[1, 0, 2], [0, 2, 1]], 6),
    "D4": (4, [[1, 2, 3, 0], [0, 3, 2, 1]], 8),
    "D5": (5, [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], 10),
    "A4": (4, [[1, 2, 0, 3], [1, 0, 3, 2]], 12),
}
TARGETS = (cyclic(2), cyclic(3), cyclic(4), symmetric(3), symmetric(4))

Z2 = {"kind": "presentation", "generators": ["t"], "relations": [["t", "t"]]}
Z3 = {"kind": "presentation", "generators": ["t"], "relations": [["t", "t", "t"]]}


def finite(degree: int, gens: list[list[int]]) -> dict:
    return {"kind": "finite", "degree": degree, "generators": gens}


def table(degree: int, gens: list[list[int]]) -> dict:
    """The same group as a presentation-kind spec from the reference
    multiplication table: generator g<i> is element g<i> of ``finite``."""
    n, relators = reference.multiplication_table([tuple(g) for g in gens], degree)
    names = [f"g{i}" for i in range(n)]
    return {"kind": "presentation", "generators": names,
            "relations": [[names[i] if s > 0 else f"-{names[i]}" for i, s in rel]
                          for rel in relators]}


def nodal(group: dict, singular: dict | None = None, edge: dict | None = None) -> dict:
    """One component glued to one singular point along two edges; ``edge``
    holds the group and maps of the first."""
    return {"components": [{"id": "X1", "group": group}],
            "singulars": [{"id": "Z1", "group": singular or {"kind": "trivial"}}],
            "edges": [{"id": "e1", "component": "X1", "singular": "Z1", **(edge or {})},
                      {"id": "e2", "component": "X1", "singular": "Z1"}]}


def parse(doc: dict):
    return parse_config_text(json.dumps(doc))


def census_equals_reps(cfg, max_degree: int) -> bool:
    return equivalence_report(cfg, assemble_direct(cfg), max_degree).passed


def census(cfg, max_degree: int) -> list[int]:
    return [len(enumerate_tuples(cfg, d)) for d in range(1, max_degree + 1)]


@pytest.mark.parametrize("name", GROUPS)
def test_schreier_presentation_agrees_with_multiplication_table(name):
    degree, gens, order = GROUPS[name]
    new = parse(nodal(finite(degree, gens))).components[0].group
    old = parse(nodal(table(degree, gens))).components[0].group
    assert new.rank == len(gens)
    assert len(new.relations) == order * (len(gens) - 1) + 1
    for target in TARGETS:
        assert hom_count(new, target) == hom_count(old, target), target
    for d in range(1, 5):
        assert count_transitive_actions(new, d) == count_transitive_actions(old, d), d


@pytest.mark.parametrize("name", GROUPS)
def test_element_names_evaluate_to_lexicographic_elements(name):
    degree, gens, _ = GROUPS[name]
    elements = reference.generated_elements([tuple(g) for g in gens], degree)[1:]
    free = {"kind": "presentation", "generators": ["t"]}
    cfg = parse({"components": [{"id": "X1", "group": finite(degree, gens)}],
                 "singulars": [{"id": "Z1", "group": free}],
                 "edges": [{"id": f"e{i}", "component": "X1", "singular": "Z1",
                            "group": free, "psi": {"t": [f"g{i}"]}, "phi": {"t": ["t"]}}
                           for i in range(len(elements))]})
    for i, element in enumerate(elements):
        word = cfg.edge(f"e{i}").psi.image(GenId(f"e{i}", 0))
        letters = [(g.index, s) for g, s in word.letters]
        assert reference.eval_word(letters, [tuple(g) for g in gens], degree) == element


def test_z2_edge_into_finite_component_names_non_generator_element():
    # g4 = (0 2) is no generator of S3 = <(0 1), (1 2)>
    edge = {"group": {"kind": "presentation", "generators": ["c"],
                      "relations": [["c", "c"]]},
            "psi": {"c": ["g4"]}, "phi": {"c": ["t"]}}
    cfg = parse(nodal(finite(3, [[1, 0, 2], [0, 2, 1]]), Z2, edge))
    assert census_equals_reps(cfg, 4)
    old = parse(nodal(table(3, [[1, 0, 2], [0, 2, 1]]), Z2, edge))
    assert census(cfg, 4) == census(old, 4)


def test_finite_edge_group_reads_element_keyed_maps():
    # Z3 = <(0 1 2)> into S3: edge element g0 is the listed generator, g1
    # its square; S3's g2 = (0 1 2) and g3 = (0 2 1)
    s3 = finite(3, [[1, 0, 2], [0, 2, 1]])
    edge = {"group": finite(3, [[1, 2, 0]]),
            "psi": {"g0": ["g2"], "g1": ["g3"]}, "phi": {"g0": ["t"], "g1": ["-t"]}}
    cfg = parse(nodal(s3, Z3, edge))
    assert cfg.edge("e1").group.rank == 1
    assert census_equals_reps(cfg, 4)
    old = parse(nodal(table(3, [[1, 0, 2], [0, 2, 1]]), Z3,
                      {**edge, "group": table(3, [[1, 2, 0]])}))
    assert census(cfg, 4) == census(old, 4)
    # only the entries of listed permutations are read
    assert parse(nodal(s3, Z3, {**edge, "psi": {"g0": ["g2"]},
                                "phi": {"g0": ["t"]}})) == cfg
    with pytest.raises(ConfigParseError, match="missing image for \\['g0'\\]"):
        parse(nodal(s3, Z3, {**edge, "psi": {"g1": ["g3"]}}))
    with pytest.raises(ConfigParseError, match="unknown edge generator 'g2'"):
        parse(nodal(s3, Z3, {**edge, "psi": {"g0": ["g2"], "g2": []}}))


def test_identity_generator_of_finite_edge_group_maps_to_identity():
    edge = {"group": finite(2, [[0, 1], [1, 0]]),
            "psi": {"g0": ["a"]}, "phi": {"g0": ["t"]}}
    cfg = parse(nodal({"kind": "presentation", "generators": ["a"],
                       "relations": [["a", "a"]]}, Z2, edge))
    psi = cfg.edge("e1").psi
    assert psi.image(GenId("e1", 0)) == Word()
    assert psi.image(GenId("e1", 1)) == Word(((GenId("X1", 0), 1),))
    assert census_equals_reps(cfg, 4)


@pytest.mark.parametrize("gens, order", [
    ([[0, 1, 2], [1, 0, 2], [0, 2, 1]], 6),  # the identity among the generators
    ([[1, 0, 2], [1, 0, 2], [0, 2, 1]], 6),  # a repeated generator
    ([], 1),                                 # no generators: the trivial group
], ids=["identity", "repeated", "empty"])
def test_degenerate_generator_lists(gens, order):
    cfg = parse(nodal(finite(3, gens)))
    group = cfg.components[0].group
    assert group.rank == len(gens)
    assert len(group.relations) == order * (len(gens) - 1) + 1
    old = parse(nodal(table(3, gens))).components[0].group
    assert hom_count(group, symmetric(3)) == hom_count(old, symmetric(3))
    assert census_equals_reps(cfg, 4)


def test_s4_nodal_config_verifies_to_degree_five():
    cfg = parse_config(str(CONFIGS / "s4_nodal.json"))
    group = cfg.components[0].group
    assert (group.rank, len(group.relations)) == (2, 25)
    old = parse(nodal(table(4, [[1, 2, 3, 0], [1, 0, 2, 3]]))).components[0].group
    assert hom_count(group, symmetric(4)) == hom_count(old, symmetric(4))
    assert census_equals_reps(cfg, 5)
