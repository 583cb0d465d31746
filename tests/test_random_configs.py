"""Randomized configurations: the dual-route checks as properties.

Hypothesis builds small connected configurations with random topology and
random small node groups (cyclic presentations, or finite permutation groups
read from config JSON), glued along trivial edges or along cyclic edge
groups with random homomorphisms; the census must match the assembled
presentation's transitive-action count at every degree, whichever assembly
route produced the presentation.
"""

from __future__ import annotations

import json
from copy import deepcopy
from math import gcd

from hypothesis import assume, given, settings, strategies as st

import reference

from devissage import (ComponentNode, Configuration, Edge, SingularNode,
                       Word, assemble_direct, assemble_recursive,
                       count_transitive_actions, cyclic, cyclic_presentation,
                       enumerate_homs, enumerate_tuples, fingerprint, hom,
                       hom_count, is_connected,
                       parse_config_text, symmetric, trivial_presentation,
                       validate_config)
from devissage.corpus import trivial_edge
from devissage.census import _Structure, _scan


def group_for(node_id: str, order: int):
    return (trivial_presentation() if order == 1
            else cyclic_presentation(node_id, order))


@st.composite
def configurations(draw):
    n_comps = draw(st.integers(1, 2))
    n_sings = draw(st.integers(1, 2))
    comps = tuple(
        ComponentNode(f"X{i}", group_for(f"X{i}", draw(st.sampled_from([1, 1, 2, 3]))))
        for i in range(1, n_comps + 1))
    sings = tuple(
        SingularNode(f"Z{j}", group_for(f"Z{j}", draw(st.sampled_from([1, 1, 2]))))
        for j in range(1, n_sings + 1))
    edges = []
    for j, sing in enumerate(sings):
        for k in range(draw(st.integers(1, 2))):
            comp = comps[draw(st.integers(0, n_comps - 1))]
            edges.append(trivial_edge(f"e{j}_{k}", comp, sing))
    return Configuration(comps, sings, tuple(edges))


def power_of_generator(draw, source_order: int, target):
    """A nontrivial word a^k in the cyclic ``target`` (unless it is trivial)
    that a generator of order ``source_order`` may map to: the order of a
    divides k * source_order."""
    if not target.generators:
        return Word()
    n = len(target.relations[0])
    step = n // gcd(n, source_order)
    k = draw(st.sampled_from(range(step, n, step)))
    return Word(((target.generators[0], 1),) * k)


@st.composite
def equivariant_configurations(draw):
    """Cyclic node groups glued along Z/2 and Z/4 edge groups, with psi and
    phi drawn among the nontrivial homomorphisms where one exists.  Each
    singular has one or two edges (more make the counters slow at degree 3).
    Two components and two singulars that each meet both are drawn often:
    then the recursive route's second block shares two components."""
    n_comps = draw(st.sampled_from([1, 2, 2]))
    n_sings = draw(st.sampled_from([1, 2, 2]))
    comps = tuple(
        ComponentNode(f"X{i}", group_for(f"X{i}", draw(st.sampled_from([1, 2, 4]))))
        for i in range(1, n_comps + 1))
    sings = tuple(
        SingularNode(f"Z{j}", group_for(f"Z{j}", draw(st.sampled_from([1, 2, 4]))))
        for j in range(1, n_sings + 1))
    edges = []
    for j, sing in enumerate(sings):
        targets = draw(st.sampled_from(
            [(0,), (0, 0), (0, 1), (0, 1), (0, 1), (1,), (1, 1), (1, 0)]
            if n_comps == 2 else [(0,), (0, 0)]))
        for k, comp in enumerate(comps[t] for t in targets):
            eid = f"e{j}_{k}"
            order = draw(st.sampled_from([2, 4]))
            group = cyclic_presentation(eid, order)
            c = group.generators[0]
            psi = hom(group, comp.group, {c: power_of_generator(draw, order, comp.group)})
            phi = hom(group, sing.group, {c: power_of_generator(draw, order, sing.group)})
            edges.append(Edge(eid, comp.id, sing.id, group, psi, phi))
    return Configuration(comps, sings, tuple(edges))


@settings(deadline=None, max_examples=100)
@given(equivariant_configurations())
def test_census_equals_both_counters_on_equivariant_configs(cfg):
    assume(is_connected(cfg))
    assert validate_config(cfg) == []
    direct = assemble_direct(cfg).presentation
    recursive = assemble_recursive(cfg).presentation
    for d in (1, 2, 3):
        assert len(enumerate_tuples(cfg, d)) == \
            count_transitive_actions(direct, d) == \
            count_transitive_actions(recursive, d)


@settings(deadline=None, max_examples=60)
@given(equivariant_configurations())
def test_pruned_scan_emits_exactly_the_least_tables_on_equivariant_configs(cfg):
    # the pruned scan's leaves are the unpruned scan's tables that
    # is_least accepts, in the same order, and nothing else
    assume(is_connected(cfg))
    structure = _Structure(cfg)
    edges = list(zip(structure.edge_comp, structure.edge_sing))
    for d in (1, 2, 3):
        # the scan yields live rows, so each table is copied as it comes
        pruned = [deepcopy((img, lam)) for img, lam, _ in _scan(structure, d)]
        kept = [deepcopy((img, lam))
                for img, lam, _ in _scan(structure, d, prune=False)
                if reference.is_least(d, reference.scan_moves(img, lam, edges))]
        assert pruned == kept


@settings(deadline=None, max_examples=40)
@given(configurations())
def test_census_equals_reps_on_random_configs(cfg):
    assume(is_connected(cfg))
    assert validate_config(cfg) == []
    res = assemble_direct(cfg)
    for d in (1, 2, 3):
        assert len(enumerate_tuples(cfg, d)) == \
            count_transitive_actions(res.presentation, d)


@settings(deadline=None, max_examples=40)
@given(configurations())
def test_routes_agree_on_random_configs(cfg):
    assume(is_connected(cfg))
    probes = (symmetric(2), symmetric(3))
    direct = assemble_direct(cfg)
    recursive = assemble_recursive(cfg)
    assert fingerprint(direct.presentation, probes) == \
        fingerprint(recursive.presentation, probes)
    for d in (1, 2):
        assert count_transitive_actions(recursive.presentation, d) == \
            count_transitive_actions(direct.presentation, d)


@settings(deadline=None, max_examples=30)
@given(configurations(), st.data())
def test_root_choice_immaterial_on_random_configs(cfg, data):
    assume(is_connected(cfg))
    root = data.draw(st.sampled_from([c.id for c in cfg.components]))
    probes = (symmetric(2), symmetric(3))
    assert fingerprint(assemble_direct(cfg, root=root).presentation, probes) == \
        fingerprint(assemble_direct(cfg).presentation, probes)


@st.composite
def finite_group_specs(draw, max_gens: int):
    """A ``finite`` group spec on up to ``max_gens`` random permutations of
    degree at most 4 (degree 1 gives the trivial group), so of order at
    most 24: A4 and S4 are drawn too."""
    degree = draw(st.integers(1, 4))
    if degree == 1:
        return {"kind": "trivial"}
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=max_gens))
    return {"kind": "finite", "degree": degree, "generators": perms}


@st.composite
def finite_group_configurations(draw):
    """Config JSON with finite node groups glued along trivial edges, parsed
    by ``parse_config_text`` so the nodes carry Schreier presentations.
    Components get one or two permutations, singulars one."""
    n_comps = draw(st.integers(1, 2))
    n_sings = draw(st.integers(1, 2))
    edges = []
    for j in range(1, n_sings + 1):
        for k in range(draw(st.integers(1, 2))):
            edges.append({"id": f"e{j}_{k}", "singular": f"Z{j}",
                          "component": f"X{draw(st.integers(1, n_comps))}"})
    doc = {"components": [{"id": f"X{i}", "group": draw(finite_group_specs(2))}
                          for i in range(1, n_comps + 1)],
           "singulars": [{"id": f"Z{j}", "group": draw(finite_group_specs(1))}
                         for j in range(1, n_sings + 1)],
           "edges": edges}
    return parse_config_text(json.dumps(doc))


@settings(deadline=None, max_examples=40)
@given(finite_group_configurations())
def test_census_equals_both_counters_on_finite_node_groups(cfg):
    assume(is_connected(cfg))
    assert validate_config(cfg) == []
    direct = assemble_direct(cfg).presentation
    recursive = assemble_recursive(cfg).presentation
    for d in (1, 2, 3):
        assert len(enumerate_tuples(cfg, d)) == \
            count_transitive_actions(direct, d) == \
            count_transitive_actions(recursive, d)


@settings(deadline=None, max_examples=40)
@given(st.one_of(configurations(), equivariant_configurations(),
                 finite_group_configurations()))
def test_hom_count_by_blocks_equals_the_enumeration_on_random_configs(cfg):
    assume(is_connected(cfg))
    for res in (assemble_direct(cfg), assemble_recursive(cfg)):
        for probe in (cyclic(4), symmetric(3)):
            assert hom_count(res.presentation, probe) == \
                len(enumerate_homs(res.presentation, probe))
