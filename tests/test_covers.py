"""Descent tuples: validation, census, and the dictionary with representations.

Census counts marked "reference.py" were computed with the naive oracle
(tests/reference.py, full independent-relabeling dedup) before this module
existed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from devissage import (ComponentNode, Configuration, DescentTuple,
                       DisconnectedError, GenId, TupleIso, Word,
                       assemble_direct, assemble_recursive, census,
                       count_transitive_actions, covers, enumerate_homs,
                       enumerate_tuples, equivalence_report, gen, hom, hom_count,
                       is_transitive, is_tuple_iso, parse_config, parse_config_text,
                       rep_of_tuple, symmetric, trivial_presentation,
                       tuple_components, tuple_of_rep, validate_tuple,
                       verify_hom)
from devissage.census import _Structure, _scan
from devissage.covers import _transports
from devissage.corpus import (bouquet, chain, equivariant_z2, full_corpus,
                              line_cycle, nodal_cubic, s3_nodal,
                              squared_interface, z2_nodal)

ID2, SWAP = (0, 1), (1, 0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def nodal_tuple(e1, e2) -> DescentTuple:
    return DescentTuple({"X1": (2, {})}, {"Z1": (2, {})}, (e1, e2))


# --- validate_tuple ----------------------------------------------------------

def test_trivial_groups_impose_nothing():
    assert validate_tuple(nodal_cubic(), nodal_tuple(ID2, SWAP)) == []


def test_relator_violation_reported():
    t = DescentTuple({"X1": (3, {GenId("X1", 0): (1, 2, 0)})},
                     {"Z1": (3, {})},
                     ((0, 1, 2), (0, 1, 2)))
    problems = validate_tuple(z2_nodal(), t)
    assert any("relator" in p for p in problems)


def test_trivial_cover_validates():
    t = DescentTuple({"X1": (1, {GenId("X1", 0): (0,)})}, {"Z1": (1, {})},
                     ((0,), (0,)))
    assert validate_tuple(z2_nodal(), t) == []


def test_empty_cover_validates_with_zero_components():
    t = DescentTuple({"X1": (0, {})}, {"Z1": (0, {})}, ((), ()))
    assert validate_tuple(nodal_cubic(), t) == []
    assert tuple_components(nodal_cubic(), t) == ()


def test_non_equivariant_gluing_reported():
    t = DescentTuple({"X1": (2, {GenId("X1", 0): SWAP})},
                     {"Z1": (2, {GenId("Z1", 0): ID2})},
                     (ID2, ID2))
    problems = validate_tuple(equivariant_z2(), t)
    assert any("equivariant" in p for p in problems)


def test_size_mismatch_reported():
    t = DescentTuple({"X1": (2, {})}, {"Z1": (1, {})}, ((0, 0), (0, 0)))
    problems = validate_tuple(nodal_cubic(), t)
    assert any("bijection" in p for p in problems)


@pytest.mark.parametrize("components,singulars,expected", [
    ({}, {"Z1": (2, {})}, ["missing component fiber X1"]),
    ({"X1": (2, {})}, {}, ["missing singular fiber Z1"]),
    ({}, {}, ["missing component fiber X1", "missing singular fiber Z1"]),
])
def test_missing_fibers_reported_by_kind(components, singulars, expected):
    t = DescentTuple(components, singulars, (ID2, SWAP))
    assert validate_tuple(nodal_cubic(), t) == expected


def test_unexpected_entries_reported_in_sorted_order():
    t = DescentTuple({"X1": (2, {}), "X9": (2, {})},
                     {"Z1": (2, {}), "Z9": (2, {})},
                     (ID2, SWAP, ID2))
    assert validate_tuple(nodal_cubic(), t) == [
        "unexpected entry X9", "unexpected entry Z9", "3 gluings for 2 edges"]


@pytest.mark.parametrize("action", [{}, {GenId("Z1", 0): (0, 0)},
                                    {GenId("Z1", 0): (0, 1, 2)}])
def test_non_permutation_on_singular_reported(action):
    t = DescentTuple({"X1": (2, {GenId("X1", 0): SWAP})}, {"Z1": (2, action)},
                     (ID2, ID2))
    assert validate_tuple(equivariant_z2(), t) == [
        "singular Z1: image of Z1.0 is not a permutation of the fiber"]


def test_singular_relator_violation_reported():
    t = DescentTuple({"X1": (3, {GenId("X1", 0): (0, 1, 2)})},
                     {"Z1": (3, {GenId("Z1", 0): (1, 2, 0)})},
                     ((0, 1, 2), (0, 1, 2)))
    assert validate_tuple(equivariant_z2(), t) == [
        "singular Z1: relator #0 does not act trivially"]


NODAL = nodal_tuple(ID2, SWAP)
Z2_SWAP = DescentTuple({"X1": (2, {GenId("X1", 0): SWAP})}, {"Z1": (2, {})}, (ID2, SWAP))
ID_ISO = TupleIso({"X1": ID2}, {"Z1": ID2})


@pytest.mark.parametrize("cfg,valid,wrong,expected", [
    pytest.param(nodal_cubic(), NODAL, replace(NODAL, gluings=(ID2,)),
                 "1 gluings for 2 edges", id="gluings0-1 gluings for 2 edges"),
    pytest.param(nodal_cubic(), NODAL, replace(NODAL, gluings=(ID2, SWAP, ID2)),
                 "3 gluings for 2 edges", id="gluings1-3 gluings for 2 edges"),
    pytest.param(nodal_cubic(), NODAL, replace(NODAL, component_fibers={}),
                 "missing component fiber X1", id="missing-fiber"),
    pytest.param(nodal_cubic(), NODAL, replace(NODAL, gluings=((0, 1, 2), SWAP)),
                 "edge e1: gluing is not a bijection between the fibers", id="long-gluing"),
    pytest.param(nodal_cubic(), NODAL, replace(NODAL, gluings=(ID2, (1,))),
                 "edge e2: gluing is not a bijection between the fibers", id="short-gluing"),
    pytest.param(z2_nodal(), Z2_SWAP,
                 replace(Z2_SWAP, component_fibers={"X1": (2, {GenId("X1", 0): (0, 1, 2)})}),
                 "component X1: image of X1.0 is not a permutation of the fiber",
                 id="non-permutation-image"),
])
def test_wrong_gluing_count_is_rejected_by_every_reader(cfg, valid, wrong, expected):
    """Every reader gives a malformed tuple one answer, its first problem:
    the gluing count, and each other shape problem alike."""
    assert validate_tuple(cfg, valid) == []
    assert validate_tuple(cfg, wrong) == [expected]
    with pytest.raises(ValueError, match=f"^{expected}$"):
        tuple_components(cfg, wrong)
    assert not is_tuple_iso(cfg, wrong, wrong, ID_ISO)
    assert not is_tuple_iso(cfg, valid, wrong, ID_ISO)
    assert not is_tuple_iso(cfg, wrong, valid, ID_ISO)
    with pytest.raises(ValueError, match=f"^{expected}$"):
        rep_of_tuple(cfg, assemble_direct(cfg), wrong)


def test_entries_beyond_a_nodes_generators_are_read_by_no_reader():
    cfg = nodal_cubic()
    extra = replace(NODAL, component_fibers={"X1": (2, {GenId("Q", 0): (5, 5)})})
    res = assemble_direct(cfg)
    assert validate_tuple(cfg, extra) == []
    assert len(tuple_components(cfg, extra)) == 1
    assert is_tuple_iso(cfg, extra, NODAL, ID_ISO)
    assert is_tuple_iso(cfg, NODAL, extra, ID_ISO)
    assert rep_of_tuple(cfg, res, extra) == rep_of_tuple(cfg, res, NODAL)


# --- connected components ----------------------------------------------------

def test_parallel_identity_gluings_disconnect():
    blocks = tuple_components(nodal_cubic(), nodal_tuple(ID2, ID2))
    assert len(blocks) == 2


def test_swap_gluing_connects():
    blocks = tuple_components(nodal_cubic(), nodal_tuple(ID2, SWAP))
    assert len(blocks) == 1


def test_block_sizes_sum_to_degree_per_fiber():
    blocks = tuple_components(nodal_cubic(), nodal_tuple(ID2, ID2))
    for fiber in ("X1", "Z1"):
        total = sum(1 for b in blocks for kind, node, _ in b if node == fiber)
        assert total == 2


# --- census ------------------------------------------------------------------

@pytest.mark.parametrize("d,expected", [(1, 1), (2, 1), (3, 1), (4, 1)])
def test_nodal_cubic_census(d, expected):
    assert len(enumerate_tuples(nodal_cubic(), d)) == expected  # reference.py


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 3), (3, 7)])
def test_three_edge_census(d, expected):
    assert len(enumerate_tuples(bouquet(3), d)) == expected  # reference.py


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 3), (3, 3)])
def test_z2_nodal_census(d, expected):
    assert len(enumerate_tuples(z2_nodal(), d)) == expected  # reference.py


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 3), (3, 1)])
def test_equivariant_census(d, expected):
    assert len(enumerate_tuples(equivariant_z2(), d)) == expected  # reference.py


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 3), (3, 9)])
def test_s3_nodal_census(d, expected):
    assert len(enumerate_tuples(s3_nodal(), d)) == expected  # reference.py


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 3), (3, 3)])
def test_squared_interface_census(d, expected):
    # multi-letter psi words drive the equivariance tracing; reference.py
    assert len(enumerate_tuples(squared_interface(), d)) == expected


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 0)])
def test_chain_census(d, expected):
    assert len(enumerate_tuples(chain(3), d)) == expected  # reference.py


def test_census_members_are_valid_connected_and_distinct():
    for cfg in (nodal_cubic(), bouquet(3), z2_nodal(), equivariant_z2()):
        for d in (1, 2, 3):
            tuples = enumerate_tuples(cfg, d)
            seen = set()
            for t in tuples:
                assert validate_tuple(cfg, t) == []
                assert len(tuple_components(cfg, t)) == 1
                key = (tuple(sorted((k, v[0], tuple(sorted((str(g), p) for g, p in v[1].items())))
                                    for k, v in t.component_fibers.items())),
                       t.gluings)
                assert key not in seen
                seen.add(key)
            # pairwise non-isomorphic: no choice of fiber bijections works
            perms = list(itertools.permutations(range(d)))
            comps = [c.id for c in cfg.components]
            sings = [s.id for s in cfg.singulars]
            for a, b in itertools.combinations(tuples, 2):
                for maps in itertools.product(perms, repeat=len(comps) + len(sings)):
                    iso = TupleIso(dict(zip(comps, maps)),
                                   dict(zip(sings, maps[len(comps):])))
                    assert not is_tuple_iso(cfg, a, b, iso)


@pytest.mark.parametrize("name", sorted(full_corpus()))
def test_is_least_agrees_with_naive_reference(name):
    # the naive oracle relabels fully from every seed before comparing
    from reference import is_least, naive_is_least, scan_moves
    cfg = full_corpus()[name]
    st = _Structure(cfg)
    edges = list(zip(st.edge_comp, st.edge_sing))
    for d in range(1, 5):
        for img, lam, _ in _scan(st, d, prune=False):
            moves = scan_moves(img, lam, edges)
            frozen = [[(tuple(row), tf) for row, tf in fiber] for fiber in moves]
            assert is_least(d, moves) == naive_is_least(frozen, d)


def _hall_subgroup_counts(presentation, max_degree: int) -> list[int]:
    """Index-n subgroup counts a_n = h_n/(n-1)! - sum_{k<n} h_{n-k}/(n-k)! a_k
    with h_n = |Hom(G, S_n)| (Hall 1949)."""
    h = [1] + [hom_count(presentation, symmetric(n))
               for n in range(1, max_degree + 1)]
    a = [Fraction(0)]
    for n in range(1, max_degree + 1):
        a.append(Fraction(h[n], factorial(n - 1))
                 - sum(Fraction(h[n - k], factorial(n - k)) * a[k]
                       for k in range(1, n)))
    assert all(x.denominator == 1 for x in a)
    return [int(x) for x in a[1:]]


def _hall_config(name: str) -> Configuration:
    # S4 by its Schreier presentation is the relator-heavy case: there chosen
    # and deduced labels most often fail a relator check
    if name == "s4_nodal":
        return parse_config(str(CONFIGS / "s4_nodal.json"))
    return full_corpus()[name]


@pytest.mark.parametrize("name,expected", [
    ("bouquet3", [1, 3, 13, 71, 461]),
    ("bouquet4", [1, 7, 97, 2143]),
    ("z2_double_bouquet", [1, 7, 61, 847]),
    ("z2_nodal", [1, 3, 7, 23]),
    ("s3_nodal", [1, 3, 25, 95]),
    ("equivariant_z2", [1, 3, 1, 3]),
    ("squared_interface", [1, 3, 7, 31]),
    ("s4_nodal", [1, 3, 25, 191]),
])
def test_scan_emits_one_table_per_subgroup_halls_formula(name, expected):
    # Each pointed class of transitive actions is an index-d subgroup, so a
    # scan that emitted any pointed class twice would overshoot Hall's count
    # even though orderly acceptance would still keep one table per class.
    cfg = _hall_config(name)
    pres = assemble_direct(cfg).presentation
    assert _hall_subgroup_counts(pres, len(expected)) == expected
    st = _Structure(cfg)
    emitted = [sum(1 for _ in _scan(st, d, prune=False))
               for d in range(1, len(expected) + 1)]
    assert emitted == expected


@pytest.mark.parametrize("name,top", [
    ("bouquet3", 5), ("bouquet4", 4), ("z2_double_bouquet", 4), ("z2_nodal", 4),
    ("s3_nodal", 4), ("equivariant_z2", 4), ("squared_interface", 4),
    ("s4_nodal", 4),
])
def test_pruned_scan_weighted_by_automorphisms_gives_halls_formula(name, top):
    # the pruned scan emits one table per class; a class with |Aut| = k
    # stands for d/k pointed tables, so the weighted sum is a_d again
    cfg = _hall_config(name)
    expected = _hall_subgroup_counts(assemble_direct(cfg).presentation, top)
    st = _Structure(cfg)
    weighted = [sum(Fraction(d, aut) for _, _, aut in _scan(st, d))
                for d in range(1, top + 1)]
    assert weighted == expected


def relabelled(cfg: Configuration, seed: int) -> Configuration:
    """An isomorphic copy: every node and edge id renamed and every list
    shuffled, seeded.  The scan orders fibers by id and moves by edge
    order, so the copy is scanned from another root in another order."""
    rng = random.Random(seed)
    ids = [x.id for part in (cfg.components, cfg.singulars, cfg.edges) for x in part]
    new = {old: f"n{k}" for old, k in zip(ids, rng.sample(range(10 * len(ids)), len(ids)))}
    parts = [[replace(c, id=new[c.id]) for c in cfg.components],
             [replace(z, id=new[z.id]) for z in cfg.singulars],
             [replace(e, id=new[e.id], component=new[e.component],
                      singular=new[e.singular]) for e in cfg.edges]]
    for part in parts:
        rng.shuffle(part)
    return Configuration(*map(tuple, parts))


def _frozen(img, lam):
    return (tuple(tuple(tuple(row) for row in rows) for rows in img),
            tuple(tuple(row) for row in lam))


def _scan_cases():
    base = dict(full_corpus())
    base.update({f"line_cycle{n}": line_cycle(n) for n in (6, 40)})
    # S4 by its Schreier presentation: hundreds of deduced entries fail a
    # relator check there
    base["s4_nodal"] = parse_config(str(CONFIGS / "s4_nodal.json"))
    for name, cfg in base.items():
        top = 3 if name.startswith("line_cycle") else 4
        yield pytest.param(cfg, top, id=name)
        for seed in (1, 2, 3):
            yield pytest.param(relabelled(cfg, seed), top, id=f"{name}-relabelled{seed}")


@pytest.mark.parametrize("cfg,top", _scan_cases())
def test_pruned_scan_emits_exactly_the_least_tables(cfg, top):
    # the pruned scan's leaves are the unpruned scan's tables that
    # is_least accepts, table for table and in the same order
    from reference import is_least, scan_moves
    st = _Structure(cfg)
    edges = list(zip(st.edge_comp, st.edge_sing))
    for d in range(1, top + 1):
        pruned = [_frozen(img, lam) for img, lam, _ in _scan(st, d)]
        kept = [_frozen(img, lam) for img, lam, _ in _scan(st, d, prune=False)
                if is_least(d, scan_moves(img, lam, edges))]
        assert pruned == kept, d


# sha256 of what the scans emit for d <= 4, in emission order: (d, table,
# |Aut|) per pruned table, then (d, table) per unpruned one.  Pinned so that
# a change to the search cannot reorder or alter its output unseen, even in
# both scans alike.
GOLDEN_SCANS = {
    "bouquet3":
        "4ddf3467641104f4de9bb502c4cab1d5eab30eb94b526c0e74afde98a921dc02",
    "bouquet4":
        "03a616e7d861347d8ae212ea0151530fb45c6519f426933ede4144223153668e",
    "chain3":
        "ce0ad3f91e903474ceb0ffb899a260480424c2d3c7a57237283ffc75b2c548a4",
    "cycle2":
        "996a2b7ebf55d675b4ab8180a2a7be412f8ad2c82c064ec5017200d8d06a8115",
    "cycle3":
        "c1cd36079697f99f23ffbb1f2332c773cdf209639535c74c7cfb58dcd27c9302",
    "cycle4":
        "405081cee2cebf60bb041170b26dc8f58f8249ba197ae001dff0132cadb0fb2d",
    "cycle5":
        "c0d7aee57c188505e16ace4ed5e212df9d601d29ac9d97191f9c34a55dbaa6e8",
    "double_bouquet22":
        "6f7c57ee1eb45fb025da193d3c26471d6ac5c83030ff1d4165def82cebf0b240",
    "equivariant_z2":
        "523b04c481089a1735ae6144449692bafab63f47fdf8e0654a8be65c3d033bb4",
    "nodal_cubic":
        "48299cfa7a25444ec9d835cdc520983b5fc812f1efa470aed7042f9940d8a232",
    "s3_nodal":
        "800e49281ff98ffce47ba019a7b6e63a09ef55bd7bf5a93f5782ac7b1208af3b",
    "s4_nodal":
        "2acf6ea78f1211b5130325f092cc8fdfdde32e44e77a5f9c69745048216259c1",
    "squared_interface":
        "1921a50c1b63da4e3ffbf7b202ea08f9ac19e31156c9822d87b257581b459387",
    "star3":
        "fb205554ea1ed7c66f6ed8c0721a4b14e20fe2b5761197ed846054db053e81b0",
    "z2_chain":
        "376ce88fb7912f15680c029b15cc3e3ef8ad956df69b39c53dee4628194306cf",
    "z2_double_bouquet":
        "a04022a21f4c6e47fdd1e7d1f25f6d64bb8e62d30d41a56c7a3c1202e8153717",
    "z2_nodal":
        "1c238cf8db6ed2589436cf23a03abed410c1fb15240d4d95011bfc9ab8ca7a81",
}


def _scan_digest(cfg: Configuration, top: int = 4) -> str:
    st = _Structure(cfg)
    h = hashlib.sha256()
    for d in range(1, top + 1):
        for img, lam, aut in _scan(st, d):
            h.update(repr((d, _frozen(img, lam), aut)).encode())
        for img, lam, _ in _scan(st, d, prune=False):
            h.update(repr((d, _frozen(img, lam))).encode())
    return h.hexdigest()


def test_golden_scans_cover_the_corpus_and_s4():
    assert set(GOLDEN_SCANS) == set(full_corpus()) | {"s4_nodal"}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scans_match_their_golden_digest(name):
    assert _scan_digest(_hall_config(name)) == GOLDEN_SCANS[name]


@pytest.mark.parametrize("name", sorted(full_corpus()))
def test_enumerate_tuples_lists_the_scan_tables_in_scan_order(name):
    cfg = full_corpus()[name]
    st = _Structure(cfg)
    for d in range(1, 5):
        listed = []
        for t in enumerate_tuples(cfg, d):
            img = [[(t.component_fibers if kind == "c" else t.singular_fibers)[node][1][g]
                    for g in st.gen_ids[f]]
                   for f, (kind, node) in enumerate(st.fiber_names)]
            listed.append(_frozen(img, t.gluings))
        assert listed == [_frozen(img, lam) for img, lam, _ in _scan(st, d)], d


def test_enumerate_tuples_shares_equal_rows():
    # every gluing and generator action of one result is interned: equal
    # permutations are one object
    tuples = enumerate_tuples(full_corpus()["z2_double_bouquet"], 4)
    rows = [p for t in tuples
            for fibers in (t.component_fibers, t.singular_fibers)
            for _, action in fibers.values() for p in action.values()]
    rows += [p for t in tuples for p in t.gluings]
    distinct = {}
    for p in rows:
        assert distinct.setdefault(p, p) is p
    assert len(distinct) < len(rows)


def _one_object_per_value(objects: list) -> list:
    """The distinct values of ``objects``, asserting that equal ones are
    one object."""
    distinct: list = []
    for x in objects:
        first = next((y for y in distinct if y == x), None)
        if first is None:
            distinct.append(x)
        else:
            assert first is x
    return distinct


@pytest.mark.parametrize("cfg,d", [
    pytest.param(full_corpus()["z2_double_bouquet"], 4, id="z2_double_bouquet"),
    pytest.param(line_cycle(40), 2, id="line_cycle40"),
])
def test_enumerate_tuples_shares_equal_fibers_and_node_maps(cfg, d):
    tuples = enumerate_tuples(cfg, d)
    comps = [t.component_fibers for t in tuples]
    sings = [t.singular_fibers for t in tuples]
    fibers = [f for m in comps + sings for f in m.values()]
    assert len(_one_object_per_value(fibers)) < len(fibers)
    _one_object_per_value(comps)
    _one_object_per_value(sings)
    # a component map never stands for a singular one, even where both
    # list the same fiber objects (every fiber of line_cycle(40) is one)
    assert {id(m) for m in comps}.isdisjoint(id(m) for m in sings)
    assert not hasattr(tuples[0], "__dict__")
    # sharing is invisible to equality: fresh dicts compare equal
    for t in tuples:
        fresh = DescentTuple(
            {c: (n, dict(action)) for c, (n, action) in t.component_fibers.items()},
            {s: (n, dict(action)) for s, (n, action) in t.singular_fibers.items()},
            t.gluings)
        assert fresh == t


def test_enumerate_tuples_holds_under_200_bytes_per_tuple():
    # Without sharing, every tuple held its own fibers and node maps:
    # 1 077-1 270 B per tuple here on Python 3.10-3.13.  Sharing them cut
    # that to 215-256 B, most of it a dict of gluings per tuple; with the
    # gluings a tuple in edge order it is 147 B on Python 3.11.  d4 rather
    # than d5 keeps the traced scan fast.
    import tracemalloc
    cfg = full_corpus()["z2_double_bouquet"]
    enumerate_tuples(cfg, 1)  # the configuration's cached walk
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tuples = enumerate_tuples(cfg, 4)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tuples) == 256
    assert held / len(tuples) <= 200


def test_relabelled_copies_move_the_root():
    cfg = full_corpus()["z2_double_bouquet"]
    roots = {_Structure(relabelled(cfg, seed)).fiber_names[0] for seed in (1, 2, 3)}
    assert len(roots) > 1


@pytest.mark.parametrize("d", [2, 3])
def test_census_of_long_cycle_does_not_recurse(d):
    # the scan's depth grows with the number of fibers (4000 points here)
    assert len(enumerate_tuples(line_cycle(1000), d)) == 1


def test_census_deterministic():
    a = enumerate_tuples(bouquet(3), 3)
    b = enumerate_tuples(bouquet(3), 3)
    assert a == b


def test_relator_that_reduces_to_the_empty_word_constrains_nothing():
    # a node relator a a^-1 is stored as the empty word, which the census
    # structure skips and the counter's relator index drops
    doc = {"components": [
               {"id": "X1", "group": {"kind": "presentation", "generators": ["a"],
                                      "relations": [["a", "-a"]]}},
               {"id": "X2", "group": {"kind": "trivial"}}],
           "singulars": [
               {"id": "Z1", "group": {"kind": "presentation", "generators": ["b"],
                                      "relations": [["-b", "b"]]}},
               {"id": "Z2", "group": {"kind": "trivial"}}],
           "edges": [{"id": f"e{i}", "component": c, "singular": z}
                     for i, (c, z) in enumerate([("X1", "Z1"), ("X2", "Z1"),
                                                 ("X1", "Z2"), ("X2", "Z2")])]}
    cfg = parse_config_text(json.dumps(doc))
    assert cfg.component("X1").group.relations == (Word(),)
    direct = assemble_direct(cfg).presentation
    recursive = assemble_recursive(cfg).presentation
    for d in (1, 2, 3):
        assert len(enumerate_tuples(cfg, d)) == \
            count_transitive_actions(direct, d) == \
            count_transitive_actions(recursive, d)


# --- dictionary with representations -----------------------------------------

def test_swap_tuple_gives_transitive_swap_action():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    rep = rep_of_tuple(cfg, res, nodal_tuple(ID2, SWAP))
    x = res.presentation.generators[0]
    assert rep.image(x) == SWAP
    assert is_transitive([SWAP], 2)


def test_disconnected_identity_tuple_gives_identity_action():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    rep = rep_of_tuple(cfg, res, nodal_tuple(ID2, ID2))
    assert rep.image(res.presentation.generators[0]) == ID2


def test_rep_of_tuple_rejects_a_fiber_of_the_wrong_size():
    # the root fiber alone would read as degree 2; the singular fiber has 3 points
    cfg = nodal_cubic()
    t = DescentTuple({"X1": (2, {})}, {"Z1": (3, {})}, (ID2, SWAP))
    with pytest.raises(ValueError,
                       match="^edge e1: gluing is not a bijection between the fibers$"):
        rep_of_tuple(cfg, assemble_direct(cfg), t)


def test_rep_tuple_roundtrip_at_degree_seven_is_quick():
    symmetric.cache_clear()
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    ident, cycle = tuple(range(7)), (*range(1, 7), 0)
    t = DescentTuple({"X1": (7, {})}, {"Z1": (7, {})}, (ident, cycle))
    start = time.perf_counter()
    rep = rep_of_tuple(cfg, res, t)
    assert tuple_of_rep(cfg, res, rep) == t
    assert time.perf_counter() - start < 5


def test_tuple_of_rep_roundtrip_exhaustive_small_degrees():
    for name, cfg in sorted(full_corpus().items()):
        res = assemble_direct(cfg)
        for d in (1, 2, 3):
            for h in enumerate_homs(res.presentation, symmetric(d)):
                t = tuple_of_rep(cfg, res, h)
                assert validate_tuple(cfg, t) == []
                assert rep_of_tuple(cfg, res, t) == h


def test_rep_of_tuple_of_every_census_member():
    for name, cfg in sorted(full_corpus().items()):
        res = assemble_direct(cfg)
        for d in (1, 2, 3):
            for t in enumerate_tuples(cfg, d):
                rep = rep_of_tuple(cfg, res, t)
                assert verify_hom(rep)
                images = [p for _, p in rep.images]
                assert d == 1 or is_transitive(images, d)


def test_roundtrip_tuple_is_isomorphic_via_transports():
    # tuple_of_rep(rep_of_tuple(t)) need not equal t, but the tree-path
    # transports assemble into an explicit isomorphism onto it
    for cfg in (nodal_cubic(), z2_nodal(), equivariant_z2(), line_cycle(2)):
        res = assemble_direct(cfg)
        for d in (1, 2, 3):
            for t in enumerate_tuples(cfg, d):
                rep = rep_of_tuple(cfg, res, t)
                u = tuple_of_rep(cfg, res, rep)
                tau = _transports(cfg, res, t, d)
                iso = TupleIso(
                    {c.id: tau[("c", c.id)] for c in cfg.components},
                    {s.id: tau[("s", s.id)] for s in cfg.singulars})
                assert is_tuple_iso(cfg, u, t, iso)


def test_is_tuple_iso_rejects_non_commuting_maps():
    cfg = nodal_cubic()
    t = nodal_tuple(ID2, SWAP)
    u = nodal_tuple(ID2, ID2)
    wrong = TupleIso({"X1": ID2}, {"Z1": ID2})
    assert not is_tuple_iso(cfg, u, t, wrong)
    assert is_tuple_iso(cfg, t, t, wrong)  # the identity is an automorphism


def _z2_tuple(z_action) -> DescentTuple:
    return DescentTuple({"X1": (3, {GenId("X1", 0): (1, 0, 2)})},
                        {"Z1": (3, {GenId("Z1", 0): z_action})},
                        ((0, 1, 2), (0, 1, 2)))


@pytest.mark.parametrize("x_map,z_map,expected", [
    ((0, 1, 2), (0, 1, 2), True),
    ((1, 0, 2), (1, 0, 2), True),  # the swap centralizes both actions
    ((0, 1, 2), (1, 0, 2), False),  # commutes with Z1's action, not the gluings
    ((0, 1, 2), (0, 2, 1), False),  # does not commute with Z1's action
    ((0, 1, 2), (0, 0, 2), False),  # singular map not a bijection
    ((0, 1, 2), (0, 1), False),  # singular map of the wrong size
    ((0, 0, 2), (0, 1, 2), False),  # component map not a bijection
    ((0, 1, 2, 3), (0, 1, 2), False),  # component map of the wrong size
])
def test_is_tuple_iso_checks_both_node_kinds(x_map, z_map, expected):
    t = _z2_tuple((1, 0, 2))
    assert is_tuple_iso(equivariant_z2(), t, t,
                        TupleIso({"X1": x_map}, {"Z1": z_map})) is expected


def test_is_tuple_iso_rejects_missing_maps_and_size_mismatch():
    cfg = equivariant_z2()
    t = _z2_tuple((1, 0, 2))
    ident = (0, 1, 2)
    assert not is_tuple_iso(cfg, t, t, TupleIso({}, {"Z1": ident}))
    assert not is_tuple_iso(cfg, t, t, TupleIso({"X1": ident}, {}))
    small = DescentTuple(t.component_fibers, {"Z1": (2, {GenId("Z1", 0): SWAP})},
                         t.gluings)
    assert not is_tuple_iso(cfg, t, small, TupleIso({"X1": ident}, {"Z1": ident}))


def test_cycle_image_gives_connected_tuple():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    x = res.presentation.generators[0]
    for d in (2, 3, 4, 5):
        cycle = tuple((i + 1) % d for i in range(d))
        h = hom(res.presentation, symmetric(d), {x: cycle})
        t = tuple_of_rep(cfg, res, h)
        assert len(tuple_components(cfg, t)) == 1


def test_swap_and_identity_images_give_connected_tuple():
    cfg = z2_nodal()
    res = assemble_direct(cfg)
    a, x = res.presentation.generators
    h = hom(res.presentation, symmetric(2), {a: SWAP, x: ID2})
    t = tuple_of_rep(cfg, res, h)
    assert validate_tuple(cfg, t) == []
    assert len(tuple_components(cfg, t)) == 1


def test_roundtrip_identity_on_transitive_reps_degree_four():
    for cfg in (nodal_cubic(), z2_nodal(), bouquet(3)):
        res = assemble_direct(cfg)
        for h in enumerate_homs(res.presentation, symmetric(4)):
            if not is_transitive([p for _, p in h.images], 4):
                continue
            assert rep_of_tuple(cfg, res, tuple_of_rep(cfg, res, h)) == h


def test_dictionary_rejects_results_without_a_tree():
    cfg = line_cycle(2)
    res = assemble_recursive(cfg)
    t = enumerate_tuples(cfg, 2)[0]
    with pytest.raises(ValueError, match="tree-based"):
        rep_of_tuple(cfg, res, t)
    h = next(iter(enumerate_homs(res.presentation, symmetric(2))))
    with pytest.raises(ValueError, match="tree-based"):
        tuple_of_rep(cfg, res, h)


def test_tuple_of_rep_rejects_a_representation_of_another_presentation():
    cfg = z2_nodal()
    res = assemble_direct(cfg)
    other = assemble_direct(nodal_cubic()).presentation
    rep = next(iter(enumerate_homs(other, symmetric(2))))
    with pytest.raises(ValueError,
                       match="^representation is not of the assembled presentation$"):
        tuple_of_rep(cfg, res, rep)


def test_tuple_of_rep_rejects_a_word_valued_hom():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    p = res.presentation
    words = hom(p, p, {g: gen(g) for g in p.generators})
    with pytest.raises(ValueError,
                       match="^representation is not into a permutation group$"):
        tuple_of_rep(cfg, res, words)


def test_tuple_of_rep_rejects_relator_violation():
    cfg = z2_nodal()
    res = assemble_direct(cfg)
    a, x = res.presentation.generators
    bad = hom(res.presentation, symmetric(3), {a: (1, 2, 0), x: (0, 1, 2)})
    with pytest.raises(ValueError, match="relator"):
        tuple_of_rep(cfg, res, bad)


# --- equivalence report ------------------------------------------------------

def test_equivalence_report_nodal_cubic():
    cfg = nodal_cubic()
    rep = equivalence_report(cfg, assemble_direct(cfg), 4)
    assert rep.passed
    assert [(r.degree, r.tuples, r.reps) for r in rep.rows] == \
        [(1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 1, 1)]


def test_equivalence_report_counts_without_building_tuples(monkeypatch):
    corpus = sorted(full_corpus().items())
    expected = {name: [len(enumerate_tuples(cfg, d)) for d in (1, 2, 3)]
                for name, cfg in corpus}

    def no_tuples(*args):
        raise AssertionError("equivalence_report built a DescentTuple")

    monkeypatch.setattr(covers, "_tuple_from_tables", no_tuples)
    for name, cfg in corpus:
        rep = equivalence_report(cfg, assemble_direct(cfg), 3)
        assert [r.tuples for r in rep.rows] == expected[name], name


def test_equivalence_report_checks_connectivity_and_indexes_once(monkeypatch):
    calls = {"index": 0, "search": 0}
    build = _Structure.__init__
    connected = census.is_connected

    def counted_build(self, cfg):
        calls["index"] += 1
        build(self, cfg)

    def counted_search(cfg):
        calls["search"] += 1
        return connected(cfg)

    cfg = line_cycle(2)
    res = assemble_direct(cfg)
    monkeypatch.setattr(_Structure, "__init__", counted_build)
    monkeypatch.setattr(census, "is_connected", counted_search)
    rep = equivalence_report(cfg, res, 5)
    assert rep.passed and len(rep.rows) == 5
    assert calls == {"index": 1, "search": 1}


@pytest.mark.parametrize("max_degree", [0, -3])
def test_equivalence_report_rejects_degrees_below_one(max_degree):
    cfg = nodal_cubic()
    with pytest.raises(ValueError, match="^max_degree must be at least 1$"):
        equivalence_report(cfg, assemble_direct(cfg), max_degree)


def test_census_of_disconnected_configuration_raises():
    triv = trivial_presentation()
    cfg = Configuration((ComponentNode("X1", triv), ComponentNode("X2", triv)), (), ())
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        enumerate_tuples(cfg, 0)
    with pytest.raises(DisconnectedError,
                       match="^tuple census requires a connected configuration$"):
        enumerate_tuples(cfg, 2)
    with pytest.raises(DisconnectedError,
                       match="^tuple census requires a connected configuration$"):
        equivalence_report(cfg, assemble_direct(nodal_cubic()), 0)


def test_equivalence_report_detects_wrong_presentation():
    # deliberately pair the nodal cubic census with a rank-2 presentation
    cfg = nodal_cubic()
    res = assemble_direct(bouquet(3))
    rep = equivalence_report(cfg, res, 2)
    assert not rep.passed


# --- cross-check against the naive oracle at tiny size ------------------------

def test_census_against_naive_reference_z2_nodal_d2():
    from reference import naive_tuple_census
    a2 = [[(0, 1), (0, 1)]]
    count = naive_tuple_census([(1, a2)], [(0, [])],
                               [(0, 0, [], []), (0, 0, [], [])], 2)
    assert len(enumerate_tuples(z2_nodal(), 2)) == count


def test_census_against_naive_reference_cycle2_d2():
    from reference import naive_tuple_census
    triv = (0, [])
    count = naive_tuple_census([triv, triv], [triv, triv],
                               [(0, 0, [], []), (0, 1, [], []),
                                (1, 0, [], []), (1, 1, [], [])], 2)
    assert len(enumerate_tuples(line_cycle(2), 2)) == count
