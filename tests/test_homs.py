"""Hom enumeration, fingerprints, and transitive-action counting.

Expected values marked "reference.py" were computed with the naive oracles
in tests/reference.py before the search engines were written.
"""

from __future__ import annotations

from dataclasses import fields
from math import factorial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from devissage import (GenId, Hom, Presentation, Word, assemble_direct,
                       assemble_recursive, count_transitive_actions, cyclic, cyclic_presentation,
                       enumerate_homs, enumerate_tuples, eval_word, fingerprint,
                       free_presentation, free_product, gen, hom, hom_count, homs,
                       parse_config, pullback, symmetric, verify_hom, word)
from devissage.corpus import bouquet, full_corpus
from devissage.homs import (_count_by_search, _free_product_transitive_count,
                            _indexed_relators, _reduced_relators, _subgroup_counts)
from devissage.presentations import trivial_presentation

Z2 = cyclic_presentation("a", 2)
Z3 = cyclic_presentation("a", 3)


def dihedral_infinite() -> Presentation:
    p = free_presentation("d", 2)
    a, b = p.generators
    return Presentation(p.generators, (word((a, 1), (a, 1)), word((b, 1), (b, 1))))


# --- enumerate_homs / hom_count -------------------------------------------

def test_homs_z2_to_s2():
    assert hom_count(Z2, symmetric(2)) == 2  # reference.py


def test_homs_z3_to_s2():
    assert hom_count(Z3, symmetric(2)) == 1  # reference.py


def test_homs_z2_to_s3():
    assert hom_count(Z2, symmetric(3)) == 4  # reference.py


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("probe", [symmetric(2), symmetric(3), cyclic(4), symmetric(4)])
def test_free_group_hom_count_is_power(r, probe):
    assert hom_count(free_presentation("f", r), probe) == probe.order ** r


def test_enumeration_is_duplicate_free_and_verified():
    homs = enumerate_homs(Z2, symmetric(3))
    assert len({h.images for h in homs}) == len(homs) == 4
    assert all(verify_hom(h) for h in homs)


def test_enumeration_deterministic_order():
    first = enumerate_homs(dihedral_infinite(), symmetric(3))
    second = enumerate_homs(dihedral_infinite(), symmetric(3))
    assert [h.images for h in first] == [h.images for h in second]


@pytest.mark.parametrize("name", sorted(full_corpus()))
def test_enumeration_order_matches_naive_reference(name):
    # enumerate_homs is the oracle of every hom count: its order is the
    # product order of the probe's elements, generators in listed order
    from reference import naive_homs
    pres = assemble_direct(full_corpus()[name]).presentation
    index = {g: i for i, g in enumerate(pres.generators)}
    relators = [[(index[g], s) for g, s in w.letters] for w in pres.relations]
    for probe in (symmetric(3), cyclic(4)):
        assert [tuple(img for _, img in h.images)
                for h in enumerate_homs(pres, probe)] == \
            naive_homs(len(pres.generators), relators, probe.elements)


def test_fingerprint_of_high_rank_does_not_recurse():
    # one search level per generator used to exceed the default recursion limit
    gens = tuple(GenId("t", i) for i in range(1100))
    pres = Presentation(gens, tuple(gen(g) for g in gens))
    probes = (symmetric(2), cyclic(3), symmetric(3))
    assert fingerprint(pres, probes).counts == (1, 1, 1)


def test_free_product_hom_counts_multiply_over_probes():
    p, q = Z2, cyclic_presentation("b", 3)
    pq = free_product(p, q)
    for probe in (symmetric(2), symmetric(3), cyclic(4)):
        assert hom_count(pq, probe) == hom_count(p, probe) * hom_count(q, probe)


# --- verify_hom ------------------------------------------------------------

def test_verify_accepts_the_swap():
    a = Z2.generators[0]
    h = hom(Z2, symmetric(2), {a: (1, 0)})
    assert verify_hom(h)


def test_verify_rejects_a_three_cycle():
    a = Z2.generators[0]
    h = hom(Z2, symmetric(3), {a: (1, 2, 0)})
    assert not verify_hom(h)


def test_verify_vacuous_for_empty_presentation():
    h = hom(Presentation(()), symmetric(2), {})
    assert verify_hom(h)


def test_verify_rejects_image_outside_target():
    a = Z2.generators[0]
    h = hom(Z2, cyclic(4), {a: (1, 0, 3, 2)})  # order two, but not a rotation
    assert not verify_hom(h)


def test_hom_requires_all_images():
    with pytest.raises(ValueError, match="missing image"):
        hom(Z2, symmetric(2), {})


A = Z2.generators[0]
ID_Z2 = hom(Z2, Z2, {A: gen(A)})

HOM_CHECKS = {
    "missing-image": (lambda: hom(Z2, symmetric(2), {}), "missing image for a.0"),
    "wrong-degree": (lambda: hom(Z2, symmetric(3), {A: (1, 0)}),
                     "image of a.0 is not a degree-3 permutation"),
    "not-a-permutation": (lambda: hom(Z2, symmetric(2), {A: (5, 5)}),
                          "image of a.0 is not a degree-2 permutation"),
    "not-a-word": (lambda: hom(Z2, Z2, {A: "a"}), "image of a.0 must be a word"),
    "unknown-generator": (lambda: hom(Z2, Z2, {A: gen(GenId("b", 0))}),
                          "image of a.0 uses unknown generators ['b.0']"),
    "extra-image": (lambda: hom(Presentation(()), Z2, {A: gen(A)}),
                    "images given for non-generators ['a.0']"),
    "verify-word-target": (lambda: verify_hom(ID_Z2),
                           "verify_hom needs a finite permutation target"),
    "pullback-word-target": (lambda: pullback(ID_Z2, ID_Z2),
                             "pullback target must be a permutation group"),
    "pullback-misaligned": (lambda: pullback(hom(Z3, symmetric(3), {A: (1, 2, 0)}), ID_Z2),
                            "hom sources do not line up"),
    "eval-missing-image": (lambda: eval_word(gen(A), {}, 2),
                           "no degree-2 permutation image for generator a.0"),
    "eval-non-permutation": (lambda: eval_word(gen(A), {A: (1, 1)}, 2),
                             "no degree-2 permutation image for generator a.0"),
    "eval-wrong-degree": (lambda: eval_word(gen(A), {A: (1, 0)}, 3),
                          "no degree-3 permutation image for generator a.0"),
    "pullback-missing-image": (lambda: pullback(Hom(Z2, symmetric(2), ()), ID_Z2),
                               "no degree-2 permutation image for generator a.0"),
}


@pytest.mark.parametrize("call,message", HOM_CHECKS.values(), ids=HOM_CHECKS.keys())
def test_hom_checks_name_the_bad_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# --- fingerprints ----------------------------------------------------------

def test_fingerprint_free_rank_two():
    fp = fingerprint(free_presentation("f", 2), [symmetric(2), symmetric(3)])
    assert fp.counts == (4, 36)


def test_fingerprint_z2_s3():
    assert fingerprint(Z2, [symmetric(3)]).counts == (4,)  # reference.py


def test_fingerprint_invariant_under_renaming():
    probes = [symmetric(2), symmetric(3), cyclic(4)]
    other = cyclic_presentation("zz", 2)
    assert fingerprint(Z2, probes).counts == fingerprint(other, probes).counts


def test_fingerprint_distinguishes_z2_from_z3():
    probes = [symmetric(3)]
    assert fingerprint(Z2, probes) != fingerprint(Z3, probes)


# --- pullback --------------------------------------------------------------

def test_pullback_composes_images():
    # via: Z4' -> Z2 free part.. transport a perm-valued hom along words
    src = cyclic_presentation("c", 4)
    tgt = free_presentation("f", 1)
    f = tgt.generators[0]
    via = hom(src, tgt, {src.generators[0]: gen(f)})
    h = hom(tgt, symmetric(2), {f: (1, 0)})
    back = pullback(h, via)
    assert back.source == src
    assert back.image(src.generators[0]) == (1, 0)
    # c maps to the swap, whose 4th power is trivial: still a valid hom
    assert verify_hom(back)


# --- count_transitive_actions ----------------------------------------------

@pytest.mark.parametrize("d", range(1, 6))
def test_free_rank_one_has_unique_connected_cover(d):
    assert count_transitive_actions(free_presentation("f", 1), d) == 1


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 3), (3, 7), (4, 26), (5, 97)])
def test_free_rank_two_counts(d, expected):
    # reference.py (full-relabeling dedup), d = 1..5
    assert count_transitive_actions(free_presentation("f", 2), d) == expected


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 7), (3, 41), (4, 604)])
def test_free_rank_three_counts(d, expected):
    assert count_transitive_actions(free_presentation("f", 3), d) == expected


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 1), (3, 0), (4, 0)])
def test_z2_transitive_counts(d, expected):
    # reference.py; in particular no transitive action on more than 2 points
    assert count_transitive_actions(Z2, d) == expected


def test_infinite_dihedral_degree_two():
    assert count_transitive_actions(dihedral_infinite(), 2) == 3  # reference.py


@pytest.mark.parametrize("d,expected", [(1, 1), (2, 3), (3, 3), (4, 10)])
def test_z2_star_z_counts(d, expected):
    # <a, x | a^2> = Z/2 * Z; reference.py
    p = free_product(Z2, free_presentation("x", 1))
    assert count_transitive_actions(p, d) == expected


def test_trivial_presentation_counts():
    # the free product with no factor: the formula, not a search
    with mock.patch.object(homs, "_count_by_search", side_effect=AssertionError("searched")):
        assert [count_transitive_actions(trivial_presentation(), n) for n in range(1, 8)] == \
            [1, 0, 0, 0, 0, 0, 0]


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        count_transitive_actions(Z2, 0)


def test_counter_of_high_rank_does_not_recurse():
    # the scan's depth is degree x rank, 1099 cells here; the presentation
    # is free, so the public counter takes the formula and the search is
    # called directly
    pres = assemble_direct(bouquet(1100)).presentation
    assert len(pres.generators) == 1099
    assert _count_by_search(len(pres.generators), _reduced_relators(pres), 1) == 1
    assert count_transitive_actions(pres, 1) == 1


# Degrees at which the search of a free group of rank r takes well under a
# second; F_3 at degree 6 takes about 13 s and F_4 at degree 5 about 38 s.
FREE_SEARCH_TOP = {1: 6, 2: 6, 3: 5, 4: 4}


@pytest.mark.parametrize("r,n", [(r, n) for r, top in FREE_SEARCH_TOP.items()
                                 for n in range(1, top + 1)])
def test_free_formula_equals_the_search(r, n):
    search = _count_by_search(r, [], n)
    assert _free_product_transitive_count([], r, n) == search
    assert count_transitive_actions(free_presentation("f", r), n) == search


def test_free_formula_beyond_the_search():
    # Hall's a_7(F_3) and Liskovets's c_7(F_3), which no search here reaches
    assert _subgroup_counts([factorial(k) ** 3 for k in range(1, 8)])[-1] == 173_773_153
    assert _free_product_transitive_count([], 3, 7) == 24_824_785
    assert count_transitive_actions(free_presentation("f", 3), 7) == 24_824_785
    assert count_transitive_actions(free_presentation("f", 2), 7) == 4_163


def _power(g: GenId, e: int) -> Word:
    return Word(((g, 1 if e > 0 else -1),) * abs(e))


def test_free_product_formula_on_z2_star_z3_equals_the_search():
    # the modular group <a, b | a^2, b^3>
    a, b = GenId("m", 0), GenId("m", 1)
    p = Presentation((a, b), (_power(a, 2), _power(b, 3)))
    counts = [count_transitive_actions(p, n) for n in range(1, 8)]
    assert counts == [1, 1, 2, 2, 1, 8, 6]
    assert counts == [_count_by_search(2, _indexed_relators(p), n) for n in range(1, 8)]
    assert counts == [_free_product_transitive_count([2, 3], 0, n) for n in range(1, 8)]


def test_census_equals_the_free_product_formula_on_z2_double_bouquet_at_degree_six():
    # <a, x, y | a^2>: the one corpus config with a cyclic factor and a
    # costly search (about 2 s at degree 6), now counted by formula
    cfg = full_corpus()["z2_double_bouquet"]
    pres = assemble_direct(cfg).presentation
    with mock.patch.object(homs, "_count_by_search", side_effect=AssertionError("searched")):
        assert count_transitive_actions(pres, 6) == 51_616
    assert len(enumerate_tuples(cfg, 6)) == 51_616


# Cyclic factors: a power a^(+-m), m = 1..6, maybe conjugated and maybe
# listed twice, and a second power a^m2, so that the factor is Z/gcd(m, m2).
CYCLIC_FACTOR = st.tuples(st.integers(1, 6), st.sampled_from([1, -1]),
                          st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])),
                                   max_size=2),
                          st.booleans(), st.integers(1, 12))


@settings(deadline=None, max_examples=30)
@given(st.lists(CYCLIC_FACTOR, max_size=2), st.integers(0, 2))
def test_free_product_formula_equals_the_search(factors, free):
    assume(factors or free)
    gens = tuple(GenId("c", i) for i in range(len(factors) + free))
    rels = []
    for i, (m, sign, conj, twice, m2) in enumerate(factors):
        c = Word(tuple((gens[j % len(gens)], s) for j, s in conj))
        power = c * _power(gens[i], sign * m) * c.inverse()
        rels += [power] * (1 + twice) + [_power(gens[i], m2)]
    p = Presentation(gens, tuple(rels))
    search = _count_by_search
    with mock.patch.object(homs, "_count_by_search", side_effect=AssertionError("searched")):
        for d in range(1, 5):
            assert count_transitive_actions(p, d) == \
                search(len(gens), _indexed_relators(p), d), d


@pytest.mark.parametrize("name", ["s3_nodal", "equivariant_z2", "squared_interface"])
def test_presentations_with_other_relators_still_search(name):
    pres = assemble_direct(full_corpus()[name]).presentation
    with mock.patch.object(homs, "_free_product_transitive_count",
                           side_effect=AssertionError("formula")):
        assert [count_transitive_actions(pres, d) for d in range(1, 4)] == \
            [_count_by_search(len(pres.generators), _reduced_relators(pres), d)
             for d in range(1, 4)]


def test_census_equals_the_search_on_s3_nodal_at_degree_six():
    # S3 * Z: some of its reduced relators use both S3 generators, so the
    # counter searches, here one degree above the corpus tests
    cfg = parse_config(str(Path(__file__).resolve().parent.parent / "configs" / "s3_nodal.json"))
    pres = assemble_direct(cfg).presentation
    with mock.patch.object(homs, "_free_product_transitive_count",
                           side_effect=AssertionError("formula")):
        assert count_transitive_actions(pres, 6) == 899
    assert len(enumerate_tuples(cfg, 6)) == 899


def test_census_equals_the_free_formula_at_degree_seven():
    cfg = full_corpus()["bouquet3"]
    pres = assemble_direct(cfg).presentation
    assert len(enumerate_tuples(cfg, 7)) == count_transitive_actions(pres, 7) == 4_163


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hall_subgroup_counts_of_cyclic_groups(m):
    # Z/m has one subgroup of each index dividing m and no other
    h = [hom_count(cyclic_presentation("a", m), symmetric(k)) for k in range(1, 6)]
    assert _subgroup_counts(h) == [int(m % n == 0) for n in range(1, 6)]


def test_reduced_relators_merge_rotations_conjugates_and_inverses_only():
    a, b = GenId("h", 0), GenId("h", 1)
    w = word((a, 1), (a, 1), (b, 1), (a, 1), (b, 1), (b, 1))
    c = word((b, -1), (a, 1))
    rotated = Word(w.letters[2:] + w.letters[:2])
    # the mirror image b·b·a·b·a·a is no rotation of w or of its inverse
    mirror = Word(tuple(reversed(w.letters)))
    p = Presentation((a, b), (w, rotated, c * w * c.inverse(), w.inverse(), mirror))
    # one class each, in its least rotation: a·a·b·a·b·b and a·a·b·b·a·b
    assert _reduced_relators(p) == [((0, 1), (0, 1), (1, 1), (0, 1), (1, 1), (1, 1)),
                                    ((0, 1), (0, 1), (1, 1), (1, 1), (0, 1), (1, 1))]


def test_reduced_relators_of_the_s4_schreier_presentation():
    path = Path(__file__).resolve().parent.parent / "configs" / "s4_nodal.json"
    pres = assemble_direct(parse_config(str(path))).presentation
    assert [len(pres.relations), sum(map(len, pres.relations))] == [25, 220]
    reduced = _reduced_relators(pres)
    assert [len(reduced), sum(map(len, reduced))] == [10, 84]


LETTERS = st.tuples(st.integers(0, 1), st.sampled_from([1, -1]))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.lists(LETTERS, max_size=5), st.lists(LETTERS, max_size=2),
                          st.booleans()), max_size=3))
def test_reduced_relators_keep_the_search_count(specs):
    # each relator comes with a conjugate of itself or of its inverse, which
    # the reduction folds into one class
    gens = (GenId("h", 0), GenId("h", 1))
    rels = []
    for body, conj, invert in specs:
        w = Word(tuple((gens[i], s) for i, s in body))
        c = Word(tuple((gens[i], s) for i, s in conj))
        rels += [w, c * (w.inverse() if invert else w) * c.inverse()]
    p = Presentation(gens, tuple(rels))
    raw, reduced = _indexed_relators(p), _reduced_relators(p)
    assert len(reduced) <= len(raw) and sum(map(len, reduced)) <= sum(map(len, raw))
    for d in range(1, 5):
        assert _count_by_search(2, reduced, d) == _count_by_search(2, raw, d), d


@settings(deadline=None, max_examples=25)
@given(st.lists(st.lists(LETTERS, max_size=6), max_size=3))
def test_cancelling_relators_take_the_formula(bodies):
    gens = (GenId("h", 0), GenId("h", 1))
    words = [Word(tuple((gens[i], s) for i, s in body)) for body in bodies]
    p = Presentation(gens, tuple(w * w.inverse() for w in words))
    with mock.patch.object(homs, "_count_by_search", side_effect=AssertionError("searched")):
        assert [count_transitive_actions(p, d) for d in range(1, 6)] == [1, 3, 7, 26, 97]


def _corpus_oracle_cases():
    for name, cfg in sorted(full_corpus().items()):
        pres = assemble_direct(cfg).presentation
        for d in range(1, 4 if len(pres.generators) > 2 else 5):
            yield pytest.param(name, d, id=f"{name}-{d}")


@pytest.mark.parametrize("name,d", _corpus_oracle_cases())
def test_counter_matches_naive_reference_on_corpus(name, d):
    from reference import naive_transitive_classes
    pres = assemble_direct(full_corpus()[name]).presentation
    index = {g: i for i, g in enumerate(pres.generators)}
    relators = [[(index[g], s) for g, s in w.letters] for w in pres.relations]
    assert count_transitive_actions(pres, d) == \
        naive_transitive_classes(len(pres.generators), relators, d)


@pytest.mark.parametrize("n", range(1, 7))
def test_counter_matches_naive_reference_on_cyclic_groups(n):
    # <a | a^n> acts regularly on n points, with n automorphisms
    from reference import naive_transitive_classes
    for d in range(1, 7):
        assert count_transitive_actions(cyclic_presentation("a", n), d) == \
            naive_transitive_classes(1, [[(0, 1)] * n], d), d


@pytest.mark.parametrize("d", range(1, 5))
def test_counter_matches_naive_reference_on_the_klein_group(d):
    # <a, b | a^2, b^2, [a, b]>: its regular action has 4 automorphisms
    from reference import naive_transitive_classes
    a, b = GenId("k", 0), GenId("k", 1)
    klein = Presentation((a, b), (word((a, 1), (a, 1)), word((b, 1), (b, 1)),
                                  word((a, 1), (b, 1), (a, -1), (b, -1))))
    relators = [[(0, 1), (0, 1)], [(1, 1), (1, 1)], [(0, 1), (1, 1), (0, -1), (1, -1)]]
    assert count_transitive_actions(klein, d) == naive_transitive_classes(2, relators, d)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])),
                         max_size=6), max_size=3))
def test_every_consistent_presentation_has_one_trivial_action(rel_specs):
    gens = (GenId("h", 0), GenId("h", 1))
    rels = tuple(Word(tuple((gens[i], s) for i, s in spec)) for spec in rel_specs)
    p = Presentation(gens, rels)
    assert count_transitive_actions(p, 1) == 1


def test_hom_has_three_fields_and_caches_its_lookup():
    h = hom(Z2, symmetric(2), {GenId("a", 0): (1, 0)})
    assert [f.name for f in fields(h)] == ["source", "target", "images"]
    assert h.image(GenId("a", 0)) == (1, 0)
    assert h == hom(Z2, symmetric(2), {GenId("a", 0): (1, 0)})


# --- hom_count by relator-connected blocks ----------------------------------

BLOCK_PROBES = ([cyclic(n) for n in (1, 2, 3, 4)]
                + [symmetric(n) for n in (1, 2, 3, 4)])


@pytest.mark.parametrize("name", sorted(full_corpus()))
def test_hom_count_by_blocks_equals_the_enumeration_on_the_corpus(name):
    cfg = full_corpus()[name]
    routes = [assemble_direct(cfg)]
    if len(cfg.singulars) >= 2:
        routes.append(assemble_recursive(cfg))
    for res in routes:
        for probe in BLOCK_PROBES:
            assert hom_count(res.presentation, probe) == \
                len(enumerate_homs(res.presentation, probe))


@pytest.mark.parametrize("edges", [1, 2, 5, 12])
def test_bouquet_hom_count_is_hall_power(edges):
    pres = assemble_direct(bouquet(edges)).presentation
    for probe in BLOCK_PROBES + [symmetric(5)]:
        assert hom_count(pres, probe) == len(probe.elements) ** (edges - 1)


def test_hom_count_multiplies_blocks_joined_only_through_relators():
    # <a, b, c | a^2, [b, c]>: blocks {a} and {b, c}, joined by no relator
    a, b, c = (GenId("m", i) for i in range(3))
    pres = Presentation((a, b, c), (word((a, 1), (a, 1)),
                                    word((b, 1), (c, 1), (b, -1), (c, -1))))
    for probe in BLOCK_PROBES:
        assert hom_count(pres, probe) == len(enumerate_homs(pres, probe))
    assert hom_count(pres, symmetric(3)) == 4 * 18  # involutions x commuting pairs
