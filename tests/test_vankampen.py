"""Van Kampen construction: the four forms, witnesses, amalgams."""

from __future__ import annotations

import pytest

from devissage import (GenId, Interface, VKInput, Word,
                       amalgamated_coproduct, conjugator_group,
                       count_transitive_actions, cyclic, cyclic_presentation,
                       enumerate_homs, fingerprint, free_presentation,
                       free_product, gen, hom, hom_count, pullback,
                       reduce_word, symmetric, trivial_presentation,
                       van_kampen, van_kampen_forms, verify_hom, word)

PROBES = (symmetric(2), symmetric(3), cyclic(4))


def trivial_interface(left, right, namespace):
    e = trivial_presentation()
    return Interface(e, hom(e, left, {}), hom(e, right, {}))


def vk_input(left, right, s):
    return VKInput(left, right, tuple(
        trivial_interface(left, right, f"e{i}") for i in range(s)))


# --- conjugator group -------------------------------------------------------

def test_single_interface_needs_no_conjugators():
    F = conjugator_group(1)
    assert F.presentation.rank == 0
    assert F.u(1, 1) == Word()


def test_rank_is_one_less_than_interface_count():
    F = conjugator_group(3)
    assert F.presentation.rank == 2
    assert F.u(2, 3) == word((GenId("F", 2), -1), (GenId("F", 3), 1))


def test_pair_word_relations_reduce_to_identity():
    F = conjugator_group(4)
    for i in range(1, 5):
        assert F.u(i, i) == Word()
        for j in range(1, 5):
            for k in range(1, 5):
                assert reduce_word(F.u(i, j) * F.u(j, k) * F.u(i, k).inverse()) == Word()


def test_conjugator_hom_count():
    F = conjugator_group(4)
    assert hom_count(F.presentation, symmetric(3)) == 216  # 6^3


def test_zero_interfaces_rejected():
    with pytest.raises(ValueError):
        conjugator_group(0)


# --- van_kampen (form i) ----------------------------------------------------

def test_single_trivial_interface_gives_free_product():
    left = cyclic_presentation("a", 2)
    right = cyclic_presentation("b", 3)
    out = van_kampen(vk_input(left, right, 1))
    assert out.generators == free_product(left, right).generators
    assert out.relations == free_product(left, right).relations


def test_all_trivial_gives_free_of_rank_s_minus_one():
    out = van_kampen(vk_input(trivial_presentation(), trivial_presentation(), 4))
    assert out.generators == tuple(GenId("F", i) for i in (2, 3, 4))
    assert out.relations == ()


def test_z2_with_two_trivial_interfaces():
    # <a | a^2> against the trivial group with two trivial interfaces:
    # result is <a, v2 | a^2> = Z/2 * Z; hom count to S2 is 4 (reference.py)
    left = cyclic_presentation("a", 2)
    out = van_kampen(vk_input(left, trivial_presentation(), 2))
    assert set(out.generators) == {GenId("a", 0), GenId("F", 2)}
    assert hom_count(out, symmetric(2)) == 4


def test_nontrivial_interface_conjugation_relation():
    # left = right = Z/4, interface Z/2 embedding as the squares
    left = cyclic_presentation("a", 4)
    right = cyclic_presentation("b", 4)
    e = cyclic_presentation("c", 2)
    c, a, b = e.generators[0], left.generators[0], right.generators[0]
    iface = Interface(e,
                      hom(e, left, {c: word((a, 1), (a, 1))}),
                      hom(e, right, {c: word((b, 1), (b, 1))}))
    out = van_kampen(VKInput(left, right, (iface,)))
    # relator a^-2 b^2 (v1 = 1)
    assert out.relations[-1] == word((a, -1), (a, -1), (b, 1), (b, 1))


def test_namespace_collision_rejected():
    left = cyclic_presentation("a", 2)
    with pytest.raises(ValueError, match="collision"):
        van_kampen(vk_input(left, cyclic_presentation("a", 3), 1))


def test_psi_target_mismatch_rejected():
    left = cyclic_presentation("a", 2)
    right = cyclic_presentation("b", 2)
    e = trivial_presentation()
    bad = Interface(e, hom(e, right, {}), hom(e, right, {}))
    with pytest.raises(ValueError, match="psi"):
        van_kampen(VKInput(left, right, (bad,)))


L2, R2, E = cyclic_presentation("a", 2), cyclic_presentation("b", 2), trivial_presentation()

VK_CHECKS = {
    "v-below-range": (lambda: conjugator_group(3).v(0), "index 0 out of range"),
    "v-above-range": (lambda: conjugator_group(3).v(4), "index 4 out of range"),
    "no-interfaces": (lambda: van_kampen(VKInput(L2, R2, ())), "need at least one interface"),
    "hom-source": (lambda: van_kampen(VKInput(L2, R2, (Interface(
        E, hom(L2, L2, {L2.generators[0]: Word()}), hom(E, R2, {})),))),
        "interface 1: hom source mismatch"),
    "phi-target": (lambda: van_kampen(VKInput(L2, R2, (Interface(
        E, hom(E, L2, {}), hom(E, L2, {})),))),
        "interface 1: phi must land in the right group"),
    "amalgam-targets": (lambda: amalgamated_coproduct(L2, R2, E, hom(E, R2, {}),
                                                      hom(E, R2, {})),
                        "homs must land in the two factors"),
}


@pytest.mark.parametrize("call,message", VK_CHECKS.values(), ids=VK_CHECKS.keys())
def test_van_kampen_checks_name_the_bad_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# --- the four forms ---------------------------------------------------------

def sample_inputs():
    z2 = cyclic_presentation("a", 2)
    z3 = cyclic_presentation("b", 3)
    f1 = free_presentation("c", 1)
    # interface Z/2 -> Z/2 identity on the left, -> Z/4 squares on the right
    z4 = cyclic_presentation("d", 4)
    e = cyclic_presentation("e0", 2)
    iface = Interface(
        e,
        hom(e, z2, {e.generators[0]: gen(z2.generators[0])}),
        hom(e, z4, {e.generators[0]: word((z4.generators[0], 1), (z4.generators[0], 1))}),
    )
    return [
        vk_input(trivial_presentation(), trivial_presentation(), 3),
        vk_input(z2, z3, 1),
        vk_input(z2, z3, 2),
        vk_input(f1, z2, 3),
        VKInput(z2, z4, (iface,)),
        VKInput(z2, z4, (iface, trivial_interface(z2, z4, "t"))),
    ]


@pytest.mark.parametrize("idx", range(6))
def test_all_four_forms_share_fingerprints(idx):
    forms = van_kampen_forms(sample_inputs()[idx])
    fps = [fingerprint(f, PROBES)
           for f in (forms.form_i, forms.form_ii, forms.form_iii, forms.form_iv)]
    assert fps[0] == fps[1] == fps[2] == fps[3]


def test_single_interface_forms_i_and_iii_coincide_syntactically():
    forms = van_kampen_forms(sample_inputs()[1])
    assert forms.form_i == forms.form_iii


def test_all_trivial_s3_fingerprint_is_square():
    forms = van_kampen_forms(sample_inputs()[0])
    for probe in PROBES:
        assert hom_count(forms.form_i, probe) == probe.order ** 2


def test_form_ii_generator_count():
    inp = sample_inputs()[2]  # z2, z3, s=2
    forms = van_kampen_forms(inp)
    s = len(inp.interfaces)
    expected = inp.left.rank + s * inp.right.rank + (s - 1)
    assert forms.form_ii.rank == expected


@pytest.mark.parametrize("idx", range(6))
@pytest.mark.parametrize("probe", PROBES)
def test_witness_roundtrips_fix_every_hom(idx, probe):
    forms = van_kampen_forms(sample_inputs()[idx])
    others = (forms.form_ii, forms.form_iii, forms.form_iv)
    for other, wit in zip(others, forms.witnesses):
        for h in enumerate_homs(forms.form_i, probe):
            via_other = pullback(h, wit.backward)
            assert verify_hom(via_other)
            assert pullback(via_other, wit.forward) == h
        for h in enumerate_homs(other, probe):
            via_i = pullback(h, wit.forward)
            assert verify_hom(via_i)
            assert pullback(via_i, wit.backward) == h


# --- amalgamated coproduct --------------------------------------------------

def test_trivial_base_gives_free_product():
    p = cyclic_presentation("a", 2)
    q = cyclic_presentation("b", 3)
    base = trivial_presentation()
    out = amalgamated_coproduct(p, q, base, hom(base, p, {}), hom(base, q, {}))
    assert out == free_product(p, q)


def test_amalgam_of_z_with_itself_is_z():
    p = free_presentation("a", 1)
    q = free_presentation("b", 1)
    base = free_presentation("z", 1)
    f = hom(base, p, {base.generators[0]: gen(p.generators[0])})
    g = hom(base, q, {base.generators[0]: gen(q.generators[0])})
    out = amalgamated_coproduct(p, q, base, f, g)
    assert out.relations == (word((p.generators[0], 1), (q.generators[0], -1)),)
    assert hom_count(out, symmetric(3)) == 6  # reference.py: homs(Z -> S3)


def test_amalgam_of_two_z2_over_trivial_is_infinite_dihedral():
    p = cyclic_presentation("a", 2)
    q = cyclic_presentation("b", 2)
    base = trivial_presentation()
    out = amalgamated_coproduct(p, q, base, hom(base, p, {}), hom(base, q, {}))
    assert count_transitive_actions(out, 2) == 3  # reference.py


def test_amalgam_source_mismatch():
    p = cyclic_presentation("a", 2)
    q = cyclic_presentation("b", 2)
    base = trivial_presentation()
    f_wrong_source = hom(p, p, {p.generators[0]: gen(p.generators[0])})
    with pytest.raises(ValueError, match="source"):
        amalgamated_coproduct(p, q, base, f_wrong_source, hom(base, q, {}))
