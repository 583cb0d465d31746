"""The van Kampen construction: amalgams with free conjugators.

Given groups L and R and interface groups E_1..E_s mapping into both
(psi_i into L, phi_i into R), the construction presents the group generated
by L, R, and free conjugators v_2..v_s subject to

    psi_i(a) = v_i^-1 phi_i(a) v_i        (v_1 = 1, a a generator of E_i).

Four standard equivalent shapes of this group are built by
``van_kampen_forms`` together with explicit isomorphism witnesses; identical
hom fingerprints of the four shapes and witness round-trips are the checkable
content of the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homs import Hom, hom
from .presentations import (Presentation, add_relations, free_product,
                            rename_namespaces)
from .words import GenId, Word, gen, reduce_word

__all__ = [
    "Interface",
    "VKInput",
    "IsoWitness",
    "ConjugatorGroup",
    "conjugator_group",
    "van_kampen",
    "VKForms",
    "van_kampen_forms",
    "amalgamated_coproduct",
]

_CONJ_NAMESPACE = "F"


@dataclass(frozen=True)
class Interface:
    """One gluing interface: a group with maps into both sides."""

    group: Presentation
    psi: Hom  # group -> left
    phi: Hom  # group -> right


@dataclass(frozen=True)
class VKInput:
    left: Presentation
    right: Presentation
    interfaces: tuple[Interface, ...]


@dataclass(frozen=True)
class IsoWitness:
    """A pair of mutually inverse homs (checked at probe level only)."""

    forward: Hom
    backward: Hom


@dataclass(frozen=True)
class ConjugatorGroup:
    """Free group on v_2..v_s plus the derived two-index words u_ij.

    u_ij stands for v_i^-1 v_j (v_1 empty); under this dictionary the
    defining relations u_ii = 1 and u_ij u_jk = u_ik reduce to the empty
    word, so the group is free of rank s-1.
    """

    presentation: Presentation
    size: int

    def v(self, i: int) -> Word:
        if not 1 <= i <= self.size:
            raise ValueError(f"index {i} out of range")
        if i == 1:
            return Word()
        return gen(self.presentation.generators[i - 2])

    def u(self, i: int, j: int) -> Word:
        return reduce_word(self.v(i).inverse() * self.v(j))


def conjugator_group(s: int) -> ConjugatorGroup:
    """Free group of rank s-1 on the conjugators v_2..v_s."""
    if s < 1:
        raise ValueError("need at least one interface")
    gens = tuple(GenId(_CONJ_NAMESPACE, i) for i in range(2, s + 1))
    return ConjugatorGroup(Presentation(gens), s)


def _check_input(inp: VKInput) -> None:
    if not inp.interfaces:
        raise ValueError("need at least one interface")
    spaces = [inp.left.namespaces(), inp.right.namespaces(), {_CONJ_NAMESPACE}]
    spaces += [i.group.namespaces() for i in inp.interfaces]
    seen: set[str] = set()
    for block in spaces:
        clash = seen & set(block)
        if clash:
            raise ValueError(f"namespace collision: {sorted(clash)}")
        seen |= set(block)
    for i, iface in enumerate(inp.interfaces, start=1):
        if iface.psi.source != iface.group or iface.phi.source != iface.group:
            raise ValueError(f"interface {i}: hom source mismatch")
        if iface.psi.target != inp.left:
            raise ValueError(f"interface {i}: psi must land in the left group")
        if iface.phi.target != inp.right:
            raise ValueError(f"interface {i}: phi must land in the right group")


def van_kampen(inp: VKInput) -> Presentation:
    """Form (i): L * R * F(v_2..v_s) with conjugation relations.

    The relation family ranges over whole interface groups in principle; it
    is imposed on interface generators only, which suffices because both
    sides of each relation are images under homomorphisms.
    """
    _check_input(inp)
    s = len(inp.interfaces)
    F = conjugator_group(s)
    gens = inp.left.generators + inp.right.generators + F.presentation.generators
    rels = list(inp.left.relations) + list(inp.right.relations)
    for i, iface in enumerate(inp.interfaces, start=1):
        v = F.v(i)
        for a, psi_a in iface.psi.images:
            phi_a = iface.phi.image(a)
            rels.append(psi_a.inverse() * v.inverse() * phi_a * v)
    return Presentation(tuple(gens), tuple(rels))


@dataclass(frozen=True)
class VKForms:
    """The four equivalent shapes, with witnesses from forms ii-iv to form i."""

    form_i: Presentation
    form_ii: Presentation
    form_iii: Presentation
    form_iv: Presentation
    witnesses: tuple[IsoWitness, ...]  # (i<->ii, i<->iii, i<->iv)


def _right_copies(inp: VKInput, s: int):
    copies = []
    maps = []
    for i in range(1, s + 1):
        copy, mapping = rename_namespaces(inp.right, lambda ns, i=i: f"{ns}.{i}")
        copies.append(copy)
        maps.append(mapping)
    return copies, maps


def van_kampen_forms(inp: VKInput) -> VKForms:
    """Build forms (i)-(iv) and the isomorphism witnesses to (i).

    (ii) uses s conjugated copies of the right group; (iii) inlines the
    first interface as an amalgam and keeps conjugators for the rest, which
    is form (i) itself since v_1 is empty, so (iii) is returned as (i); (iv)
    glues s amalgams over the left group and then conjugates the copies.
    Forms (ii) and (iv) flatten to the same generator list and differ only
    in how their relation families are ordered; both treat the s interfaces
    symmetrically, unlike (i) and (iii) which single out the first one.
    """
    form_i = van_kampen(inp)  # checks the input
    s = len(inp.interfaces)
    F = conjugator_group(s)

    copies, maps = _right_copies(inp, s)
    copy_gens = tuple(g for c in copies for g in c.generators)
    copy_rels = tuple(r for c in copies for r in c.relations)
    gens_ii = inp.left.generators + copy_gens + F.presentation.generators

    # u_ij^-1 [y]_i u_ij = [y]_j for every generator y of the right group
    conjugation_rels = []
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            if i == j:
                continue
            u = F.u(i, j)
            for y in inp.right.generators:
                yi, yj = gen(maps[i - 1][y]), gen(maps[j - 1][y])
                conjugation_rels.append(u.inverse() * yi * u * yj.inverse())

    # psi_i(a) = [phi_i(a)]_i, the i-th copy carrying phi's image
    matched_rels = []
    for i, iface in enumerate(inp.interfaces, start=1):
        mapping = maps[i - 1]
        for a, psi_a in iface.psi.images:
            phi_a = iface.phi.image(a)
            copied = Word(tuple((mapping[g], sg) for g, sg in phi_a.letters))
            matched_rels.append(psi_a.inverse() * copied)

    form_ii = Presentation(gens_ii, (*inp.left.relations, *copy_rels,
                                     *conjugation_rels, *matched_rels))
    # The amalgam relator psi_1(a)^-1 phi_1(a) of form (iii) is form (i)'s
    # relator for the first interface, because v_1 is empty; the other
    # interfaces keep their conjugators in both forms.  Relators are stored
    # reduced, so the two forms coincide relator for relator.
    form_iii = form_i
    form_iv = Presentation(gens_ii, (*inp.left.relations, *copy_rels,
                                     *matched_rels, *conjugation_rels))

    # Witnesses.  Form i <-> ii/iv: y goes to its first copy; the i-th copy
    # returns as v_i^-1 y v_i.  Form i <-> iii: the generators coincide.
    # Forms (ii) and (iv) share their generators, so they share both maps.
    ident_i = {g: gen(g) for g in form_i.generators}
    to_copy = {**ident_i, **{y: gen(maps[0][y]) for y in inp.right.generators}}
    from_copy = {g: gen(g) for g in (*inp.left.generators, *F.presentation.generators)}
    for i, mapping in enumerate(maps, start=1):
        v = F.v(i)
        from_copy.update((mapping[y], reduce_word(v.inverse() * gen(y) * v))
                         for y in inp.right.generators)
    witnesses = (
        IsoWitness(hom(form_i, form_ii, to_copy), hom(form_ii, form_i, from_copy)),
        IsoWitness(hom(form_i, form_iii, ident_i), hom(form_iii, form_i, ident_i)),
        IsoWitness(hom(form_i, form_iv, to_copy), hom(form_iv, form_i, from_copy)),
    )
    return VKForms(form_i, form_ii, form_iii, form_iv, witnesses)


def amalgamated_coproduct(p: Presentation, q: Presentation,
                          base: Presentation, f: Hom, g: Hom) -> Presentation:
    """Glue p and q along base: free product plus relators f(x) g(x)^-1."""
    if f.source != base or g.source != base:
        raise ValueError("hom sources must equal the base")
    if f.target != p or g.target != q:
        raise ValueError("homs must land in the two factors")
    return add_relations(free_product(p, q), ((fx, g.image(x)) for x, fx in f.images))
