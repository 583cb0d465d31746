"""Presentations: constructors, free products, imposed relations."""

from __future__ import annotations

from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from devissage import (GenId, Presentation, Word, add_relations,
                       cyclic_presentation, free_presentation, free_product,
                       gen, hom_count, rename_namespaces, symmetric,
                       trivial_presentation, word)
from devissage.presentations import _diagonal_form


def test_relations_stored_reduced():
    a = GenId("a", 0)
    p = Presentation((a,), (word((a, 1), (a, -1), (a, 1), (a, 1)),))
    assert p.relations == (word((a, 1), (a, 1)),)


def test_unknown_generator_in_relation_rejected():
    a, b = GenId("a", 0), GenId("b", 0)
    with pytest.raises(ValueError):
        Presentation((a,), (gen(b),))


def test_duplicate_generator_rejected():
    a = GenId("a", 0)
    with pytest.raises(ValueError):
        Presentation((a, a))


@pytest.mark.parametrize("order", [0, -1])
def test_cyclic_order_must_be_positive(order):
    with pytest.raises(ValueError, match="^order must be positive$"):
        cyclic_presentation("a", order)


def test_free_product_is_union():
    p = cyclic_presentation("a", 2)
    q = cyclic_presentation("b", 3)
    pq = free_product(p, q)
    assert pq.generators == p.generators + q.generators
    assert pq.relations == p.relations + q.relations


def test_free_product_unit():
    p = cyclic_presentation("a", 2)
    assert free_product(p, trivial_presentation()) == p


def test_free_product_namespace_collision():
    with pytest.raises(ValueError, match="collision"):
        free_product(cyclic_presentation("a", 2), free_presentation("a", 1))


def test_free_product_hom_counts_multiply():
    # homs(<a|a^2> * <b|> -> S2) = 2 * 2; constant from tests/reference.py
    p = free_product(cyclic_presentation("a", 2), free_presentation("b", 1))
    assert hom_count(p, symmetric(2)) == 4


def test_add_relations_appends_reduced_relator():
    p = free_presentation("a", 2)
    a0, a1 = p.generators
    q = add_relations(p, [(gen(a0), gen(a1))])
    assert q.relations == (word((a0, 1), (a1, -1)),)


def test_add_relations_empty_is_identity():
    p = cyclic_presentation("a", 4)
    assert add_relations(p, []) == p


def test_add_relations_unknown_generator():
    p = free_presentation("a", 1)
    with pytest.raises(ValueError, match="unknown"):
        add_relations(p, [(gen(GenId("z", 0)), Word())])


def test_killing_the_generator_gives_one_hom():
    # <a | a = 1>: exactly one hom to every probe (reference.py: 1)
    p = add_relations(free_presentation("a", 1), [(gen(GenId("a", 0)), Word())])
    assert hom_count(p, symmetric(3)) == 1
    assert hom_count(p, symmetric(2)) == 1


def test_add_relations_never_increases_hom_counts():
    p = free_presentation("a", 2)
    a0, a1 = p.generators
    base = hom_count(p, symmetric(3))
    for pairs in ([(gen(a0), gen(a1))],
                  [(gen(a0) * gen(a0), Word())],
                  [(gen(a0), Word()), (gen(a1), gen(a0))]):
        assert hom_count(add_relations(p, pairs), symmetric(3)) <= base


def test_rename_namespaces_roundtrip():
    p = cyclic_presentation("a", 3)
    q, mapping = rename_namespaces(p, {"a": "b"})
    assert q.namespaces() == frozenset({"b"})
    assert mapping[GenId("a", 0)] == GenId("b", 0)
    back, _ = rename_namespaces(q, {"b": "a"})
    assert back == p


def _solutions(rows: list[list[int]], n: int, j: int) -> int:
    """Solutions of rows·v = 0 mod j in n unknowns, by brute force."""
    return sum(all(sum(a * x for a, x in zip(row, v)) % j == 0 for row in rows)
               for v in product(range(j), repeat=n))


def _predicted(rows: list[list[int]], n: int, j: int) -> int:
    diagonal = _diagonal_form(rows)
    return j ** (n - len(diagonal)) * prod(gcd(s, j) for s in diagonal)


def test_diagonal_form_is_more_than_an_echelon_form():
    # echelon pivots 2 and 4 would predict 4 solutions mod 2; the diagonal
    # form is (1, 8), and only y = 0 solves 2x + y = 4y = 0 mod 2
    assert _diagonal_form([[2, 1], [0, 4]]) == [1, 8]
    assert _predicted([[2, 1], [0, 4]], 2, 2) == _solutions([[2, 1], [0, 4]], 2, 2) == 2


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4))),
       st.integers(2, 6))
def test_diagonal_form_counts_the_solutions_mod_j(matrix, j):
    n, rows = matrix
    assert _predicted(rows, n, j) == _solutions(rows, n, j)
