"""Three-valued discreteness fold: unit cases and exhaustive tree check."""

from __future__ import annotations

import itertools

import pytest

from devissage import (Coproduct, Leaf, Quotient, Verdict, assemble_direct,
                       assemble_recursive, combine, discreteness_verdict,
                       fold_verdicts, free_rank)
from devissage.corpus import (equivariant_z2, full_corpus, line_cycle,
                              nodal_cubic, z2_chain)
from devissage.discreteness import NodeVerdict, tree_leaves

D, N, U = Verdict.DISCRETE, Verdict.NOT_DISCRETE, Verdict.UNKNOWN


def test_combine_basics():
    assert combine([]) == D
    assert combine([D, D]) == D
    assert combine([D, N]) == N
    assert combine([D, U]) == U
    assert combine([U, N]) == N  # not-discrete dominates unknown


def test_all_discrete_components_give_discrete():
    cfg = line_cycle(3)
    out = discreteness_verdict(cfg, {c.id: D for c in cfg.components})
    assert out.overall == D


def test_one_not_discrete_component_gives_not_discrete():
    cfg = line_cycle(3)
    verdicts = {c.id: D for c in cfg.components}
    verdicts["X2"] = N
    assert discreteness_verdict(cfg, verdicts).overall == N


def test_one_unknown_rest_discrete_gives_unknown():
    cfg = line_cycle(3)
    verdicts = {c.id: D for c in cfg.components}
    verdicts["X2"] = U
    assert discreteness_verdict(cfg, verdicts).overall == U


def test_missing_component_verdict_raises():
    cfg = nodal_cubic()
    with pytest.raises(ValueError, match="missing verdict"):
        discreteness_verdict(cfg, {})


def test_nontrivial_singular_needs_verdict():
    cfg = equivariant_z2()
    with pytest.raises(ValueError, match="singular"):
        discreteness_verdict(cfg, {"X1": D})
    out = discreteness_verdict(cfg, {"X1": D, "Z1": D})
    assert out.overall == D


def test_verdict_for_unknown_node_raises():
    cfg = nodal_cubic()
    with pytest.raises(ValueError, match="^verdict given for unknown node Q$"):
        discreteness_verdict(cfg, {"X1": D, "R": D, "Q": D})
    # a trivial singular is known, so its verdict is accepted
    assert discreteness_verdict(cfg, {"X1": D, "Z1": U}).overall == D


def test_free_factor_is_reported_discrete():
    cfg = nodal_cubic()
    out = discreteness_verdict(cfg, {"X1": D})
    names = dict(out.per_node)
    assert names["(free factor)"].verdict == D


@pytest.mark.parametrize("name", sorted(full_corpus()))
def test_free_factor_entry_has_the_free_rank(name):
    # the entry closes the list exactly when the incidence graph has cycles
    cfg = full_corpus()[name]
    nodes = [n.id for n in (*cfg.components, *cfg.singulars)]
    rank = free_rank(cfg)
    out = discreteness_verdict(cfg, dict.fromkeys(nodes, D))
    assert [node for node, _ in out.per_node[:len(nodes)]] == nodes
    assert list(out.per_node[len(nodes):]) == (
        [("(free factor)", NodeVerdict(D, f"free factor of rank {rank}"))] if rank else [])
    # both routes present a free factor of exactly that rank
    for res in (assemble_direct(cfg), assemble_recursive(cfg)):
        assert sum(origin.kind in ("edge", "conjugator")
                   for origin in res.dictionary.values()) == rank


def test_string_verdicts_accepted():
    cfg = nodal_cubic()
    assert discreteness_verdict(cfg, {"X1": "unknown"}).overall == U


def test_monotone_in_upgrades():
    # upgrading unknown -> discrete never flips discrete to not-discrete
    cfg = z2_chain()
    base = {c.id: U for c in cfg.components}
    for cid in [c.id for c in cfg.components]:
        upgraded = dict(base)
        upgraded[cid] = D
        before = discreteness_verdict(cfg, base).overall
        after = discreteness_verdict(cfg, upgraded).overall
        assert (before, after) in {(U, U), (U, D)}


# --- exhaustive tree fold ----------------------------------------------------

def binary_shapes(leaves: int):
    """All full binary coproduct trees with the given number of leaf slots."""
    if leaves == 1:
        yield "leaf"
        return
    for k in range(1, leaves):
        for left in binary_shapes(k):
            for right in binary_shapes(leaves - k):
                yield (left, right)


def fill(shape, verdicts, it):
    if shape == "leaf":
        return Leaf(next(it))
    left, right = shape
    return Coproduct((fill(left, verdicts, it), fill(right, verdicts, it)))


@pytest.mark.parametrize("leaves", range(1, 7))
def test_every_tree_folds_to_flat_conjunction(leaves):
    for shape in binary_shapes(leaves):
        for assignment in itertools.product([D, N, U], repeat=leaves):
            tree = fill(shape, assignment, iter(assignment))
            assert fold_verdicts(tree) == combine(assignment)
            assert tree_leaves(tree) == list(assignment)


@pytest.mark.parametrize("leaves", range(1, 5))
def test_quotient_wrappers_change_nothing(leaves):
    for shape in binary_shapes(leaves):
        for assignment in itertools.product([D, N, U], repeat=leaves):
            tree = fill(shape, assignment, iter(assignment))
            wrapped = Quotient(Quotient(tree))
            assert fold_verdicts(wrapped) == combine(assignment)


def test_biconditional_cases():
    # both directions of the coproduct law, at every arity up to 6
    for n in range(1, 7):
        assert fold_verdicts(Coproduct(tuple(Leaf(D) for _ in range(n)))) == D
        for bad in range(n):
            leaves = [D] * n
            leaves[bad] = N
            tree = Coproduct(tuple(Leaf(v) for v in leaves))
            assert fold_verdicts(tree) == N


def _quotient_chain(leaf: Verdict, depth: int):
    tree = Leaf(leaf)
    for _ in range(depth):
        tree = Quotient(tree)
    return tree


def test_deep_trees_fold_without_recursion():
    # far past the interpreter's recursion limit
    deep = _quotient_chain(U, 10_000)
    assert fold_verdicts(deep) == U
    assert tree_leaves(deep) == [U]
    wide = Coproduct(tuple(_quotient_chain(v, 5_000) for v in (D, N, U, D)))
    assert tree_leaves(wide) == [D, N, U, D]
    assert fold_verdicts(wide) == N
    assert fold_verdicts(Quotient(Coproduct((_quotient_chain(D, 10_000),
                                             Leaf(D))))) == D
