"""Three-valued discreteness fold: unit cases and exhaustive tree check."""

from __future__ import annotations

import itertools

import pytest

from devissage import (Coproduct, Leaf, Quotient, Verdict, assemble_direct,
                       combine, discreteness_verdict, fold_verdicts)
from devissage.corpus import equivariant_z2, line_cycle, nodal_cubic, z2_chain
from devissage.discreteness import tree_leaves

D, N, U = Verdict.DISCRETE, Verdict.NOT_DISCRETE, Verdict.UNKNOWN


def test_combine_basics():
    assert combine([]) == D
    assert combine([D, D]) == D
    assert combine([D, N]) == N
    assert combine([D, U]) == U
    assert combine([U, N]) == N  # not-discrete dominates unknown


def test_all_discrete_components_give_discrete():
    cfg = line_cycle(3)
    res = assemble_direct(cfg)
    out = discreteness_verdict(cfg, res, {c.id: D for c in cfg.components})
    assert out.overall == D


def test_one_not_discrete_component_gives_not_discrete():
    cfg = line_cycle(3)
    res = assemble_direct(cfg)
    verdicts = {c.id: D for c in cfg.components}
    verdicts["X2"] = N
    assert discreteness_verdict(cfg, res, verdicts).overall == N


def test_one_unknown_rest_discrete_gives_unknown():
    cfg = line_cycle(3)
    res = assemble_direct(cfg)
    verdicts = {c.id: D for c in cfg.components}
    verdicts["X2"] = U
    assert discreteness_verdict(cfg, res, verdicts).overall == U


def test_missing_component_verdict_raises():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    with pytest.raises(ValueError, match="missing verdict"):
        discreteness_verdict(cfg, res, {})


def test_nontrivial_singular_needs_verdict():
    cfg = equivariant_z2()
    res = assemble_direct(cfg)
    with pytest.raises(ValueError, match="singular"):
        discreteness_verdict(cfg, res, {"X1": D})
    out = discreteness_verdict(cfg, res, {"X1": D, "Z1": D})
    assert out.overall == D


def test_verdict_for_unknown_node_raises():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    with pytest.raises(ValueError, match="^verdict given for unknown node Q$"):
        discreteness_verdict(cfg, res, {"X1": D, "R": D, "Q": D})
    # a trivial singular is known, so its verdict is accepted
    assert discreteness_verdict(cfg, res, {"X1": D, "Z1": U}).overall == D


def test_free_factor_is_reported_discrete():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    out = discreteness_verdict(cfg, res, {"X1": D})
    names = dict(out.per_node)
    assert names["(free factor)"].verdict == D


def test_string_verdicts_accepted():
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    assert discreteness_verdict(cfg, res, {"X1": "unknown"}).overall == U


def test_monotone_in_upgrades():
    # upgrading unknown -> discrete never flips discrete to not-discrete
    cfg = z2_chain()
    res = assemble_direct(cfg)
    base = {c.id: U for c in cfg.components}
    for cid in [c.id for c in cfg.components]:
        upgraded = dict(base)
        upgraded[cid] = D
        before = discreteness_verdict(cfg, res, base).overall
        after = discreteness_verdict(cfg, res, upgraded).overall
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
