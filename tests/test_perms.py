"""Permutation groups built from their generators."""

from __future__ import annotations

import itertools
import time

import pytest

from devissage import PermGroupTarget, cyclic, symmetric


@pytest.mark.parametrize("d", range(7))
def test_symmetric_lists_every_permutation_in_order(d):
    assert symmetric(d).elements == tuple(sorted(itertools.permutations(range(d))))


@pytest.mark.parametrize("n", range(1, 7))
def test_cyclic_lists_the_rotations(n):
    rotations = {tuple((i + k) % n for i in range(n)) for k in range(n)}
    assert set(cyclic(n).elements) == rotations and cyclic(n).order == n


def test_cyclic_order_must_be_positive():
    with pytest.raises(ValueError, match="^order must be positive$"):
        cyclic(0)


def test_symmetric_seven_builds_quickly():
    symmetric.cache_clear()
    start = time.perf_counter()
    assert symmetric(7).order == 5040
    assert time.perf_counter() - start < 5


def test_symmetric_eight_has_every_permutation():
    assert symmetric(8).order == 40320


def test_equality_and_hash_ignore_generators_and_name():
    g = PermGroupTarget(3, ((1, 2, 0), (1, 0, 2)))
    assert g == symmetric(3) and hash(g) == hash(symmetric(3))
    assert PermGroupTarget(3, ((0, 2, 1), (2, 1, 0)), "other") == symmetric(3)
    assert PermGroupTarget(3, ((1, 2, 0),)) != symmetric(3)


@pytest.mark.parametrize("bad", [(0, 0, 1), (0, 1), (0, 1, 3)])
def test_non_permutation_generator_raises(bad):
    with pytest.raises(ValueError, match="not a permutation of 0..2"):
        PermGroupTarget(3, ((1, 2, 0), bad))
