"""Acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance: all quantities are integers, so equality
is exact; runtime budgets are wall-clock.  The frozen constants come from
the naive oracles in tests/reference.py, run before the package was built.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache


from devissage import (Coproduct, Leaf, Verdict, assemble_direct,
                       assemble_recursive, combine,
                       count_transitive_actions, cyclic, discreteness_verdict,
                       enumerate_homs, enumerate_tuples, fingerprint,
                       fold_verdicts, free_rank, hom_count, pullback,
                       symmetric, van_kampen_forms, verify_hom)
from devissage.corpus import all_trivial_corpus, full_corpus
from test_vankampen import sample_inputs

DEFAULT_PROBES = (cyclic(2), cyclic(3), symmetric(3))

CORPUS = full_corpus()
DEGREE_CAP = {name: (4 if name == "s3_nodal" else 5) for name in CORPUS}


def report(number: int, label: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


@lru_cache(maxsize=None)
def census(name: str, degree: int) -> int:
    return len(enumerate_tuples(CORPUS[name], degree))


@lru_cache(maxsize=None)
def direct(name: str):
    return assemble_direct(CORPUS[name])


def test_criterion_1_rank_formula():
    """Free rank equals E - V + 1 and all-trivial assemblies are free; < 1 s."""
    start = time.monotonic()
    trivial = all_trivial_corpus()
    assert len(trivial) >= 10
    ok = True
    for name, cfg in sorted(trivial.items()):
        rank = free_rank(cfg)
        ok &= rank == len(cfg.edges) - len(cfg.components) - len(cfg.singulars) + 1
        pres = assemble_direct(cfg).presentation
        for probe in DEFAULT_PROBES:
            ok &= hom_count(pres, probe) == probe.order ** rank
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, f"rank formula on {len(trivial)} configs in {elapsed:.2f}s", ok)


def test_criterion_2_category_equivalence():
    """Census count equals transitive-rep count for every corpus config; < 60 s."""
    start = time.monotonic()
    z2_configs = [n for n in CORPUS if CORPUS[n].components[0].group.relations
                  and n.startswith("z2")]
    assert len(z2_configs) >= 2 and "s3_nodal" in CORPUS
    ok = True
    for name in sorted(CORPUS):
        pres = direct(name).presentation
        for d in range(1, DEGREE_CAP[name] + 1):
            ok &= census(name, d) == count_transitive_actions(pres, d)
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(2, f"census = reps for {len(CORPUS)} configs in {elapsed:.1f}s", ok)


def test_criterion_3_specific_counts():
    """Frozen oracle constants matched by both pipeline paths."""
    ok = True
    # nodal cubic: exactly one connected cover in each degree 1..5
    for d in range(1, 6):
        ok &= census("nodal_cubic", d) == 1
        ok &= count_transitive_actions(direct("nodal_cubic").presentation, d) == 1
    # the 3-edge rank-2 config: exactly 3 connected degree-2 covers
    ok &= census("bouquet3", 2) == 3
    ok &= count_transitive_actions(direct("bouquet3").presentation, 2) == 3
    # the Z/2-component nodal config (Z/2 * Z): exactly 3 connected degree-2 covers
    ok &= census("z2_nodal", 2) == 3
    ok &= count_transitive_actions(direct("z2_nodal").presentation, 2) == 3
    report(3, "frozen cover counts on both paths", ok)


def test_criterion_4_vk_form_coherence():
    """Four forms share fingerprints; witness round-trips fix every hom; < 10 s."""
    start = time.monotonic()
    inputs = sample_inputs()
    sizes = {len(inp.interfaces) for inp in inputs}
    assert len(inputs) >= 5 and sizes == {1, 2, 3}
    ok = True
    for inp in inputs:
        forms = van_kampen_forms(inp)
        fps = [fingerprint(f, DEFAULT_PROBES)
               for f in (forms.form_i, forms.form_ii, forms.form_iii, forms.form_iv)]
        ok &= fps.count(fps[0]) == 4
        for other, wit in zip((forms.form_ii, forms.form_iii, forms.form_iv),
                              forms.witnesses):
            for probe in DEFAULT_PROBES:
                for h in enumerate_homs(forms.form_i, probe):
                    back = pullback(h, wit.backward)
                    ok &= verify_hom(back)
                    ok &= pullback(back, wit.forward) == h
                for h in enumerate_homs(other, probe):
                    fwd = pullback(h, wit.forward)
                    ok &= verify_hom(fwd)
                    ok &= pullback(fwd, wit.backward) == h
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    report(4, f"{len(inputs)} van Kampen inputs in {elapsed:.2f}s", ok)


def test_criterion_5_method_agreement():
    """Direct and recursive assemblies agree exactly wherever both apply."""
    ok = True
    multi = [name for name in sorted(CORPUS) if len(CORPUS[name].singulars) >= 2]
    assert multi
    for name in multi:
        rec = assemble_recursive(CORPUS[name])
        ok &= (fingerprint(direct(name).presentation, DEFAULT_PROBES)
               == fingerprint(rec.presentation, DEFAULT_PROBES))
        for d in range(1, DEGREE_CAP[name] + 1):
            ok &= census(name, d) == count_transitive_actions(rec.presentation, d)
    report(5, f"direct = recursive on {len(multi)} multi-singular configs", ok)


def test_criterion_6_choice_independence():
    """Varying the BFS root changes no fingerprint and no cover count."""
    ok = True
    for name in sorted(CORPUS):
        cfg = CORPUS[name]
        base_fp = None
        base_counts = None
        for comp in cfg.components:
            res = assemble_direct(cfg, root=comp.id)
            fp = fingerprint(res.presentation, DEFAULT_PROBES)
            counts = tuple(count_transitive_actions(res.presentation, d)
                           for d in (1, 2, 3))
            if base_fp is None:
                base_fp, base_counts = fp, counts
            ok &= fp == base_fp and counts == base_counts
        for d in (1, 2, 3):
            ok &= census(name, d) == base_counts[d - 1]
    report(6, "all BFS roots give equal fingerprints and cover counts", ok)


def test_criterion_7_discreteness_calculus():
    """Exhaustive three-valued fold on trees up to 6 leaves; biconditionals."""
    verdicts = (Verdict.DISCRETE, Verdict.NOT_DISCRETE, Verdict.UNKNOWN)

    def shapes(leaves: int):
        if leaves == 1:
            yield "leaf"
            return
        for k in range(1, leaves):
            for left in shapes(k):
                for right in shapes(leaves - k):
                    yield (left, right)

    def fill(shape, it):
        if shape == "leaf":
            return Leaf(next(it))
        return Coproduct((fill(shape[0], it), fill(shape[1], it)))

    ok = True
    for leaves in range(1, 7):
        for shape in shapes(leaves):
            for assignment in itertools.product(verdicts, repeat=leaves):
                ok &= fold_verdicts(fill(shape, iter(assignment))) == combine(assignment)

    # the coproduct biconditional on a real configuration
    cfg = CORPUS["cycle3"]
    all_d = {c.id: Verdict.DISCRETE for c in cfg.components}
    ok &= discreteness_verdict(cfg, all_d).overall == Verdict.DISCRETE
    for cid in list(all_d):
        flipped = dict(all_d)
        flipped[cid] = Verdict.NOT_DISCRETE
        ok &= discreteness_verdict(cfg, flipped).overall == Verdict.NOT_DISCRETE
    report(7, "three-valued conjunction semantics, trees up to 6 leaves", ok)
