"""The exported library readers answer malformed input with a result or a
ValueError carrying a one-line message, never another exception.

Inputs start from valid objects (census tuples of small corpus
configurations, the identity isomorphism, each tuple's representation, a
full verdict map) and receive a few random mutations: entries dropped or
added, fibers resized, gluings truncated or extended, and images or
gluings replaced by other permutations or by tuples that may not be
permutations.
"""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from devissage import (DescentTuple, GenId, Hom, TupleIso, assemble_direct,
                       discreteness_verdict, enumerate_tuples, eval_word, gen,
                       hom, is_tuple_iso, pullback, rep_of_tuple, symmetric,
                       tuple_components, tuple_of_rep, validate_tuple, verify_hom)
from devissage.corpus import equivariant_z2, nodal_cubic, s3_nodal, z2_chain, z2_nodal

CONFIGS = [z2_nodal(), equivariant_z2(), s3_nodal(), z2_chain()]
# Per configuration, its direct assembly with each census tuple of degree 2 or 3.
CASES = [[(cfg, assemble_direct(cfg), t) for d in (2, 3) for t in enumerate_tuples(cfg, d)]
         for cfg in CONFIGS]
# Message forms of validate_tuple's two kinds after the shape problems.
RELATOR = re.compile(r": relator #\d+ does not act trivially$")
EQUIVARIANCE = re.compile(r": gluing is not equivariant at generator ")


def answer(call):
    """``call()``, or the ValueError it raised once its message is checked
    to be one nonempty line; any other exception fails the test."""
    try:
        return call()
    except ValueError as exc:
        assert str(exc) and "\n" not in str(exc)
        return exc


def maybe_perm(size: int):
    """A permutation of ``size`` points, or a tuple of about that length
    that may repeat, skip or leave the points."""
    return st.one_of(st.permutations(range(size)).map(tuple),
                     st.lists(st.integers(-1, size + 1), min_size=max(size - 1, 0),
                              max_size=size + 1).map(tuple))


def mutate_entries(draw, entries: dict, values, new_key) -> None:
    """Drop an entry, or set ``new_key`` or an existing entry to a value
    drawn from ``values``."""
    op = draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "add" or not entries:
        entries[new_key] = draw(values)
    elif op == "drop":
        del entries[draw(st.sampled_from(sorted(entries, key=str)))]
    else:
        entries[draw(st.sampled_from(sorted(entries, key=str)))] = draw(values)


@st.composite
def mutated_tuples(draw):
    """A census tuple after one or two mutations, and an identity isomorphism
    that may be mutated too.  Half the tuples receive only permutations in
    place of images and gluings, which keeps their shape and so reaches the
    relator and equivariance checks."""
    cfg, res, base = draw(st.sampled_from(draw(st.sampled_from(CASES))))
    fibers = {kind: {k: [size, dict(action)] for k, (size, action) in node_fibers.items()}
              for kind, node_fibers in (("c", base.component_fibers),
                                        ("s", base.singular_fibers))}
    gluings = list(base.gluings)
    d = base.component_fibers[cfg.components[0].id][0]
    ops = ["permute"] if draw(st.booleans()) else [
        "permute", "fiber", "resize", "action", "gluing", "gluings"]
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(ops))
        kind = draw(st.sampled_from("cs"))
        entries = fibers[kind]
        names = sorted(entries)
        if op == "permute":
            # (size, container, key) of every generator image and gluing
            slots = [(size, action, g) for node_fibers in fibers.values()
                     for size, action in node_fibers.values() for g in action]
            slots += [(d, gluings, i) for i in range(len(gluings))]
            size, container, key = draw(st.sampled_from(slots))
            container[key] = draw(st.permutations(range(size)).map(tuple))
        elif op == "fiber":
            mutate_entries(draw, entries, st.builds(lambda: [d, {}]), kind.upper() + "9")
        elif op == "resize" and names:
            entries[draw(st.sampled_from(names))][0] += draw(st.sampled_from([-1, 1]))
        elif op == "action" and names:
            size, action = entries[draw(st.sampled_from(names))]
            mutate_entries(draw, action, maybe_perm(size), GenId("Q", 0))
        elif op == "gluing" and gluings:
            gluings[draw(st.integers(0, len(gluings) - 1))] = draw(maybe_perm(d))
        elif op == "gluings":
            drop = gluings and draw(st.booleans())
            gluings = gluings[:-1] if drop else [*gluings, base.gluings[0]]
    t = DescentTuple({k: (size, action) for k, (size, action) in fibers["c"].items()},
                     {k: (size, action) for k, (size, action) in fibers["s"].items()},
                     tuple(gluings))
    iso = {kind: {k: tuple(range(d)) for k in node_fibers}
           for kind, node_fibers in (("c", base.component_fibers),
                                     ("s", base.singular_fibers))}
    if draw(st.booleans()):
        mutate_entries(draw, iso[draw(st.sampled_from("cs"))], maybe_perm(d), "W9")
    return cfg, res, base, t, TupleIso(iso["c"], iso["s"])


@settings(deadline=None, max_examples=50)
@given(mutated_tuples())
def test_tuple_readers_agree_on_mutated_tuples(case):
    cfg, res, base, t, iso = case
    problems = validate_tuple(cfg, t)
    kinds = {"relator" if RELATOR.search(p) else
             "equivariance" if EQUIVARIANCE.search(p) else "shape" for p in problems}
    assert len(kinds) <= 1  # validate_tuple reports one kind of problem
    blocks = answer(lambda: tuple_components(cfg, t))
    assert isinstance(blocks, ValueError) == (kinds == {"shape"})
    if isinstance(blocks, ValueError):
        assert str(blocks) == problems[0]
    rep = answer(lambda: rep_of_tuple(cfg, res, t))
    if problems:
        assert str(rep) == problems[0]
    else:
        assert verify_hom(rep)
        assert validate_tuple(cfg, tuple_of_rep(cfg, res, rep)) == []
    for source, target in ((base, t), (t, base)):
        same = is_tuple_iso(cfg, source, target, iso)
        assert isinstance(same, bool)
        assert not (same and kinds == {"shape"})


@st.composite
def mutated_images(draw):
    cfg, res, t = draw(st.sampled_from(draw(st.sampled_from(CASES))))
    d = t.component_fibers[cfg.components[0].id][0]
    images = rep_of_tuple(cfg, res, t).images_dict()
    for _ in range(draw(st.integers(0, 2))):
        mutate_entries(draw, images, maybe_perm(d), GenId("Q", 0))
    return cfg, res, d, images


@settings(deadline=None, max_examples=50)
@given(mutated_images())
def test_hom_readers_answer_mutated_images(case):
    cfg, res, d, images = case
    p = res.presentation
    for rel in p.relations:
        answer(lambda: eval_word(rel, images, d))
    words = hom(p, p, {g: gen(g) for g in p.generators})
    # A Hom built directly skips hom()'s checks, so the readers meet the
    # images as they are.
    direct = Hom(p, symmetric(d), tuple(images.items()))
    assert isinstance(answer(lambda: verify_hom(direct)), (bool, ValueError))
    answer(lambda: pullback(direct, words))
    t = answer(lambda: tuple_of_rep(cfg, res, direct))
    assert isinstance(t, ValueError) or validate_tuple(cfg, t) == []
    checked = answer(lambda: hom(p, symmetric(d), images))
    if isinstance(checked, Hom):
        assert isinstance(verify_hom(checked), bool)
        answer(lambda: pullback(checked, words))
        t = answer(lambda: tuple_of_rep(cfg, res, checked))
        assert isinstance(t, ValueError) or validate_tuple(cfg, t) == []


def test_tuple_of_rep_names_a_missing_image():
    # x.e2.0, the free generator of the cotree edge, is in no relator
    cfg = nodal_cubic()
    res = assemble_direct(cfg)
    rep = Hom(res.presentation, symmetric(2), ())
    assert str(answer(lambda: tuple_of_rep(cfg, res, rep))) == "missing image for x.e2.0"


VERDICTS = st.sampled_from(["discrete", "not-discrete", "unknown", "bogus", "", None])


@settings(deadline=None, max_examples=50)
@given(st.sampled_from(CONFIGS), st.data())
def test_discreteness_verdict_answers_mutated_verdict_maps(cfg, data):
    restrictions = {n.id: "discrete" for n in cfg.components}
    restrictions |= {n.id: "discrete" for n in cfg.singulars if n.group.generators}
    for _ in range(data.draw(st.integers(0, 2))):
        mutate_entries(data.draw, restrictions, VERDICTS, "W9")
    answer(lambda: discreteness_verdict(cfg, restrictions))
