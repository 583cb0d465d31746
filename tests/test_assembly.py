"""Direct and recursive assembly, with their reports pinned byte for byte."""

from __future__ import annotations

import collections
import hashlib

import pytest

from devissage import (ComponentNode, Configuration, DisconnectedError,
                       GenId, Presentation, SingularNode, assemble_direct,
                       assemble_recursive, block_order, cyclic,
                       cyclic_presentation, fingerprint, free_edge_generator,
                       free_rank, hom_count, subconfiguration,
                       symmetric, trivial_presentation, word)
from devissage.corpus import (all_trivial_corpus, bouquet, chain,
                              double_bouquet, equivariant_z2, full_corpus,
                              line_cycle, nodal_cubic, trivial_edge, z2_chain,
                              z2_double_bouquet, z2_nodal)
from devissage import assembly
from devissage.serialize import emit_assembly, render_report

PROBES = (symmetric(2), cyclic(3), symmetric(3), cyclic(4))


def z2_lines(n: int, closed: bool) -> Configuration:
    """n lines, each carrying Z/2, consecutive ones meeting in a point: a
    chain, or a cycle when ``closed`` (Z_n then joins X_n and X_1)."""
    comps = tuple(ComponentNode(f"X{i}", cyclic_presentation(f"X{i}", 2))
                  for i in range(1, n + 1))
    sings = tuple(SingularNode(f"Z{i}", trivial_presentation())
                  for i in range(1, (n if closed else n - 1) + 1))
    edges = []
    for i in range(1, len(sings) + 1):
        edges.append(trivial_edge(f"e{i}a", comps[i - 1], sings[i - 1]))
        edges.append(trivial_edge(f"e{i}b", comps[i % n], sings[i - 1]))
    return Configuration(comps, sings, tuple(edges))


def comb(n: int) -> Configuration:
    """A line X0 crossed by n lines, line X_i at its own point Z_i: one
    component meets every singular."""
    comps = tuple(ComponentNode(f"X{i}", trivial_presentation()) for i in range(n + 1))
    sings = tuple(SingularNode(f"Z{i}", trivial_presentation()) for i in range(1, n + 1))
    edges = []
    for i, z in enumerate(sings, 1):
        edges.append(trivial_edge(f"e{i}a", comps[0], z))
        edges.append(trivial_edge(f"e{i}b", comps[i], z))
    return Configuration(comps, sings, tuple(edges))


def nodes(n: int) -> Configuration:
    """One component X1 with n nodes Z_1..Z_n, each node met by two edges."""
    comp = ComponentNode("X1", trivial_presentation())
    sings = tuple(SingularNode(f"Z{i}", trivial_presentation()) for i in range(1, n + 1))
    edges = tuple(trivial_edge(f"e{i}{side}", comp, z)
                  for i, z in enumerate(sings, 1) for side in "ab")
    return Configuration((comp,), sings, edges)


# --- direct ------------------------------------------------------------------

def test_nodal_cubic_assembles_to_free_rank_one():
    res = assemble_direct(nodal_cubic())
    assert res.presentation.generators == (free_edge_generator("e2"),)
    assert res.presentation.relations == ()
    assert res.method == "direct" and res.tree == ("e1",)


def test_z2_nodal_assembles_to_z2_star_z():
    res = assemble_direct(z2_nodal())
    a = GenId("X1", 0)
    x = free_edge_generator("e2")
    assert set(res.presentation.generators) == {a, x}
    assert res.presentation.relations == (word((a, 1), (a, 1)),)
    assert hom_count(res.presentation, symmetric(2)) == 4  # reference.py


def test_equivariant_edges_produce_conjugation_relations():
    res = assemble_direct(equivariant_z2())
    a, b = GenId("X1", 0), GenId("Z1", 0)
    x = free_edge_generator("e2")
    # tree edge e1: a = b; cotree edge e2: a = x^-1 b x
    assert word((a, -1), (b, 1)) in res.presentation.relations
    assert word((a, -1), (x, -1), (b, 1), (x, 1)) in res.presentation.relations


@pytest.mark.parametrize("name,cfg", sorted(all_trivial_corpus().items()))
def test_all_trivial_configs_assemble_free(name, cfg):
    res = assemble_direct(cfg)
    rank = free_rank(cfg)
    assert res.presentation.rank == rank
    assert res.presentation.relations == ()
    for probe in PROBES:
        assert hom_count(res.presentation, probe) == probe.order ** rank


def test_dictionary_tracks_origins():
    res = assemble_direct(z2_nodal())
    a = GenId("X1", 0)
    assert res.dictionary[a].kind == "component"
    assert res.dictionary[free_edge_generator("e2")].kind == "edge"


def test_direct_requires_connected():
    from devissage import ComponentNode, Configuration, trivial_presentation
    cfg = Configuration((ComponentNode("X1", trivial_presentation()),
                         ComponentNode("X2", trivial_presentation())), (), ())
    with pytest.raises(DisconnectedError):
        assemble_direct(cfg)


def test_bare_component_assembles_to_its_own_group():
    from devissage import ComponentNode, Configuration
    group = cyclic_presentation("X1", 4)
    cfg = Configuration((ComponentNode("X1", group),), (), ())
    res = assemble_direct(cfg)
    assert res.presentation.generators == group.generators
    assert res.presentation.relations == group.relations


def test_root_choice_never_changes_fingerprints():
    for cfg in (line_cycle(3), z2_chain(), double_bouquet(2, 2)):
        base = None
        for comp in cfg.components:
            res = assemble_direct(cfg, root=comp.id)
            fp = fingerprint(res.presentation, PROBES)
            assert base is None or fp == base
            base = fp


# --- blocks and their order --------------------------------------------------

def block_ids(cfg: Configuration, sid: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The component ids and edge ids of the block of singular ``sid``."""
    block = subconfiguration(cfg, [sid])
    return tuple(c.id for c in block.components), tuple(e.id for e in block.edges)


def test_single_singular_block_is_whole_config():
    cfg = bouquet(3)
    assert block_ids(cfg, "Z1") == (("X1",), ("e1", "e2", "e3"))
    assert subconfiguration(cfg, ["Z1"]) == cfg


def test_cycle_blocks():
    cfg = line_cycle(2)
    assert block_ids(cfg, "Z1") == (("X1", "X2"), ("e1a", "e1b"))
    assert block_ids(cfg, "Z2") == (("X1", "X2"), ("e2a", "e2b"))


def test_chain_blocks_and_order():
    cfg = chain(3)
    assert block_ids(cfg, "Z1")[0] == ("X1", "X2")
    assert block_ids(cfg, "Z2")[0] == ("X2", "X3")
    assert block_order(cfg) == ("Z1", "Z2")


def test_star_of_singulars_order_is_listed_order():
    cfg = double_bouquet(2, 2)
    assert block_order(cfg) == ("Z1", "Z2")


def test_single_block_order():
    assert block_order(bouquet(3)) == ("Z1",)


def test_block_order_rejects_no_singulars():
    cfg = Configuration((ComponentNode("X1", trivial_presentation()),), (), ())
    with pytest.raises(ValueError, match="^no singulars: the configuration is "
                                         "a single regular component$"):
        block_order(cfg)


class CountingIncidence(dict):
    """An incidence index that adds up the entries of every list it hands out."""

    read = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        self.read += len(out)
        return out


@pytest.mark.parametrize("build", [nodes, comb])
def test_block_order_reads_each_edge_at_most_twice(build):
    # one component meets all 400 singulars: rereading its edges per
    # singular would read 160 000 entries or more
    cfg = build(400)
    index = CountingIncidence(cfg._incident)
    cfg.__dict__["_incident"] = index
    # the first block covers the hub, which reaches every other singular
    assert block_order(cfg) == tuple(sorted(s.id for s in cfg.singulars))
    assert index.read <= 2 * len(cfg.edges)


def test_subconfiguration_induced():
    cfg = chain(3)
    sub = subconfiguration(cfg, ["Z1"])
    assert {c.id for c in sub.components} == {"X1", "X2"}
    assert [s.id for s in sub.singulars] == ["Z1"]
    assert {e.id for e in sub.edges} == {"e1a", "e1b"}


# --- recursive ---------------------------------------------------------------

def test_recursive_delegates_when_one_singular():
    cfg = bouquet(3)
    assert assemble_recursive(cfg) == assemble_direct(cfg)


@pytest.mark.parametrize("cfg_factory", [
    lambda: line_cycle(2), lambda: line_cycle(3), lambda: line_cycle(4),
    lambda: line_cycle(5), lambda: chain(3), lambda: chain(4),
    lambda: double_bouquet(2, 2), lambda: z2_chain(),
    lambda: z2_double_bouquet()])
def test_recursive_matches_direct_fingerprints(cfg_factory):
    cfg = cfg_factory()
    fp_direct = fingerprint(assemble_direct(cfg).presentation, PROBES)
    fp_rec = fingerprint(assemble_recursive(cfg).presentation, PROBES)
    assert fp_direct == fp_rec


def test_cycle2_recursive_is_free_rank_one():
    res = assemble_recursive(line_cycle(2))
    assert res.method == "recursive"
    assert res.presentation.relations == ()
    assert res.presentation.rank == 1
    assert hom_count(res.presentation, symmetric(3)) == 6


def test_chain3_recursive_is_trivial_group():
    res = assemble_recursive(chain(3))
    for probe in PROBES:
        assert hom_count(res.presentation, probe) == 1


def test_recursive_dictionary_marks_copies_and_conjugators():
    res = assemble_recursive(z2_double_bouquet())
    kinds = {o.kind for o in res.dictionary.values()}
    assert "component" in kinds and "edge" in kinds
    copies = [o for o in res.dictionary.values()
              if o.kind == "component" and o.detail.startswith("copy@")]
    assert copies, "shared component should appear as a renamed copy"
    assert res.tree is None


# --- method agreement over the full corpus (cheap probes only) ---------------

@pytest.mark.parametrize("name,cfg", sorted(full_corpus().items()))
def test_methods_agree_everywhere(name, cfg):
    small = (symmetric(2), symmetric(3))
    direct = assemble_direct(cfg)
    recursive = assemble_recursive(cfg)
    assert fingerprint(direct.presentation, small) == \
        fingerprint(recursive.presentation, small)


# --- golden reports ------------------------------------------------------------

# Frozen sha256 digests of render_report(emit_assembly(...)) per route: a
# reordered generator, relator or dictionary entry changes one, which the
# fingerprint comparisons above would not notice.
GOLDEN = {
    ("bouquet3", "direct"): "d309e50fa1f5c8041edf90a6bbd306dd2d8779730fc61cd2e226da180b2ae039",
    ("bouquet3", "recursive"): "d309e50fa1f5c8041edf90a6bbd306dd2d8779730fc61cd2e226da180b2ae039",
    ("bouquet4", "direct"): "5f123d3d0a450bf962da5a6ce4c1d16de7fe7c57b667a0a5756e080ee906cadc",
    ("bouquet4", "recursive"): "5f123d3d0a450bf962da5a6ce4c1d16de7fe7c57b667a0a5756e080ee906cadc",
    ("chain3", "direct"): "a83ae0eb539f505a14532fb766053325d532e2a3f17165f71016ba0e02b5ccc0",
    ("chain3", "recursive"): "bae3ec9cbe11c8bf65e592fdea9a06053d336121300d192af2097de4971b7148",
    ("cycle2", "direct"): "53225765b05e1ac07f788d4a7c77a0bea6dfa2871952b0e4fa28b4af6de8e826",
    ("cycle2", "recursive"): "2e94d6c7b097bdf83cceb2c3e0b84d98247fe104d52758983129d414f9f0f9f6",
    ("cycle3", "direct"): "d064e84ca81e0f5cfe7bbfb393676be9f1c1c13087414430561ea9e13af6ae8a",
    ("cycle3", "recursive"): "8a8fe77d03adeca1c800440e948f1dc05f1cf084fcb18fd5d53f08bb53441c03",
    ("cycle4", "direct"): "9a95f07d0aaffe4b3b30661e20a57f623a4c22323e500ac497990054a3bde8c5",
    ("cycle4", "recursive"): "5250088c224b6019f25d19349cac1614f2f817cdbd576d9b665937fe5fc5923c",
    ("cycle5", "direct"): "5d82283ab7821e2ba218fef0a49d456c44aae6968a9cf12be3076c368ba08218",
    ("cycle5", "recursive"): "cc0dfdaafad757b48d37fd0fc60c42be0a8a21ad5e426e207ec26383afd6e239",
    ("double_bouquet22", "direct"): "0ec35553ca7c7e3de7663ce313cc703ee4934b585f03eb5561784a9447cf2450",
    ("double_bouquet22", "recursive"): "5f64e7ff7adf51e6d92f3ba83e9048cced8528f84539f30bafe39c75312b864f",
    ("equivariant_z2", "direct"): "89ad36b6e4650b3e84e9a19285787e7c464b7d7764fd433ba2a8e8dc957068d2",
    ("equivariant_z2", "recursive"): "89ad36b6e4650b3e84e9a19285787e7c464b7d7764fd433ba2a8e8dc957068d2",
    ("nodal_cubic", "direct"): "ed3c73361995d9c59ea68f3fca0cb64d3ee5318478f127a1b0461b74ffb6a17d",
    ("nodal_cubic", "recursive"): "ed3c73361995d9c59ea68f3fca0cb64d3ee5318478f127a1b0461b74ffb6a17d",
    ("s3_nodal", "direct"): "043732eca52c2fa8fcf88a028ed8f171f5b175da08605c362763a61b19c49703",
    ("s3_nodal", "recursive"): "043732eca52c2fa8fcf88a028ed8f171f5b175da08605c362763a61b19c49703",
    ("squared_interface", "direct"): "49232266ef94968ac304844d0c6c51768c66d6fd0c05d96bfcb342a7af810b15",
    ("squared_interface", "recursive"): "49232266ef94968ac304844d0c6c51768c66d6fd0c05d96bfcb342a7af810b15",
    ("star3", "direct"): "0b64b7f644a7da00033ddb60d843434a736904b128b7182e2c69a636a9d46b5e",
    ("star3", "recursive"): "0b64b7f644a7da00033ddb60d843434a736904b128b7182e2c69a636a9d46b5e",
    ("z2_chain", "direct"): "b629a7c25eedeb8eac4f1ddc6247bf6659412bcd5cb89b67ac91a93ab00a9cce",
    ("z2_chain", "recursive"): "8b4a4585a6d5afd0c2428b52aad0e580631a5681274b82a01c6f38eda53e906a",
    ("z2_double_bouquet", "direct"): "c0acf7fa32dd870b0fa79b446f78be67524e548794106a8b4e133fd5c53915fd",
    ("z2_double_bouquet", "recursive"): "204574818fec7bda32ec80332025e073ac3a4e9decfc45d3103a4e1ae46317b7",
    ("z2_nodal", "direct"): "d1151624c7e6828ba83eb9c5d2f3686134e955b74454eaf0c68b4b118d718f57",
    ("z2_nodal", "recursive"): "d1151624c7e6828ba83eb9c5d2f3686134e955b74454eaf0c68b4b118d718f57",
    ("line_cycle60", "direct"): "018e7a70db1534f7129702977e4fdc06a12f7459360d13bd71d470495f6e8e81",
    ("line_cycle60", "recursive"): "10607c01aa57c241a5c2a0f95fdb80863de836e2726918afe53a46d10dd2b9bd",
    # the closing block Z4 shares the two nontrivial components X4 and X1
    ("z2_line_cycle4", "direct"): "5efae32dbffa069ec1d83ebec278d32ee8cd2d8f73e4f0a560c258e907823559",
    ("z2_line_cycle4", "recursive"): "82ac779a15e31caa2bc0f01d5a3a7d94324a392cba2cf0636ca97fa9bb7f2d1e",
}


def _golden_cases():
    cfgs = dict(full_corpus())
    cfgs["line_cycle60"] = line_cycle(60)
    cfgs["z2_line_cycle4"] = z2_lines(4, closed=True)
    for (name, route), digest in sorted(GOLDEN.items()):
        yield pytest.param(cfgs[name], route, digest, id=f"{name}-{route}")


@pytest.mark.parametrize("cfg,route,digest", _golden_cases())
def test_assembly_report_matches_golden(cfg, route, digest):
    assemble = assemble_direct if route == "direct" else assemble_recursive
    text = render_report(emit_assembly(assemble(cfg)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_golden_covers_whole_corpus():
    assert {name for name, _ in GOLDEN} == \
        set(full_corpus()) | {"line_cycle60", "z2_line_cycle4"}


# --- long configurations -----------------------------------------------------

def test_recursive_assembly_of_long_cycle_does_not_recurse():
    # one level per singular used to exceed the default recursion limit
    cfg = line_cycle(1000)
    res = assemble_recursive(cfg)
    assert res.presentation.rank == 1
    assert res.presentation.relations == ()
    assert fingerprint(res.presentation, PROBES) == \
        fingerprint(assemble_direct(cfg).presentation, PROBES)


def test_recursive_assembly_checks_a_linear_amount(monkeypatch):
    # Sum of the generators and relators every Presentation built during
    # the fold checks: linear in the number of blocks when the presentation
    # is built once, quadratic when each step rebuilds the accumulated one.
    cfgs = {n: z2_lines(n, closed=False) for n in (100, 400)}
    checked = [0]
    original = Presentation.__post_init__

    def counting(self):
        checked[0] += len(self.generators) + len(self.relations)
        original(self)

    monkeypatch.setattr(Presentation, "__post_init__", counting)
    cost = {}
    for n, cfg in cfgs.items():
        checked[0] = 0
        assemble_recursive(cfg)
        cost[n] = checked[0]
    assert cost[400] < 5 * cost[100]


WORK_CONFIGS = {**full_corpus(), "line_cycle40": line_cycle(40)}


@pytest.mark.parametrize("name", sorted(WORK_CONFIGS))
def test_recursive_assembly_splits_once_and_assembles_each_block_once(name, monkeypatch):
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (assembly.block_order, assembly.assemble_direct, assembly._assemble):
        monkeypatch.setattr(assembly, fn.__name__, counted(fn))
    cfg = WORK_CONFIGS[name]
    assemble_recursive(cfg)
    blocks = len(cfg.singulars)
    # blocks are read from the index, so the direct route runs only when
    # there is no block to split
    assert calls == ({"block_order": 1, "_assemble": blocks} if blocks > 1
                     else {"assemble_direct": 1, "_assemble": 1})


@pytest.mark.parametrize("node,namespace", [
    ("Z2", "X1"),    # a later block reuses an earlier block's namespace
    ("X3", "F@Z2"),  # a block's own namespace is its conjugator namespace
])
def test_recursive_rejects_namespace_collisions(node, namespace):
    # unvalidated library input: validate_config rejects both
    cfg = z2_lines(3, closed=True)
    group = cyclic_presentation(namespace, 2)
    cfg = Configuration(
        tuple(ComponentNode(c.id, group) if c.id == node else c for c in cfg.components),
        tuple(SingularNode(s.id, group) if s.id == node else s for s in cfg.singulars),
        cfg.edges)
    with pytest.raises(ValueError, match="namespace collision"):
        assemble_recursive(cfg)
