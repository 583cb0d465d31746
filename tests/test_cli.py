"""Config parsing, report determinism, CLI exit codes."""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from devissage import (ConfigParseError, GenId, emit_config, hom_count,
                       parse_config_text, symmetric)
from devissage.cli import main, parse_probes, run
from devissage.corpus import bouquet, equivariant_z2, line_cycle, nodal_cubic
from devissage.presentations import _in_row_lattice, _row_echelon
from devissage.serialize import ConfigSemanticError, render_report

NODAL = json.dumps({
    "components": [{"id": "X1", "group": {"kind": "trivial"}}],
    "singulars": [{"id": "Z1", "group": {"kind": "trivial"}}],
    "edges": [
        {"id": "e1", "component": "X1", "singular": "Z1"},
        {"id": "e2", "component": "X1", "singular": "Z1"},
    ],
})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- parsing -----------------------------------------------------------------

def test_parse_nodal_cubic():
    cfg = parse_config_text(NODAL)
    assert [c.id for c in cfg.components] == ["X1"]
    assert [s.id for s in cfg.singulars] == ["Z1"]
    assert [e.id for e in cfg.edges] == ["e1", "e2"]


def test_unknown_field_rejected():
    doc = json.loads(NODAL)
    doc["edges"][0]["colour"] = "blue"
    with pytest.raises(ConfigParseError, match="colour"):
        parse_config_text(json.dumps(doc))


def test_empty_file_is_a_parse_error():
    with pytest.raises(ConfigParseError, match="line 1"):
        parse_config_text("")


def test_missing_field_named():
    with pytest.raises(ConfigParseError, match="singulars"):
        parse_config_text('{"components": [], "edges": []}')


def test_presentation_group_words():
    cfg = parse_config_text(json.dumps({
        "components": [{"id": "X1", "group": {
            "kind": "presentation", "generators": ["a", "b"],
            "relations": [["a", "a"], ["b", "-a"]]}}],
        "singulars": [{"id": "Z1", "group": {"kind": "trivial"}}],
        "edges": [{"id": "e1", "component": "X1", "singular": "Z1"},
                  {"id": "e2", "component": "X1", "singular": "Z1"}],
    }))
    group = cfg.components[0].group
    assert group.generators == (GenId("X1", 0), GenId("X1", 1))
    assert len(group.relations) == 2


def test_unknown_generator_in_relation():
    with pytest.raises(ConfigParseError, match="'z'"):
        parse_config_text(json.dumps({
            "components": [{"id": "X1", "group": {
                "kind": "presentation", "generators": ["a"],
                "relations": [["z"]]}}],
            "singulars": [], "edges": [],
        }))


def test_finite_group_is_converted_to_cayley_presentation():
    cfg = parse_config_text(json.dumps({
        "components": [{"id": "X1", "group": {
            "kind": "finite", "degree": 3,
            "generators": [[1, 0, 2], [0, 2, 1]]}}],
        "singulars": [{"id": "Z1", "group": {"kind": "trivial"}}],
        "edges": [{"id": "e1", "component": "X1", "singular": "Z1"},
                  {"id": "e2", "component": "X1", "singular": "Z1"}],
    }))
    group = cfg.components[0].group
    assert group.rank == 2  # the two listed permutations
    assert len(group.relations) == 7  # |G|(k-1)+1 non-tree Cayley-graph edges
    # the presentation of S3 still has 10 homs into S3 (reference.py)
    assert hom_count(group, symmetric(3)) == 10


def test_omitted_psi_requires_trivial_edge_group():
    with pytest.raises(ConfigParseError, match="omitted"):
        parse_config_text(json.dumps({
            "components": [{"id": "X1", "group": {"kind": "trivial"}}],
            "singulars": [{"id": "Z1", "group": {"kind": "trivial"}}],
            "edges": [{"id": "e1", "component": "X1", "singular": "Z1",
                       "group": {"kind": "presentation", "generators": ["c"],
                                 "relations": []}}],
        }))


def test_roundtrip_parse_emit_parse():
    for cfg in (parse_config_text(NODAL), equivariant_z2(), line_cycle(2)):
        emitted = emit_config(cfg)
        again = parse_config_text(json.dumps(emitted))
        assert emit_config(again) == emitted
    # and for a config built by the CLI schema, the round trip is identity
    cfg = parse_config_text(NODAL)
    assert parse_config_text(json.dumps(emit_config(cfg))) == cfg


# --- probes ------------------------------------------------------------------

def test_parse_probes():
    probes = parse_probes("Z2,Z/3,S3")
    assert [str(p) for p in probes] == ["Z2", "Z3", "S3"]


def test_bad_probe_rejected():
    from devissage.cli import UsageError
    with pytest.raises(UsageError):
        parse_probes("Q8")


# --- run + determinism -------------------------------------------------------

def test_report_is_byte_identical_across_runs():
    cfg = nodal_cubic()
    a, _ = run(cfg, verify=True, max_degree=3)
    b, _ = run(cfg, verify=True, max_degree=3)
    assert render_report(a) == render_report(b)


def test_verification_table_present_iff_verify():
    cfg = nodal_cubic()
    with_table, _ = run(cfg, verify=True, max_degree=2)
    without, _ = run(cfg, verify=False)
    assert "verification" in with_table and "verification" not in without


def test_run_rejects_verification_below_degree_one():
    # main rejects --max-degree 0 itself; the library call must not pass
    # a verification with no rows
    with pytest.raises(ValueError, match="^max_degree must be at least 1$"):
        run(nodal_cubic(), verify=True, max_degree=0)


def test_run_reports_both_methods_when_two_singulars():
    report, passed = run(line_cycle(2), verify=True, max_degree=3)
    assert passed
    assert set(report["assemblies"]) == {"direct", "recursive"}
    assert report["verification"]["methods_agree"]


def test_method_direct_reports_only_the_direct_route(tmp_path, capsys):
    path = write(tmp_path, "c.json", json.dumps(emit_config(line_cycle(2))))
    assert main([path, "--method", "direct"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["assemblies"]) == ["direct"]
    assert list(report["fingerprints"]) == ["direct"]


def test_method_both_is_the_default(tmp_path, capsys):
    path = write(tmp_path, "c.json", json.dumps(emit_config(line_cycle(2))))
    assert main([path, "--method", "both", "--verify", "--max-degree", "3"]) == 0
    both = capsys.readouterr().out
    assert main([path, "--verify", "--max-degree", "3"]) == 0
    assert capsys.readouterr().out == both
    assert set(json.loads(both)["assemblies"]) == {"direct", "recursive"}


def test_discreteness_section():
    report, _ = run(nodal_cubic(), restrictions={"X1": "discrete"})
    assert report["discreteness"]["overall"] == "discrete"


def test_fast_path_reports_free_rank_two_presentation():
    from devissage.corpus import bouquet
    report, _ = run(bouquet(3))
    fast = report["assemblies"]["direct"]
    assert report["rank"] == 2
    assert len(fast["presentation"]["generators"]) == 2
    assert fast["presentation"]["relations"] == []


# --- exit codes --------------------------------------------------------------

def test_exit_zero_on_pass(tmp_path, capsys):
    path = write(tmp_path, "c.json", NODAL)
    assert main([path, "--verify", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rank"] == 1


def test_exit_one_on_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{")
    assert main([path]) == 1
    assert "parse error" in capsys.readouterr().err


def _malformed(path: tuple, value) -> str:
    doc = json.loads(NODAL)
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    return json.dumps(doc)


FINITE = {"kind": "finite", "degree": 2, "generators": [[1, 0]]}

MALFORMED = {
    "finite-generators-number": (("components", 0, "group"),
                                 {**FINITE, "generators": 5}),
    "finite-degree-true": (("components", 0, "group"), {**FINITE, "degree": True}),
    "finite-permutation-of-bools": (("components", 0, "group"),
                                    {**FINITE, "generators": [[True, False]]}),
    "finite-permutation-of-strings": (("components", 0, "group"),
                                      {**FINITE, "generators": [["1", 0]]}),
    "presentation-relations-number": (("components", 0, "group"),
                                      {"kind": "presentation", "generators": ["a"],
                                       "relations": 5}),
    "presentation-generator-list": (("components", 0, "group"),
                                    {"kind": "presentation", "generators": [["a"]]}),
    "component-id-number": (("components", 0, "id"), 7),
    "singular-id-number": (("singulars", 0, "id"), 7),
    "edge-id-number": (("edges", 0, "id"), 7),
    "components-number": (("components",), 3),
    "singulars-string": (("singulars",), "Z1"),
    "edges-object": (("edges",), {"e1": {}}),
    "component-ref-list": (("edges", 0, "component"), ["X1"]),
    "singular-ref-number": (("edges", 0, "singular"), 1),
}


@pytest.mark.parametrize("path,value", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_field_is_a_parse_error(tmp_path, capsys, path, value):
    text = _malformed(path, value)
    with pytest.raises(ConfigParseError):
        parse_config_text(text)
    assert main([write(tmp_path, "c.json", text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("devissage: parse error: ") and err.count("\n") == 1


PRESENTATION = {"kind": "presentation", "generators": ["a"]}

PARSE_MESSAGES = {
    "item-not-object": (("components", 0), 5, "components[0]: expected an object"),
    "duplicate-generators": (("components", 0, "group"),
                             {**PRESENTATION, "generators": ["a", "a"]},
                             "components[0]: generators must be a list of distinct names"),
    "unknown-group-kind": (("components", 0, "group"), {"kind": "cyclic"},
                           "components[0]: unknown group kind 'cyclic'"),
    "word-not-array": (("components", 0, "group"), {**PRESENTATION, "relations": ["a"]},
                       "components[0]: relation #0: a word is an array of signed names"),
    "letter-not-string": (("components", 0, "group"), {**PRESENTATION, "relations": [[5]]},
                          "components[0]: relation #0: bad letter 5"),
    "psi-not-object": (("edges", 0, "psi"), ["a"],
                       "edges[0]: psi: expected an object mapping names to words"),
}


@pytest.mark.parametrize("path,value,message", PARSE_MESSAGES.values(),
                         ids=PARSE_MESSAGES.keys())
def test_parse_error_names_its_place(path, value, message):
    with pytest.raises(ConfigParseError) as exc:
        parse_config_text(_malformed(path, value))
    assert str(exc.value) == f"<config>: {message}"


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
    assert main([path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("devissage: parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1, 2]", "{", "[" * 100000 + "]" * 100000])
def test_malformed_verdicts_file_exits_one(tmp_path, capsys, text):
    cfg_path = write(tmp_path, "c.json", NODAL)
    verdicts = write(tmp_path, "v.json", text)
    assert main([cfg_path, "--discreteness", verdicts]) == 1
    err = capsys.readouterr().err
    assert err.startswith("devissage: error reading verdicts: ") and err.count("\n") == 1


BAD_FLAGS = {
    "probes-nope": ["--probes", "nope"],
    "probes-S7": ["--probes", "S7"],
    "probes-Z0": ["--probes", "Z0"],
    "probes-empty": ["--probes", ""],
    "max-degree-0": ["--max-degree", "0"],
    "max-degree-x": ["--max-degree", "x"],
    "method-recursive": ["--method", "recursive"],
    "bogus": ["--bogus"],
}


@pytest.mark.parametrize("args", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_exit_one_on_bad_flag(tmp_path, capsys, args):
    path = write(tmp_path, "c.json", NODAL)
    assert main([path, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("devissage: error: ") and err.count("\n") == 1


def test_exit_one_on_missing_file():
    assert main(["/nonexistent/config.json"]) == 1


SRC = str(Path(__file__).resolve().parent.parent / "src")

FILE_ERRORS = {
    "config-is-a-directory": lambda tmp: [str(tmp)],
    "config-not-utf8": lambda tmp: [str(_write_bytes(tmp / "c.json", b"\xff\xfe"))],
    "report-in-missing-directory": lambda tmp: [
        write(tmp, "c.json", NODAL), "--report", str(tmp / "missing" / "r.json")],
    "report-is-a-directory": lambda tmp: [
        write(tmp, "c.json", NODAL), "--report", str(tmp)],
}


def _write_bytes(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("argv", FILE_ERRORS.values(), ids=FILE_ERRORS.keys())
def test_unreadable_or_unwritable_file_exits_one(tmp_path, argv):
    # a subprocess, so that an uncaught exception shows as its traceback
    proc = subprocess.run([sys.executable, "-m", "devissage.cli", *argv(tmp_path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("devissage: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("key,name", [("singular", "Zmissing"), ("component", "Xmissing")])
def test_exit_two_on_invalid_config(tmp_path, capsys, key, name):
    doc = json.loads(NODAL)
    doc["edges"][0][key] = name
    path = write(tmp_path, "c.json", json.dumps(doc))
    assert main([path]) == 2
    assert capsys.readouterr().err == \
        f"devissage: invalid configuration: {path}: edges[0]: unknown {key} {name!r}\n"


def test_invalid_config_prints_one_line(tmp_path, capsys):
    doc = json.loads(NODAL)
    doc["components"].append({"id": "X1", "group": {
        "kind": "presentation", "generators": ["a"], "relations": [["a", "a"]]}})
    path = write(tmp_path, "c.json", json.dumps(doc))
    assert main([path]) == 2
    # duplicate id 'X1', then psi targets that are not the first X1's group
    err = capsys.readouterr().err
    assert err == "devissage: invalid configuration: duplicate id 'X1' (and 2 more)\n"


def test_exit_two_on_disconnected_config(tmp_path, capsys):
    doc = {
        "components": [{"id": "X1", "group": {"kind": "trivial"}},
                       {"id": "X2", "group": {"kind": "trivial"}}],
        "singulars": [{"id": "Z1", "group": {"kind": "trivial"}}],
        "edges": [{"id": "e1", "component": "X1", "singular": "Z1"},
                  {"id": "e2", "component": "X1", "singular": "Z1"}],
    }
    path = write(tmp_path, "c.json", json.dumps(doc))
    assert main([path]) == 2
    assert "not connected" in capsys.readouterr().err


def test_invalid_and_disconnected_config_names_one_problem(tmp_path, capsys):
    # connectivity is reported only for a configuration with no other problem
    doc = json.loads(NODAL)
    doc["components"].append({"id": "X 2", "group": {"kind": "trivial"}})
    path = write(tmp_path, "c.json", json.dumps(doc))
    assert main([path]) == 2
    err = capsys.readouterr().err
    assert err == ("devissage: invalid configuration: invalid id 'X 2' "
                   "(letters, digits, _, - only)\n")


Z4 = {"kind": "finite", "degree": 4, "generators": [[1, 2, 3, 0]]}
Z2_EDGE = {"kind": "finite", "degree": 2, "generators": [[1, 0]]}


def _z2_edge_into_z4(side: str, image: list) -> str:
    """Z/2 edge group mapped by ``side`` into a Z/4 node (elements g0 = a,
    g1 = a^2, g2 = a^3) and trivially into the other, trivial node."""
    finite_component = side == "psi"
    triv = {"kind": "trivial"}
    return json.dumps({
        "components": [{"id": "X1", "group": Z4 if finite_component else triv}],
        "singulars": [{"id": "Z1", "group": triv if finite_component else Z4}],
        "edges": [{"id": "e1", "component": "X1", "singular": "Z1",
                   "group": Z2_EDGE, "psi": {"g0": []}, "phi": {"g0": []},
                   side: {"g0": image}}],
    })


@pytest.mark.parametrize("side", ["psi", "phi"])
def test_edge_map_into_finite_group_must_be_a_homomorphism(tmp_path, capsys, side):
    # c -> a sends the edge relator c^2 to a^2 != 1 in Z/4
    path = write(tmp_path, "bad.json", _z2_edge_into_z4(side, ["g0"]))
    assert main([path, "--verify", "--max-degree", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"devissage: invalid configuration: {path}: edges[0]: "
                            f"{side}: edge relator #0 does not map to the identity, "
                            "so the map is not a homomorphism\n")
    # c -> a^2 is a homomorphism
    path = write(tmp_path, "good.json", _z2_edge_into_z4(side, ["g1"]))
    assert main([path, "--verify", "--max-degree", "4"]) == 0


def _z2_edge_into_presentations(psi: list, a_relations: list) -> str:
    """X1 = <a | a_relations>, Z1 = <b | b^2>, one edge with group <c | c^2>,
    psi: c -> ``psi`` and phi: c -> b."""
    def group(name, relations):
        return {"kind": "presentation", "generators": [name], "relations": relations}
    return json.dumps({
        "components": [{"id": "X1", "group": group("a", a_relations)}],
        "singulars": [{"id": "Z1", "group": group("b", [["b", "b"]])}],
        "edges": [{"id": "e1", "component": "X1", "singular": "Z1",
                   "group": group("c", [["c", "c"]]),
                   "psi": {"c": psi}, "phi": {"c": ["b"]}}],
    })


def test_edge_map_into_presentation_is_checked_on_abelianisations(tmp_path, capsys):
    # c -> a sends the edge relator c^2 to a^2, whose exponent sum 2 is not
    # in 4Z, so the map is no homomorphism into <a | a^4>
    path = write(tmp_path, "bad.json", _z2_edge_into_presentations(["a"], [["a"] * 4]))
    assert main([path, "--verify", "--max-degree", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"devissage: invalid configuration: {path}: edges[0]: "
                            "psi: edge relator #0 does not map to the identity, "
                            "so the map is not a homomorphism\n")
    # c -> a^2 is a homomorphism; so is c -> a^-1 into <a | a^6, a^4>, where
    # the row lattice 6Z + 4Z = 2Z holds -2
    for psi, rels in ((["a", "a"], [["a"] * 4]), (["-a"], [["a"] * 6, ["a"] * 4])):
        path = write(tmp_path, "good.json", _z2_edge_into_presentations(psi, rels))
        assert main([path, "--verify", "--max-degree", "4"]) == 0, psi
        capsys.readouterr()


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_row_lattice_membership(rows, coefficients):
    basis = _row_echelon([list(r) for r in rows])
    pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots)) and all(row[c] > 0 for row, c in zip(basis, pivots))
    # every integer combination of the rows is a member, and, once every row
    # is doubled, a vector with an odd entry is not
    v = [sum(c * row[i] for c, row in zip(coefficients, rows)) for i in range(3)]
    assert _in_row_lattice(v, basis)
    doubled = _row_echelon([[2 * x for x in r] for r in rows])
    assert _in_row_lattice([2 * x for x in v], doubled)
    assert not _in_row_lattice([2 * x + 1 for x in v], doubled)


def test_omitted_maps_share_one_trivial_map():
    cfg = parse_config_text(json.dumps(emit_config(line_cycle(6))))
    maps = {id(h) for e in cfg.edges for h in (e.psi, e.phi)}
    assert len(maps) == 1


def test_every_config_file_parses():
    for path in sorted(Path(__file__).parents[1].glob("configs/*.json")):
        parse_config_text(path.read_text(), source=str(path))


# sha256 of stdout and the exit code of ``--verify --max-degree 5`` on each
# configs/*.json, pinned so that a change to the searches cannot move a report
GOLDEN_REPORTS = {
    "cycle_of_two_lines.json":
        (0, "22e715948b89da287c8780d7d0b9b6ac5273daa3790c92856948ea34f4069fe9"),
    "equivariant_z2.json":
        (0, "54f679c1b778423d927a6c4b87c438b6ebb0ca7be8be3189ed9e56983768ccf1"),
    "nodal_cubic.json":
        (0, "a43a87f922a4bcbe74986e6715439dcd22aa545a9f6ac177915e1b6b3ef5ea59"),
    "s3_nodal.json":
        (0, "3b4213622198cf010d3ce25539d775600a63585498cb2e033f26291dc587a1fa"),
    "s4_nodal.json":
        (0, "b49abd340f7b4aab6e78dd1754e718049ae9b561f402dcbe919179571d36e055"),
    "z2_nodal.json":
        (0, "c32bf7487a38c3cfe76cb79c63a84b1b7014b9e53d485a63f9a448802a268546"),
}


def test_golden_reports_cover_every_config_file():
    names = {path.name for path in Path(__file__).parents[1].glob("configs/*.json")}
    assert names == set(GOLDEN_REPORTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_verify_report_matches_its_golden_digest(name, capsys):
    path = str(Path(__file__).parents[1] / "configs" / name)
    code = main([path, "--verify", "--max-degree", "5"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN_REPORTS[name]


# sha256 of stdout of ``--discreteness`` on each configs/*.json with every
# component and singular marked discrete, pinned so that the verdicts and the
# free factor's rank cannot move
GOLDEN_DISCRETENESS = {
    "cycle_of_two_lines.json":
        "bfa96389cf2ac24fcfdf9dd35f23349ce91e2652da1eb2d52e133111dcb27bb1",
    "equivariant_z2.json":
        "9a2a7566452a77fd328b470c5f963d932659118880fa071f87bbbce6bf6cccad",
    "nodal_cubic.json":
        "6e4073fa4076d0e70bfb228ef9b2123c0447e21965e45419cf18d7e1b17ff147",
    "s3_nodal.json":
        "80649d2743ddebc7c8af324f82f243cf85d46ccddb9414c21a1dfb29562fe795",
    "s4_nodal.json":
        "6b96b235f45916679343c13a810b8f9dd8998ea0f8fc319593ee437519e85048",
    "z2_nodal.json":
        "48d1af2898f35957ee2696d749a08d237694d6f7a94056914ead5f3bce0c6af8",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DISCRETENESS))
def test_discreteness_report_matches_its_golden_digest(name, tmp_path, capsys):
    path = Path(__file__).parents[1] / "configs" / name
    cfg = parse_config_text(path.read_text())
    verdicts = write(tmp_path, "v.json", json.dumps(
        {n.id: "discrete" for n in (*cfg.components, *cfg.singulars)}))
    assert main([str(path), "--discreteness", verdicts]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_DISCRETENESS[name]


def test_report_file_and_timings_flag(tmp_path):
    path = write(tmp_path, "c.json", NODAL)
    report_path = tmp_path / "report.json"
    assert main([path, "--report", str(report_path), "--timings"]) == 0
    doc = json.loads(report_path.read_text())
    assert "timings_ms" in doc


def test_exit_three_on_verification_mismatch(tmp_path, monkeypatch, capsys):
    # an honest mismatch needs a bug, so fault-inject the rep counter
    import devissage.covers as covers
    monkeypatch.setattr(covers, "count_transitive_actions",
                        lambda pres, d: 999)
    path = write(tmp_path, "c.json", NODAL)
    assert main([path, "--verify", "--max-degree", "2"]) == 3
    out, err = capsys.readouterr()
    assert not json.loads(out)["verification"]["census_vs_reps"]["passed"]
    assert err.startswith("devissage: verification failed") and err.count("\n") == 1


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"),
                                   RuntimeError("automorphism bookkeeping failed")])
def test_exit_two_on_failed_computation(tmp_path, monkeypatch, capsys, error):
    import devissage.cli as cli

    def fail(cfg):
        raise error

    monkeypatch.setattr(cli, "assemble_recursive", fail)
    path = write(tmp_path, "c.json", json.dumps(emit_config(line_cycle(2))))
    assert main([path]) == 2
    err = capsys.readouterr().err
    assert err == f"devissage: error: {error}\n"


def test_high_rank_trivial_group_exits_zero(tmp_path, capsys):
    # the fingerprint search used to recurse once per generator
    names = [f"a{i}" for i in range(1100)]
    doc = {"components": [{"id": "X1", "group": {
               "kind": "presentation", "generators": names,
               "relations": [[name] for name in names]}}],
           "singulars": [], "edges": []}
    assert main([write(tmp_path, "c.json", json.dumps(doc))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fingerprints"]["direct"] == {"Z2": 1, "Z3": 1, "S3": 1}


def test_cli_discreteness_flag(tmp_path):
    cfg_path = write(tmp_path, "c.json", NODAL)
    verdicts = write(tmp_path, "v.json", json.dumps({"X1": "not-discrete"}))
    report_path = tmp_path / "r.json"
    assert main([cfg_path, "--discreteness", verdicts,
                 "--report", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["discreteness"]["overall"] == "not-discrete"


def test_cli_verdict_for_unknown_node_exits_two(tmp_path, capsys):
    cfg_path = write(tmp_path, "c.json", NODAL)
    verdicts = write(tmp_path, "v.json", json.dumps({"X1": "discrete", "Q": "discrete"}))
    assert main([cfg_path, "--discreteness", verdicts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "devissage: error: verdict given for unknown node Q\n"


def test_cli_invalid_verdict_value_exits_two(tmp_path, capsys):
    cfg_path = write(tmp_path, "c.json", NODAL)
    verdicts = write(tmp_path, "v.json", json.dumps({"X1": "bogus"}))
    assert main([cfg_path, "--discreteness", verdicts]) == 2
    assert capsys.readouterr().err == "devissage: error: 'bogus' is not a valid Verdict\n"


def test_invalid_verdicts_fail_before_any_assembly(tmp_path, capsys, monkeypatch):
    def no_assembly(cfg, root=None):
        raise AssertionError("assembled before the verdicts were checked")

    monkeypatch.setattr("devissage.cli.assemble_direct", no_assembly)
    cfg_path = write(tmp_path, "c.json", NODAL)
    verdicts = write(tmp_path, "v.json", json.dumps({"X1": "discrete", "Z1": "maybe"}))
    assert main([cfg_path, "--discreteness", verdicts, "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "devissage: error: 'maybe' is not a valid Verdict\n"


# --- fuzzing -----------------------------------------------------------------

CONFIG_DOCS = [json.loads(path.read_text()) for path in
               sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))]

FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5),
    st.sampled_from(["", "X1", "Z1", "e1", "a", "-a", "b", "g0", "trivial",
                     "presentation", "finite"]),
    st.lists(st.integers(-1, 3), max_size=4),
    st.lists(st.sampled_from(["a", "-a", "b", "g0", "X1"]), max_size=3),
    st.just({}), st.just({"kind": "trivial"}))


def _paths(node, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw) -> str:
    """One of configs/*.json with one to three values replaced or deleted
    or list entries duplicated, and now and then cut short."""
    doc = copy.deepcopy(draw(st.sampled_from(CONFIG_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for step in parents:
            node = node[step]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            node[key] = draw(FUZZ_VALUES)
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(deadline=None, max_examples=60)
@given(mutated_configs())
def test_mutated_configs_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([path, "--verify", "--max-degree", "2"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") == (1 if code else 0)


# --- bounded work on small inputs ---------------------------------------------

def test_bouquet_of_twelve_edges_fingerprints_at_once():
    start = time.perf_counter()
    report, passed = run(bouquet(12))
    assert time.perf_counter() - start < 1
    assert passed and report["fingerprints"]["direct"]["S3"] == 6 ** 11


def _finite_node(degree: int, generators: list) -> str:
    return json.dumps({"components": [{"id": "X1", "group": {
                           "kind": "finite", "degree": degree,
                           "generators": generators}}],
                       "singulars": [], "edges": []})


def _cycle(n: int) -> list[int]:
    return list(range(1, n)) + [0]


def _symmetric_generators(n: int) -> list[list[int]]:
    return [_cycle(n), [1, 0] + list(range(2, n))]


def test_finite_group_within_the_entry_bound_parses():
    # 316 elements of degree 316 are 99 856 entries; S_7 is 35 280
    assert len(parse_config_text(_finite_node(316, [_cycle(316)]))
               .component("X1").group.relations) == 1
    assert len(parse_config_text(_finite_node(7, _symmetric_generators(7)))
               .component("X1").group.relations) == 5040 + 1


def test_finite_group_beyond_the_entry_bound_is_rejected():
    # 317 elements of degree 317 are 100 489 entries
    with pytest.raises(ConfigSemanticError,
                       match=r"components\[0\]: finite group too large"):
        parse_config_text(_finite_node(317, [_cycle(317)]))


@pytest.mark.parametrize("text", [_finite_node(8, _symmetric_generators(8)),
                                  _finite_node(10 ** 8, [])],
                         ids=["S8", "trivial-degree-1e8"])
def test_large_finite_group_exits_two_at_once(tmp_path, capsys, text):
    path = write(tmp_path, "c.json", text)
    start = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("devissage: invalid configuration: ") and err.count("\n") == 1
    assert "finite group too large" in err
