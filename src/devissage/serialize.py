"""Configuration files and machine-readable run reports.

The input document is JSON with three arrays::

    {"components": [{"id": ..., "group": ...}],
     "singulars":  [{"id": ..., "group": ...}],
     "edges":      [{"id": ..., "component": ..., "singular": ...,
                     "group": ..., "psi": ..., "phi": ...}]}

A group is ``{"kind": "trivial"}``, ``{"kind": "presentation",
"generators": [names], "relations": [[signed-name, ...], ...]}``, or
``{"kind": "finite", "degree": d, "generators": [[perm], ...]}``; the finite
kind is presented on its listed permutations by the Schreier presentation of
a breadth-first Cayley-graph tree (one relator per non-tree edge).  Its
elements are named ``g0, g1, ...``: the non-identity elements in
lexicographic order, each standing for its tree word.  A signed name is a
generator name, or a finite group's element name, prefixed with ``-`` for
its inverse.  ``psi``/``phi`` map each edge-group generator name to a word
(array of signed names) in the component/singular group; both may be
omitted when the edge group is trivial.  A finite edge group's maps are
keyed by element names, and only the entries of its listed permutations are
read (an identity permutation maps to the identity).  Unknown fields
anywhere are rejected.

Reports are emitted with a fixed key order and no volatile content (timings
are opt-in), so reports for the same input bytes and flags are
byte-identical.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Mapping, NamedTuple

from .assembly import AssemblyResult
from .configuration import (ComponentNode, Configuration, Edge, SingularNode)
from .covers import EquivalenceReport
from .discreteness import DiscretenessVerdict
from .homs import Fingerprint, Hom, _failing_relators, eval_word, hom
from .perms import Perm, _cayley_walk, identity_perm
from .presentations import Presentation, _abelian_failures, trivial_presentation
from .words import IDENTITY, GenId, Letter, Word, gen

__all__ = [
    "ConfigParseError",
    "ConfigSemanticError",
    "parse_config",
    "parse_config_text",
    "emit_config",
    "render_report",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# Bound on (elements, identity included) x degree of a ``finite`` group:
# S_7 (35 280 entries) fits, S_8 (322 560) does not.
_FINITE_ENTRIES = 100_000


class ConfigParseError(ValueError):
    """Schema or JSON problem in a configuration document."""


class ConfigSemanticError(ValueError):
    """Well-formed document describing an inconsistent configuration."""


def _require_keys(obj: Mapping[str, Any], where: str,
                  required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigParseError(f"{where}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigParseError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigParseError(f"{where}: missing field {key!r}")


def _require_list(value: Any, where: str, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigParseError(f"{where}: {what} must be an array")
    return value


def _require_str(obj: Mapping[str, Any], key: str, where: str) -> str:
    if not isinstance(obj[key], str):
        raise ConfigParseError(f"{where}: {key} must be a string")
    return obj[key]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Group(NamedTuple):
    """A parsed group: its presentation, the word each name of the document
    stands for, per generator the ``psi``/``phi`` key that holds its image
    (None for an identity generator, which has no name), and for the finite
    kind its degree and listed permutations, the generators' faithful
    action (None for the other kinds)."""

    presentation: Presentation
    words: dict[str, Word]
    keys: tuple[str | None, ...]
    action: tuple[int, tuple[Perm, ...]] | None = None


_TRIVIAL = _Group(trivial_presentation(), {}, ())


def _parse_group(spec: Any, namespace: str, where: str) -> _Group:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigParseError(f"{where}: group must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "trivial":
        _require_keys(spec, where, ("kind",))
        return _TRIVIAL
    if kind == "presentation":
        _require_keys(spec, where, ("kind", "generators"), ("relations",))
        names = _require_list(spec["generators"], where, "generators")
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ConfigParseError(f"{where}: bad generator name {name!r}")
        if len(set(names)) != len(names):
            raise ConfigParseError(f"{where}: generators must be a list of distinct names")
        gens = tuple(GenId(namespace, i) for i in range(len(names)))
        words = {name: gen(g) for name, g in zip(names, gens)}
        relations = []
        for j, rel in enumerate(_require_list(spec.get("relations", []), where, "relations")):
            relations.append(_parse_word(rel, words, f"{where}: relation #{j}"))
        return _Group(Presentation(gens, tuple(relations)), words, tuple(names))
    if kind == "finite":
        _require_keys(spec, where, ("kind", "degree", "generators"))
        return _finite_group(spec["degree"], spec["generators"], namespace, where)
    raise ConfigParseError(f"{where}: unknown group kind {kind!r}")


def _parse_word(rel: Any, words: Mapping[str, Word], where: str) -> Word:
    """The product of the named words, a ``-name`` letter inverting its word."""
    if not isinstance(rel, list):
        raise ConfigParseError(f"{where}: a word is an array of signed names")
    letters: list[Letter] = []
    for item in rel:
        if not isinstance(item, str):
            raise ConfigParseError(f"{where}: bad letter {item!r}")
        sign, name = (-1, item[1:]) if item.startswith("-") else (1, item)
        if name not in words:
            raise ConfigParseError(f"{where}: unknown generator {name!r}")
        letters.extend(words[name].letters if sign > 0 else words[name].inverse().letters)
    return Word(tuple(letters))


def _finite_group(degree: Any, gen_specs: Any, namespace: str, where: str) -> _Group:
    """Schreier presentation of the group generated by explicit permutations.

    The generators are the k listed permutations.  The Cayley-graph walk
    that builds a ``PermGroupTarget`` (``perms._cayley_walk``) gives each
    element a tree word: the edge g*s = h that finds h first sets
    w_h = w_g*s, and every other edge yields the relator w_g*s*w_h^-1.
    These |G|(k-1)+1 relators generate the kernel of the map from the free
    group onto the permutation group (Schreier's lemma), so they present it.
    Element ``g<i>`` (the i-th non-identity element in lexicographic order)
    names its tree word.  The walk stops with ``ConfigSemanticError`` once
    the stored elements would hold more than ``_FINITE_ENTRIES`` permutation
    entries, so a short document cannot ask for an unbounded group.
    """
    if not _is_int(degree) or degree < 1:
        raise ConfigParseError(f"{where}: degree must be a positive integer")
    perms: list[Perm] = []
    for spec in _require_list(gen_specs, where, "generators"):
        if (not isinstance(spec, list) or len(spec) != degree
                or not all(map(_is_int, spec)) or sorted(spec) != list(range(degree))):
            raise ConfigParseError(f"{where}: {spec!r} is not a permutation of 0..{degree - 1}")
        perms.append(tuple(spec))
    most = _FINITE_ENTRIES // degree  # elements, the identity included
    too_large = (f"{where}: finite group too large: its elements times its "
                 f"degree {degree} exceed {_FINITE_ENTRIES}")
    if not most:
        raise ConfigSemanticError(too_large)
    gens = tuple(GenId(namespace, j) for j in range(len(perms)))
    tree = {identity_perm(degree): IDENTITY}
    relations = []
    for g, j, h, new in _cayley_walk(degree, perms):
        step = tree[g] * gen(gens[j])
        if new:
            if len(tree) == most:
                raise ConfigSemanticError(too_large)
            tree[h] = step
        else:
            relations.append(step * tree[h].inverse())
    names = {p: f"g{i}" for i, p in enumerate(sorted(tree)[1:])}  # the identity sorts first
    return _Group(Presentation(gens, tuple(relations)),
                  {name: tree[p] for p, name in names.items()},
                  tuple(names.get(p) for p in perms), (degree, tuple(perms)))


def _parse_hom(spec: Any, source: _Group, target: _Group, where: str,
               trivial: dict[tuple[int, int], Hom]) -> Hom:
    """The edge map given by ``spec``, an object from names of the edge
    group to words in the target.  Each generator's image is read from its
    key (for a finite edge group, the element name of the listed
    permutation); entries under other names of the edge group are checked
    as words but not read.  Into a finite group every edge relator must act
    trivially under the map, which is exact because the listed permutations
    act faithfully.  Into a presentation that is undecidable in general,
    so only the abelianised images are checked (``_abelian_failures``), a
    necessary condition.  ``trivial`` holds the omitted maps, one per pair
    of presentations."""
    group = source.presentation
    if spec is None:
        if group.generators:
            raise ConfigParseError(f"{where}: map omitted but the edge group is nontrivial")
        key = (id(group), id(target.presentation))  # the map keeps both alive
        if key not in trivial:
            trivial[key] = hom(group, target.presentation, {})
        return trivial[key]
    if not isinstance(spec, dict):
        raise ConfigParseError(f"{where}: expected an object mapping names to words")
    given: dict[str, Word] = {}
    for name, rel in spec.items():
        if name not in source.words:
            raise ConfigParseError(f"{where}: unknown edge generator {name!r}")
        given[name] = _parse_word(rel, target.words, f"{where}: image of {name!r}")
    missing = {key for key in source.keys if key is not None} - set(given)
    if missing:
        raise ConfigParseError(f"{where}: missing image for {sorted(missing)}")
    images = {g: IDENTITY if key is None else given[key]
              for g, key in zip(group.generators, source.keys)}
    failing: Iterable[int] = ()
    if target.action is not None:
        degree, perms = target.action
        listed = dict(zip(target.presentation.generators, perms))
        acts = {g: eval_word(w, listed, degree) for g, w in images.items()}
        failing = _failing_relators(group.relations, acts, degree)
    elif group.relations:
        failing = _abelian_failures(group.relations, images, target.presentation)
    for j in failing:
        raise ConfigSemanticError(f"{where}: edge relator #{j} does not map "
                                  "to the identity, so the map is not a "
                                  "homomorphism")
    return hom(group, target.presentation, images)


def parse_config_text(text: str, source: str = "<config>") -> Configuration:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigParseError(f"{source}: arrays or objects nested too deeply") from exc
    _require_keys(doc, source, ("components", "singulars", "edges"))

    nodes: dict[str, list] = {}
    groups: dict[str, dict[str, _Group]] = {}
    for key, node in (("components", ComponentNode), ("singulars", SingularNode)):
        nodes[key], groups[key] = [], {}
        for i, item in enumerate(_require_list(doc[key], source, key)):
            where = f"{source}: {key}[{i}]"
            _require_keys(item, where, ("id", "group"))
            nid = _require_str(item, "id", where)
            parsed = _parse_group(item["group"], nid, where)
            nodes[key].append(node(nid, parsed.presentation))
            groups[key][nid] = parsed
    comp_groups, sing_groups = groups["components"], groups["singulars"]

    edges = []
    trivial: dict[tuple[int, int], Hom] = {}
    for i, item in enumerate(_require_list(doc["edges"], source, "edges")):
        where = f"{source}: edges[{i}]"
        _require_keys(item, where, ("id", "component", "singular"),
                      ("group", "psi", "phi"))
        eid, cid, sid = (_require_str(item, key, where)
                         for key in ("id", "component", "singular"))
        parsed = _parse_group(item.get("group", {"kind": "trivial"}), eid, where)
        if cid not in comp_groups:
            raise ConfigSemanticError(f"{where}: unknown component {cid!r}")
        if sid not in sing_groups:
            raise ConfigSemanticError(f"{where}: unknown singular {sid!r}")
        psi = _parse_hom(item.get("psi"), parsed, comp_groups[cid], f"{where}: psi",
                         trivial)
        phi = _parse_hom(item.get("phi"), parsed, sing_groups[sid], f"{where}: phi",
                         trivial)
        edges.append(Edge(eid, cid, sid, parsed.presentation, psi, phi))
    return Configuration(tuple(nodes["components"]), tuple(nodes["singulars"]),
                         tuple(edges))


def parse_config(path: str) -> Configuration:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"{path}: not UTF-8 text "
                                   f"({exc.reason} at byte {exc.start})") from exc
    return parse_config_text(text, source=path)


# --- emission ----------------------------------------------------------------

def _local_names(group: Presentation) -> dict[GenId, str]:
    return {g: f"g{i}" for i, g in enumerate(group.generators)}


def _emit_word(w: Word, names: Mapping[GenId, str]) -> list[str]:
    return [names[g] if s > 0 else f"-{names[g]}" for g, s in w.letters]


def _emit_group(group: Presentation) -> dict:
    if not group.generators:
        return {"kind": "trivial"}
    names = _local_names(group)
    return {"kind": "presentation",
            "generators": list(names.values()),
            "relations": [_emit_word(r, names) for r in group.relations]}


def emit_config(cfg: Configuration) -> dict:
    """JSON document for a configuration; re-parsing gives an equal value.

    Generator names are canonicalized to g0, g1, ...; groups given as
    explicit finite groups come back as their Schreier presentations on the
    listed permutations.
    """
    doc: dict[str, Any] = {"components": [], "singulars": [], "edges": []}
    for c in cfg.components:
        doc["components"].append({"id": c.id, "group": _emit_group(c.group)})
    for s in cfg.singulars:
        doc["singulars"].append({"id": s.id, "group": _emit_group(s.group)})
    for e in cfg.edges:
        item: dict[str, Any] = {"id": e.id, "component": e.component,
                                "singular": e.singular, "group": _emit_group(e.group)}
        if e.group.generators:
            enames = _local_names(e.group)
            cnames = _local_names(cfg.component(e.component).group)
            snames = _local_names(cfg.singular(e.singular).group)
            item["psi"] = {enames[a]: _emit_word(w, cnames) for a, w in e.psi.images}
            item["phi"] = {enames[a]: _emit_word(w, snames) for a, w in e.phi.images}
        doc["edges"].append(item)
    return doc


def _emit_presentation(p: Presentation) -> dict:
    return {"generators": [str(g) for g in p.generators],
            "relations": [[str(g) if s > 0 else f"-{g}" for g, s in r.letters]
                          for r in p.relations]}


def emit_assembly(result: AssemblyResult) -> dict:
    return {
        "method": result.method,
        "root": result.root,
        "tree": list(result.tree) if result.tree is not None else None,
        "presentation": _emit_presentation(result.presentation),
        "dictionary": {str(g): {"kind": o.kind, "node": o.node,
                                **({"detail": o.detail} if o.detail else {})}
                       for g, o in sorted(result.dictionary.items(),
                                          key=lambda kv: str(kv[0]))},
    }


def emit_fingerprint(fp: Fingerprint) -> dict:
    return {str(p): c for p, c in zip(fp.probes, fp.counts)}


def emit_equivalence(report: EquivalenceReport) -> dict:
    return {"rows": [{"degree": r.degree, "tuples": r.tuples, "reps": r.reps}
                     for r in report.rows],
            "passed": report.passed}


def emit_discreteness(verdict: DiscretenessVerdict) -> dict:
    return {"overall": verdict.overall.value,
            "per_node": {name: {"verdict": nv.verdict.value, "reason": nv.reason}
                         for name, nv in verdict.per_node}}


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"
