"""Configuration files and machine-readable run reports.

The input document is JSON with three arrays::

    {"components": [{"id": ..., "group": ...}],
     "singulars":  [{"id": ..., "group": ...}],
     "edges":      [{"id": ..., "component": ..., "singular": ...,
                     "group": ..., "psi": ..., "phi": ...}]}

A group is ``{"kind": "trivial"}``, ``{"kind": "presentation",
"generators": [names], "relations": [[signed-name, ...], ...]}``, or
``{"kind": "finite", "degree": d, "generators": [[perm], ...]}``; the finite
kind is closed under multiplication and converted to a presentation through
its full multiplication table (one generator ``g0, g1, ...`` per
non-identity element, in lexicographic element order).  A signed name is a
generator name, prefixed with ``-`` for its inverse.  ``psi``/``phi`` map
each edge-group generator name to a word (array of signed names) in the
component/singular group; both may be omitted when the edge group is
trivial.  Unknown fields anywhere are rejected.

Reports are emitted with a fixed key order and no volatile content (timings
are opt-in), so reports for the same input bytes and flags are
byte-identical.
"""

from __future__ import annotations

import json
import re
from typing import Any, Mapping

from .assembly import AssemblyResult
from .configuration import (ComponentNode, Configuration, Edge, SingularNode)
from .covers import EquivalenceReport
from .discreteness import DiscretenessVerdict
from .homs import Fingerprint, Hom, hom
from .perms import Perm, compose, identity_perm, mulclose
from .presentations import Presentation, trivial_presentation
from .words import GenId, Word

__all__ = [
    "ConfigParseError",
    "ConfigSemanticError",
    "parse_config",
    "parse_config_text",
    "emit_config",
    "render_report",
]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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


def _parse_group(spec: Any, namespace: str, where: str) -> tuple[Presentation, dict[str, GenId]]:
    """Returns the presentation plus the name -> generator map."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigParseError(f"{where}: group must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "trivial":
        _require_keys(spec, where, ("kind",))
        return trivial_presentation(), {}
    if kind == "presentation":
        _require_keys(spec, where, ("kind", "generators"), ("relations",))
        names = _require_list(spec["generators"], where, "generators")
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ConfigParseError(f"{where}: bad generator name {name!r}")
        if len(set(names)) != len(names):
            raise ConfigParseError(f"{where}: generators must be a list of distinct names")
        table = {name: GenId(namespace, i) for i, name in enumerate(names)}
        relations = []
        for j, rel in enumerate(_require_list(spec.get("relations", []), where, "relations")):
            relations.append(_parse_word(rel, table, f"{where}: relation #{j}"))
        return Presentation(tuple(table.values()), tuple(relations)), table
    if kind == "finite":
        _require_keys(spec, where, ("kind", "degree", "generators"))
        return _finite_group(spec["degree"], spec["generators"], namespace, where)
    raise ConfigParseError(f"{where}: unknown group kind {kind!r}")


def _parse_word(rel: Any, table: Mapping[str, GenId], where: str) -> Word:
    if not isinstance(rel, list):
        raise ConfigParseError(f"{where}: a word is an array of signed names")
    letters = []
    for item in rel:
        if not isinstance(item, str):
            raise ConfigParseError(f"{where}: bad letter {item!r}")
        sign, name = (-1, item[1:]) if item.startswith("-") else (1, item)
        if name not in table:
            raise ConfigParseError(f"{where}: unknown generator {name!r}")
        letters.append((table[name], sign))
    return Word(tuple(letters))


def _finite_group(degree: Any, gen_specs: Any, namespace: str,
                  where: str) -> tuple[Presentation, dict[str, GenId]]:
    """Cayley presentation of the group generated by explicit permutations."""
    if not _is_int(degree) or degree < 1:
        raise ConfigParseError(f"{where}: degree must be a positive integer")
    perms: list[Perm] = []
    for spec in _require_list(gen_specs, where, "generators"):
        if (not isinstance(spec, list) or len(spec) != degree
                or not all(map(_is_int, spec)) or sorted(spec) != list(range(degree))):
            raise ConfigParseError(f"{where}: {spec!r} is not a permutation of 0..{degree - 1}")
        perms.append(tuple(spec))
    elements = sorted(mulclose(perms, degree))
    ident = identity_perm(degree)
    nontrivial = [p for p in elements if p != ident]
    index = {p: i for i, p in enumerate(nontrivial)}
    gens = tuple(GenId(namespace, i) for i in range(len(nontrivial)))

    def letter_word(p: Perm) -> Word:
        return Word() if p == ident else Word(((gens[index[p]], 1),))

    relations = []
    for x in nontrivial:
        for y in nontrivial:
            product = letter_word(compose(x, y))
            relations.append(Word(((gens[index[x]], 1), (gens[index[y]], 1)))
                             * product.inverse())
    table = {f"g{i}": gens[i] for i in range(len(nontrivial))}
    return Presentation(gens, tuple(relations)), table


def _parse_hom(spec: Any, group: Presentation, table: Mapping[str, GenId],
               target: Presentation, target_table: Mapping[str, GenId],
               where: str) -> Hom:
    if spec is None:
        if group.generators:
            raise ConfigParseError(f"{where}: map omitted but the edge group is nontrivial")
        return hom(group, target, {})
    if not isinstance(spec, dict):
        raise ConfigParseError(f"{where}: expected an object mapping names to words")
    images: dict[GenId, Word] = {}
    for name, rel in spec.items():
        if name not in table:
            raise ConfigParseError(f"{where}: unknown edge generator {name!r}")
        images[table[name]] = _parse_word(rel, target_table, f"{where}: image of {name!r}")
    missing = set(group.generators) - set(images)
    if missing:
        raise ConfigParseError(f"{where}: missing image for {sorted(map(str, missing))}")
    return hom(group, target, images)


def parse_config_text(text: str, source: str = "<config>") -> Configuration:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigParseError(f"{source}: arrays or objects nested too deeply") from exc
    _require_keys(doc, source, ("components", "singulars", "edges"))

    nodes: dict[str, list] = {}
    tables: dict[str, dict[str, tuple[Presentation, dict[str, GenId]]]] = {}
    for key, node in (("components", ComponentNode), ("singulars", SingularNode)):
        nodes[key], tables[key] = [], {}
        for i, item in enumerate(_require_list(doc[key], source, key)):
            where = f"{source}: {key}[{i}]"
            _require_keys(item, where, ("id", "group"))
            nid = _require_str(item, "id", where)
            group, table = _parse_group(item["group"], nid, where)
            nodes[key].append(node(nid, group))
            tables[key][nid] = (group, table)
    comp_tables, sing_tables = tables["components"], tables["singulars"]

    edges = []
    for i, item in enumerate(_require_list(doc["edges"], source, "edges")):
        where = f"{source}: edges[{i}]"
        _require_keys(item, where, ("id", "component", "singular"),
                      ("group", "psi", "phi"))
        eid, cid, sid = (_require_str(item, key, where)
                         for key in ("id", "component", "singular"))
        group, table = _parse_group(item.get("group", {"kind": "trivial"}), eid, where)
        if cid not in comp_tables:
            raise ConfigSemanticError(f"{where}: unknown component {cid!r}")
        if sid not in sing_tables:
            raise ConfigSemanticError(f"{where}: unknown singular {sid!r}")
        ctarget, ctable = comp_tables[cid]
        starget, stable = sing_tables[sid]
        psi = _parse_hom(item.get("psi"), group, table, ctarget, ctable, f"{where}: psi")
        phi = _parse_hom(item.get("phi"), group, table, starget, stable, f"{where}: phi")
        edges.append(Edge(eid, cid, sid, group, psi, phi))
    return Configuration(tuple(nodes["components"]), tuple(nodes["singulars"]),
                         tuple(edges))


def parse_config(path: str) -> Configuration:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


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
    explicit finite groups come back as their multiplication-table
    presentations.
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
