#!/usr/bin/env python3
"""Benchmark of devissage's assemble-then-verify pipeline.

    python3 perfbench/run.py --workload corpus_deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Three workloads run in this one process, one operation at a time (a closed
loop with a single client):

corpus_deep
    Every config of ``corpus.full_corpus()``: parse, validate, direct (and,
    with two or more singulars, recursive) assembly, a Z2,Z3,S3 fingerprint
    of each route, and the cover census plus the transitive-action count at
    degrees 1..5 (1..4 for s3_nodal).  Few fibers at high degree: scanning
    and canonicalization in ``covers`` dominate.
cycle_wide
    ``line_cycle(1000)`` parsed, validated, assembled directly,
    fingerprinted and counted at degrees 2 and 3; then ``line_cycle(200)``
    assembled recursively.  Thousands of fibers at tiny degree: graph walks
    in ``configuration`` and ``assembly`` dominate.
cli_finite
    ``devissage <cfg> --verify --max-degree D`` as a child process on the
    five configs/*.json files (D=5) and on generated finite-kind nodal
    configs D4 (D=5), D5 (D=4) and A4 (D=3).  What a user runs: the
    interpreter and import floor, and multiplication-table presentations on
    which the census is dominated by relator pruning.

The seed relabels every input isomorphically: node and edge ids are renamed
consistently and the edge list is permuted (seed 0 keeps the inputs as
listed).  Counts are invariant under relabelling, so the known answers in
known_answers.json hold for every seed.

Every operation is checked against a known answer.  An operation that
raises, exits with an error, runs past the workload's per-operation limit
or returns a wrong count is failed, and the run goes on.  ``failed`` in the
result counts all of them; ``correct`` is false only when an output
disagreed with its known answer.

Whole passes over the workload repeat until the next one would end after
``--seconds`` (at least one pass).  With ``--trace 0`` the result holds the
end-to-end metrics, as medians over passes.  With ``--trace 1`` untraced
and traced passes alternate; a traced pass records spans around calls into
each layer's public functions (and, for cli_finite, replays every CLI call
in-process to split it by layer), and the result holds per-layer self times
and work counts as medians over traced passes, plus the tracing overhead.
Spans are written to perfbench/.work/ when the run ends.  The line before
the result holds the deterministic work counts and report digests.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = HERE / ".work"

WORKLOADS = ("corpus_deep", "cycle_wide", "cli_finite")
# A failed operation is charged this much wall time, so turning a failure
# into a success can only lower wall_s.  Each limit is at least three times
# the slowest operation of its workload.
OP_LIMIT_S = {"corpus_deep": 30.0, "cycle_wide": 10.0, "cli_finite": 20.0}
SETUP_ROUNDS = 4  # before the first pass; one more precedes every pass
DEGREES = (1, 2, 3, 4, 5)
PROBES = "Z2,Z3,S3"

CONFIG_FILES = ("cycle_of_two_lines", "equivariant_z2", "nodal_cubic",
                "s3_nodal", "z2_nodal")
CONFIG_FILE_DEGREE = 5
# name -> (permutation degree, generating permutations, census degree)
FINITE_NODAL = {
    "d4_nodal": (4, [[1, 2, 3, 0], [0, 3, 2, 1]], 5),
    "d5_nodal": (5, [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], 4),
    "a4_nodal": (4, [[1, 2, 0, 3], [1, 0, 3, 2]], 3),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ok_ratio": "ratio",
                    "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in ("covers.census", "homs.transitive"):
        units[f"{layer}_s"] = "s"
        units.update({f"{layer}_s.d{d}": "s" for d in DEGREES})
        units[f"{layer}.classes"] = "count"
    units["covers.failed"] = "count"
    units["homs.fingerprint_s"] = "s"
    units["homs.fingerprint.homs"] = "count"
    for route in ("direct", "recursive"):
        units[f"assembly.{route}_s"] = "s"
        units[f"assembly.{route}.generators"] = "count"
        units[f"assembly.{route}.relators"] = "count"
    for layer in ("assembly.curve", "configuration.validate", "serialize.parse",
                  "serialize.render", "cli.invocation", "cli.main",
                  "setup.interpreter", "setup.import", "trace.overhead"):
        units[f"{layer}_s"] = "s"
    units["fail_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()

# Public functions wrapped in a traced pass: module -> function -> layer.
# Functions the package no longer has are skipped, so removing one (such as
# curve_assembly) leaves the benchmark running.
TRACED = {
    "serialize": {"parse_config": "serialize.parse",
                  "parse_config_text": "serialize.parse",
                  "emit_assembly": "serialize.render",
                  "emit_fingerprint": "serialize.render",
                  "emit_equivalence": "serialize.render",
                  "render_report": "serialize.render"},
    "configuration": {"validate_config": "configuration.validate"},
    "assembly": {"assemble_direct": "assembly.direct",
                 "assemble_recursive": "assembly.recursive",
                 "curve_assembly": "assembly.curve"},
    "homs": {"fingerprint": "homs.fingerprint",
             "count_transitive_actions": "homs.transitive"},
    "covers": {"enumerate_tuples": "covers.census"},
}
PER_DEGREE = ("covers.census", "homs.transitive")
# Operations whose own span is a layer: the CLI child process, and the
# in-process CLI call around the traced functions.
OP_SPAN_LAYERS = ("cli.invocation", "cli.main")


class SetupError(Exception):
    """The benchmark cannot run here (no source tree, no known answer)."""


# --- operations ----------------------------------------------------------------

@dataclass
class Op:
    """One call into the program, checked against a known answer."""

    name: str
    layer: str
    call: Callable[[dict], Any]  # gets the results of earlier operations
    observe: Callable[[Any], Any] = lambda value: None
    expect: Any = None  # None: the call only has to succeed
    save: str | None = None  # key the result is kept under for later ops
    info: Callable[[Any], Any] | None = None  # recorded, never checked


@dataclass
class Outcome:
    name: str
    layer: str
    seconds: float
    error: str | None
    mismatch: bool
    observed: Any
    info: Any

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatch


@dataclass
class Workload:
    name: str
    ops: list[Op]
    replay_ops: list[Op] = field(default_factory=list)  # traced passes only


def run_pass(ops: list[Op], limit: float, tracer: Tracer | None = None) -> list[Outcome]:
    """Runs every operation once, in order; a failure never stops the pass."""
    state: dict = {}
    outcomes = []
    for op in ops:
        span = None
        if tracer is not None:
            tracer.op = op.name
            span = tracer.begin(op.layer if op.layer in OP_SPAN_LAYERS else "op")
        value, error = None, None
        start = time.perf_counter()
        try:
            value = op.call(state)
        except Exception as exc:  # recorded as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.end(span, error=error is not None)
        if error is None and seconds > limit:
            error = f"exceeded the {limit:g} s operation limit"
        observed = info = None
        if error is None:
            try:
                observed = op.observe(value)
                info = op.info(value) if op.info else None
            except Exception as exc:  # an unreadable result is a failure too
                error = f"{type(exc).__name__}: {exc}"
        if error is None and op.save:
            state[op.save] = value
        mismatch = error is None and op.expect is not None and observed != op.expect
        outcomes.append(Outcome(op.name, op.layer, seconds, error, mismatch,
                                observed, info))
    return outcomes


def charged_wall(outcomes: list[Outcome], limit: float) -> float:
    return sum(limit if o.failed else o.seconds for o in outcomes)


# --- tracing -------------------------------------------------------------------

class Tracer:
    """Spans kept in memory: name, start, end, parent span and operation id,
    plus the degree argument and work count of the traced call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str, degree: int | None = None) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._open[-1] if self._open else None,
                "op": self.op, "degree": degree, "work": None, "error": False}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict, work: Any = None, error: bool = False) -> None:
        span["end"] = time.perf_counter()
        span["work"] = work
        span["error"] = error
        self._open.pop()

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        per_degree = layer in PER_DEGREE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            degree = None
            if per_degree:
                degree = args[1] if len(args) > 1 else kwargs.get("degree")
            span = self.begin(layer, degree)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span, error=True)
                raise
            self.end(span, work=_work(layer, result))
            return result
        return traced

    def install(self) -> None:
        """Replaces each traced function by a timing wrapper wherever a
        devissage module holds a reference to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "devissage" or name.startswith("devissage.")]
        for module_name, table in TRACED.items():
            home = sys.modules[f"devissage.{module_name}"]
            for fname, layer in table.items():
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(fn, layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def _work(layer: str, result: Any) -> Any:
    if layer == "covers.census":
        return len(result)
    if layer == "homs.transitive":
        return result
    if layer == "homs.fingerprint":
        return sum(result.counts)
    if layer in ("assembly.direct", "assembly.recursive"):
        p = result.presentation
        return [len(p.generators), len(p.relations)]
    return None


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Self time of each layer (a span's duration minus the time its child
    spans cover) and the work counts of outermost calls into each module."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    # modules of each span's ancestors; a call nested in another call into
    # the same module (recursive assembly's inner calls) is not counted twice
    outer_modules: list[frozenset] = []
    for s in spans:
        p = s["parent"]
        outer_modules.append(frozenset() if p is None else
                             outer_modules[p] | {spans[p]["name"].split(".")[0]})
        name = s["name"]
        if name in ("op", "pass"):
            continue
        self_s = s["end"] - s["start"] - covered[s["id"]]
        out[f"{name}_s"] += self_s
        if s["degree"] is not None:
            out[f"{name}_s.d{s['degree']}"] += self_s
        if name == "covers.census" and s["error"]:
            out["covers.failed"] += 1
        if s["work"] is None or name.split(".")[0] in outer_modules[-1]:
            continue
        if name in PER_DEGREE:
            out[f"{name}.classes"] += s["work"]
        elif name == "homs.fingerprint":
            out["homs.fingerprint.homs"] += s["work"]
        else:
            out[f"{name}.generators"] += s["work"][0]
            out[f"{name}.relators"] += s["work"][1]
    return out


# --- inputs --------------------------------------------------------------------

def relabel(doc: dict, seed: int, name: str) -> dict:
    """An isomorphic copy of a config document: every node and edge id
    renamed consistently, the edge list permuted.  Seed 0 keeps ``doc``."""
    if seed == 0:
        return doc
    rng = random.Random(f"{seed}/{name}")
    ids = [item["id"] for key in ("components", "singulars", "edges")
           for item in doc[key]]
    new = {old: f"n{k}" for old, k in zip(ids, rng.sample(range(10 * len(ids)), len(ids)))}
    edges = [{**e, "id": new[e["id"]], "component": new[e["component"]],
              "singular": new[e["singular"]]} for e in doc["edges"]]
    rng.shuffle(edges)
    return {"components": [{**c, "id": new[c["id"]]} for c in doc["components"]],
            "singulars": [{**s, "id": new[s["id"]]} for s in doc["singulars"]],
            "edges": edges}


def nodal_doc(degree: int, generators: list[list[int]]) -> dict:
    """One component carrying a finite permutation group, glued to itself
    in one node."""
    return {"components": [{"id": "X1", "group": {"kind": "finite", "degree": degree,
                                                  "generators": generators}}],
            "singulars": [{"id": "Z1", "group": {"kind": "trivial"}}],
            "edges": [{"id": "e1", "component": "X1", "singular": "Z1"},
                      {"id": "e2", "component": "X1", "singular": "Z1"}]}


def load_known() -> dict[str, dict]:
    with open(HERE / "known_answers.json", encoding="utf-8") as fh:
        return json.load(fh)["answers"]


def _answer(known: dict, name: str) -> dict:
    if name not in known:
        raise SetupError(f"no known answer for {name!r}")
    return known[name]


def config_ops(dv: Any, name: str, text: str, answer: dict,
               routes: tuple[str, ...], degrees: tuple[int, ...]) -> list[Op]:
    """Parse, validate, assemble by each route, fingerprint each route, and
    count covers both ways at each degree (the counter on the direct route).

    Functions are looked up on the package at call time, so a traced pass
    reaches the timing wrappers."""
    doc = json.loads(text)
    shape = [len(doc["components"]), len(doc["singulars"]), len(doc["edges"])]
    probes = dv.cli.parse_probes(PROBES)
    cfg = f"{name}:cfg"
    ops = [
        Op(f"{name}:parse", "serialize.parse",
           lambda st: dv.parse_config_text(text, name),
           observe=lambda c: [len(c.components), len(c.singulars), len(c.edges)],
           expect=shape, save=cfg),
        Op(f"{name}:validate", "configuration.validate",
           lambda st: dv.validate_config(st[cfg]), observe=list, expect=[]),
    ]
    for route in routes:
        ops.append(Op(f"{name}:{route}", f"assembly.{route}",
                      lambda st, r=route: getattr(dv, f"assemble_{r}")(st[cfg]),
                      observe=lambda res: [len(res.presentation.generators),
                                           len(res.presentation.relations)],
                      save=f"{name}:{route}"))
        ops.append(Op(f"{name}:{route}:fingerprint", "homs.fingerprint",
                      lambda st, r=route: dv.fingerprint(st[f"{name}:{r}"].presentation, probes),
                      observe=lambda fp: list(fp.counts), expect=answer["fingerprint"]))
    for d in degrees:
        ops.append(Op(f"{name}:census:d{d}", "covers.census",
                      lambda st, d=d: dv.enumerate_tuples(st[cfg], d),
                      observe=len, expect=answer["census"][d - 1]))
        ops.append(Op(f"{name}:reps:d{d}", "homs.transitive",
                      lambda st, d=d: dv.count_transitive_actions(
                          st[f"{name}:direct"].presentation, d),
                      observe=int, expect=answer["census"][d - 1]))
    return ops


def build_corpus_deep(dv: Any, seed: int, known: dict) -> Workload:
    ops: list[Op] = []
    for name, cfg in dv.corpus.full_corpus().items():
        routes = ("direct", "recursive") if len(cfg.singulars) >= 2 else ("direct",)
        top = 4 if name == "s3_nodal" else 5
        text = json.dumps(relabel(dv.emit_config(cfg), seed, name))
        ops += config_ops(dv, name, text, _answer(known, name), routes,
                          tuple(range(1, top + 1)))
    return Workload("corpus_deep", ops)


def build_cycle_wide(dv: Any, seed: int, known: dict) -> Workload:
    answer = _answer(known, "line_cycle")
    wide = json.dumps(relabel(dv.emit_config(dv.corpus.line_cycle(1000)), seed, "wide"))
    deep = json.dumps(relabel(dv.emit_config(dv.corpus.line_cycle(200)), seed, "deep"))
    ops = config_ops(dv, "line_cycle1000", wide, answer, ("direct",), (2, 3))
    ops += config_ops(dv, "line_cycle200", deep, answer, ("recursive",), ())
    return Workload("cycle_wide", ops)


@dataclass
class CliRun:
    code: int
    report: bytes
    peak_rss_kb: int | None = None  # of the child process


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# The console script, plus the child's own peak resident set (VmHWM) as
# the last line of its standard error.
CLI_MAIN = ("import sys; from devissage.cli import main; code = main(); "
            "print(*[l for l in open('/proc/self/status') if l.startswith('VmHWM')], "
            "file=sys.stderr, end=''); sys.exit(code)")


def run_cli(argv: list[str], limit: float) -> CliRun:
    """``devissage <argv>`` in a child process, killed after ``limit`` s."""
    out_path = WORK / "cli-report.json"
    with open(out_path, "wb") as out, open(WORK / "cli-stderr.txt", "wb+") as err:
        proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *argv],
                                stdout=out, stderr=err, env=child_env())
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            code = proc.wait()  # no timeout: a polling wait would add jitter
        finally:
            timer.cancel()
        if killed.is_set():
            raise TimeoutError(f"killed after {limit:g} s")
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip().splitlines()
    peak = int(stderr.pop().split()[1]) if stderr and stderr[-1].startswith("VmHWM:") else None
    return _cli_result(code, out_path.read_bytes(), "\n".join(stderr), peak)


def replay_cli(dv: Any, argv: list[str]) -> CliRun:
    """The same CLI call made in-process, so a traced pass can split it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dv.cli.main(list(argv))
    return _cli_result(code, out.getvalue().encode(), err.getvalue().strip())


def _cli_result(code: int, report: bytes, stderr: str,
                peak_rss_kb: int | None = None) -> CliRun:
    # exit 3 (census and counter disagree) still writes a report, which the
    # check then compares with the known answer
    if code not in (0, 3):
        raise RuntimeError(f"exit {code}: {stderr.splitlines()[-1] if stderr else ''}")
    return CliRun(code, report, peak_rss_kb)


def read_report(run: CliRun) -> dict:
    report = json.loads(run.report)
    rows = report["verification"]["census_vs_reps"]["rows"]
    fingerprints = sorted({tuple(fp.values()) for fp in report["fingerprints"].values()})
    return {"exit": run.code, "census": [r["tuples"] for r in rows],
            "reps": [r["reps"] for r in rows],
            "fingerprints": [list(fp) for fp in fingerprints]}


def cli_info(run: CliRun) -> dict:
    info = {"report_sha256": hashlib.sha256(run.report).hexdigest()}
    if run.peak_rss_kb is not None:
        info["peak_rss_kb"] = run.peak_rss_kb
    return info


def build_cli_finite(dv: Any, seed: int, known: dict) -> Workload:
    cases = []
    for name in CONFIG_FILES:
        path = CONFIGS / f"{name}.json"
        if not path.is_file():
            raise SetupError(f"missing input {path.relative_to(ROOT)}")
        cases.append((name, json.loads(path.read_text(encoding="utf-8")),
                      CONFIG_FILE_DEGREE))
    cases += [(name, nodal_doc(deg, gens), top)
              for name, (deg, gens, top) in FINITE_NODAL.items()]
    (WORK / "cli").mkdir(parents=True, exist_ok=True)
    limit = OP_LIMIT_S["cli_finite"]
    ops, replay = [], []
    for name, doc, top in cases:
        answer = _answer(known, name)
        path = WORK / "cli" / f"{name}.json"
        path.write_text(json.dumps(relabel(doc, seed, name), indent=1) + "\n",
                        encoding="utf-8")
        argv = [str(path), "--verify", "--max-degree", str(top)]
        expect = {"exit": 0, "census": answer["census"][:top],
                  "reps": answer["census"][:top],
                  "fingerprints": [answer["fingerprint"]]}
        ops.append(Op(f"{name}:cli", "cli.invocation",
                      lambda st, argv=argv: run_cli(argv, limit),
                      observe=read_report, expect=expect, info=cli_info))
        replay.append(Op(f"{name}:replay", "cli.main",
                         lambda st, argv=argv: replay_cli(dv, argv),
                         observe=read_report, expect=expect, info=cli_info))
    return Workload("cli_finite", ops, replay)


BUILDERS = {"corpus_deep": build_corpus_deep, "cycle_wide": build_cycle_wide,
            "cli_finite": build_cli_finite}


# --- set-up --------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import devissage; "
                "print(time.perf_counter() - t)")


def setup_round(dv: Any, workload: str, seed: int, known: dict,
                times: dict[str, list[float]]) -> Workload:
    """One set-up: a bare interpreter start, a fresh ``import devissage``,
    and building the workload's inputs; appends the times to ``times``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
    interpreter = time.perf_counter() - start
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                           check=True, capture_output=True, text=True)
    imported = float(probe.stdout)
    start = time.perf_counter()
    work = BUILDERS[workload](dv, seed, known)
    inputs = time.perf_counter() - start
    times["interpreter"].append(interpreter)
    times["import"].append(imported)
    times["total"].append(interpreter + imported + inputs)
    return work


# --- runs ----------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    elapsed: float
    wall: float
    outcomes: list[Outcome]
    spans: list[dict]


def run_passes(build: Callable[[], Workload], limit: float, seconds: float,
               trace: bool) -> list[Pass]:
    """Whole passes, each after a set-up round that builds its inputs, until
    the next would end after ``seconds``; with ``trace`` untraced and traced
    passes alternate, at least one of each."""
    passes: list[Pass] = []
    last: dict[bool, float] = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        required = not passes or (trace and len(passes) == 1)
        estimate = last.get(traced, max(last.values(), default=0.0))
        if not required and time.perf_counter() - start + estimate > seconds:
            break
        began = time.perf_counter()
        work = build()
        spans: list[dict] = []
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                root = tracer.begin("pass")
                outcomes = run_pass(work.ops, limit, tracer)
                extra = run_pass(work.replay_ops, limit, tracer)
                tracer.end(root)
            finally:
                tracer.uninstall()
            spans = tracer.spans
        else:
            outcomes, extra = run_pass(work.ops, limit), []
        last[traced] = time.perf_counter() - began
        passes.append(Pass(traced, last[traced], charged_wall(outcomes, limit),
                           outcomes + extra, spans))
    return passes


def peak_rss_mb(outcomes: list[Outcome]) -> float:
    """Peak resident memory of the process doing the work: the largest CLI
    child where the operations ran in children, else this process.

    Read as VmHWM, because ru_maxrss also counts the pages the parent of a
    process had when it started it."""
    children = [o.info["peak_rss_kb"] for o in outcomes
                if o.info and "peak_rss_kb" in o.info]
    if children:
        return max(children) / 1024
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


def summarize(workload: str, passes: list[Pass], setup: dict[str, list[float]],
              trace: bool) -> tuple[dict, dict]:
    """The result object and the detail record of one run."""
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    plain = [p.wall for p in passes if not p.traced]
    if trace:
        traced = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p.spans) for p in traced]
        for metrics, p in zip(per_pass, traced):
            metrics["covers.failed"] += sum(o.mismatch for o in p.outcomes
                                            if o.layer == "covers.census")
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in PER_LAYER_UNITS}
        values["setup.interpreter_s"] = statistics.median(setup["interpreter"])
        values["setup.import_s"] = statistics.median(setup["import"])
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(plain))
        values["fail_ratio"] = failed / attempted
        units = PER_LAYER_UNITS
    else:
        values = {"wall_s": statistics.median(plain),
                  "setup_s": statistics.median(setup["total"]),
                  "ok_ratio": (attempted - failed) / attempted,
                  "peak_rss_mb": peak_rss_mb(outcomes)}
        units = END_TO_END_UNITS
    result = {"correct": not any(o.mismatch for o in outcomes),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    first = passes[0].outcomes
    detail = {
        "workload": workload,
        "passes": [{"traced": p.traced, "wall_s": p.wall, "elapsed_s": p.elapsed}
                   for p in passes],
        "work": {o.name: o.observed for o in first if o.observed is not None},
        "info": {o.name: o.info for o in first if o.info is not None},
        "failures": sorted({(o.name, o.error or f"expected a different value, got {o.observed!r}")
                            for o in outcomes if o.failed}),
    }
    return result, detail


def run_workload(dv: Any, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    known = load_known()
    setup: dict[str, list[float]] = {"interpreter": [], "import": [], "total": []}

    def build() -> Workload:
        return setup_round(dv, workload, seed, known, setup)

    # set-up rounds before the first pass and before every pass, so that
    # their median sees the machine over the whole run
    for _ in range(SETUP_ROUNDS):
        build()
    passes = run_passes(build, OP_LIMIT_S[workload], seconds, trace)
    if trace:
        spans = [{"pass": i, "spans": p.spans} for i, p in enumerate(passes) if p.traced]
        with open(WORK / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "passes": spans}, fh)
    return summarize(workload, passes, setup, trace)


def import_package() -> Any:
    """devissage from this checkout's source tree, never from elsewhere."""
    if not (SRC / "devissage" / "__init__.py").is_file():
        raise SetupError(f"no source tree at {SRC.relative_to(ROOT)}/devissage")
    sys.path.insert(0, str(SRC))
    dv = importlib.import_module("devissage")
    importlib.import_module("devissage.cli")
    if not Path(dv.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"devissage was imported from {dv.__file__}")
    return dv


def print_metrics(prefix: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{prefix}{name:<28} {m['value']:>16.6f} {m['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in a fresh process so that
    peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                capture_output=True, text=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            print_metrics(f"{workload}/", result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{workload}/{k}": v
                                        for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which makes both runs")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        dv = import_package()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        result, detail = run_workload(dv, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_metrics("", result)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
