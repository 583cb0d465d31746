"""Command line entry point.

``devissage <config-file> [flags]`` validates the configuration, assembles
the fundamental-group presentation (directly, and recursively when there is
more than one singular locus), optionally cross-verifies the assembly
against the cover census, and writes one JSON report.

Exit codes: 0 ok, 1 usage or parse error or a file that cannot be read or
written, 2 semantic/validation error or a computation that failed (such as a
recursion limit), 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .assembly import assemble_direct, assemble_recursive
from .configuration import Configuration, free_rank, validate_config
from .covers import equivalence_report
from .discreteness import discreteness_verdict
from .homs import fingerprint
from .perms import PermGroupTarget, cyclic, symmetric
from .serialize import (ConfigParseError, ConfigSemanticError, emit_assembly,
                        emit_discreteness, emit_equivalence, emit_fingerprint,
                        parse_config, render_report)

__all__ = ["main", "run", "parse_probes"]

DEFAULT_PROBES = "Z2,Z3,S3"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(message)


def parse_probes(spec: str) -> tuple[PermGroupTarget, ...]:
    """Comma list of probe names: S<n> symmetric, Z<n> or Z/<n> cyclic."""
    probes = []
    for token in spec.split(","):
        token = token.strip()
        m = re.fullmatch(r"([SZ])[_/]?(\d+)", token)
        if not m:
            raise UsageError(f"bad probe {token!r} (expected S<n> or Z<n>)")
        kind, n = m.group(1), int(m.group(2))
        if n < 1 or n > 6:
            raise UsageError(f"probe size {n} out of range 1..6")
        probes.append(symmetric(n) if kind == "S" else cyclic(n))
    return tuple(probes)


def _build_parser() -> _Parser:
    parser = _Parser(prog="devissage",
                     description="Assemble and verify fundamental-group "
                                 "presentations of glued configurations.")
    parser.add_argument("config", help="configuration file (JSON)")
    parser.add_argument("--max-degree", type=int, default=4, metavar="D",
                        help="cover census depth for --verify (default 4)")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check the assembly against the cover census")
    parser.add_argument("--method", choices=("direct", "both"), default="both",
                        help="assembly routes: direct alone, or also recursive "
                             "when there are two or more singulars (default both)")
    parser.add_argument("--probes", default=DEFAULT_PROBES, metavar="LIST",
                        help=f"fingerprint probe groups (default {DEFAULT_PROBES})")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the report here instead of standard output")
    parser.add_argument("--discreteness", default=None, metavar="PATH",
                        help="JSON file of per-node discreteness verdicts")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock phase timings in the report "
                             "(makes reports non-reproducible)")
    return parser


def run(cfg: Configuration, *, max_degree: int = 4, verify: bool = False,
        method: str = "both", probes: tuple[PermGroupTarget, ...] | None = None,
        restrictions: dict[str, str] | None = None,
        timings: bool = False) -> tuple[dict, bool]:
    """Assemble, fingerprint, optionally verify; returns (report, all passed)."""
    if method not in ("direct", "both"):
        raise ValueError(f"method must be 'direct' or 'both', not {method!r}")
    probes = probes or parse_probes(DEFAULT_PROBES)
    # a bad verdicts file fails before the search, not after it
    verdict = None if restrictions is None else discreteness_verdict(cfg, restrictions)
    clock: dict[str, float] = {}

    def phase(name: str, fn):
        start = time.monotonic()
        out = fn()
        clock[name] = 1000 * (time.monotonic() - start)
        return out

    report: dict = {
        "config": {
            "components": [c.id for c in cfg.components],
            "singulars": [s.id for s in cfg.singulars],
            "edges": [e.id for e in cfg.edges],
        },
        "rank": free_rank(cfg),
    }

    results = {"direct": phase("assemble_direct", lambda: assemble_direct(cfg))}
    if len(cfg.singulars) >= 2 and method == "both":
        results["recursive"] = phase("assemble_recursive",
                                     lambda: assemble_recursive(cfg))

    report["assemblies"] = {name: emit_assembly(res)
                            for name, res in results.items()}
    fps = {name: phase(f"fingerprint_{name}",
                       lambda res=res: fingerprint(res.presentation, probes))
           for name, res in results.items()}
    report["fingerprints"] = {name: emit_fingerprint(fp) for name, fp in fps.items()}

    passed = True
    methods_agree = len({fp.counts for fp in fps.values()}) == 1
    passed &= methods_agree
    if verify:
        equiv = phase("equivalence",
                      lambda: equivalence_report(cfg, results["direct"], max_degree))
        report["verification"] = {
            "max_degree": max_degree,
            "census_vs_reps": emit_equivalence(equiv),
            "methods_agree": methods_agree,
        }
        passed &= equiv.passed

    if verdict is not None:
        report["discreteness"] = emit_discreteness(verdict)

    if timings:
        report["timings_ms"] = {k: round(v, 3) for k, v in clock.items()}
    return report, passed


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        probes = parse_probes(args.probes)
        if args.max_degree < 1:
            raise UsageError("--max-degree must be at least 1")
    except UsageError as exc:
        print(f"devissage: error: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(args.config)
    except FileNotFoundError:
        print(f"devissage: error: no such file: {args.config}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"devissage: error: cannot read {args.config}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except ConfigSemanticError as exc:
        print(f"devissage: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ConfigParseError as exc:
        print(f"devissage: parse error: {exc}", file=sys.stderr)
        return 1

    problems = validate_config(cfg)
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        print(f"devissage: invalid configuration: {problems[0]}{more}", file=sys.stderr)
        return 2

    restrictions = None
    if args.discreteness:
        import json
        try:
            with open(args.discreteness, encoding="utf-8") as fh:
                restrictions = json.load(fh)
            if not isinstance(restrictions, dict):
                raise ValueError("expected an object of node ids to verdicts")
        except (OSError, ValueError, RecursionError) as exc:
            print(f"devissage: error reading verdicts: {exc}", file=sys.stderr)
            return 1

    try:
        report, passed = run(cfg, max_degree=args.max_degree, verify=args.verify,
                             method=args.method, probes=probes,
                             restrictions=restrictions, timings=args.timings)
    except (ValueError, RuntimeError) as exc:  # RecursionError is a RuntimeError
        print(f"devissage: error: {exc}", file=sys.stderr)
        return 2

    text = render_report(report)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"devissage: error: cannot write {args.report}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    if not passed:
        print("devissage: verification failed: the routes or the census disagree",
              file=sys.stderr)
    return 0 if passed else 3


if __name__ == "__main__":
    sys.exit(main())
