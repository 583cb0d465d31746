"""Every name a ``devissage`` module exports in ``__all__`` exists, so
``from devissage.<module> import *`` never fails on a stale entry, and
every package attribute the benchmark harness calls resolves."""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import devissage

MODULES = ["devissage"] + [f"devissage.{m.name}"
                           for m in pkgutil.iter_modules(devissage.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# --- what the benchmark harness calls ------------------------------------------

BENCH = Path(__file__).parents[1] / "perfbench" / "run.py"
# ``getattr(dv, f"<prefix>{route}")`` calls, per prefix the routes it completes
GETATTR_NAMES = {"assemble_": ("direct", "recursive")}


def benchmark_calls() -> list[str]:
    """Every ``dv.<path>`` the harness names, plus its getattr names; the
    traced function table is left out, since the harness skips a missing
    one by design."""
    text = BENCH.read_text()
    prefixes = set(re.findall(r'getattr\(dv, f"(\w+)\{', text))
    assert prefixes <= set(GETATTR_NAMES), prefixes - set(GETATTR_NAMES)
    return sorted(set(re.findall(r"\bdv\.([A-Za-z_][\w.]*\w)", text))
                  | {p + r for p in prefixes for r in GETATTR_NAMES[p]})


def resolves(path: str) -> bool:
    try:
        functools.reduce(getattr, path.split("."), devissage)
    except AttributeError:
        return False
    return True


def test_benchmark_calls_resolve_on_the_package():
    import devissage.cli  # noqa: F401  (the harness reaches dv.cli)

    calls = benchmark_calls()
    assert {"parse_config_text", "cli.main", "corpus.line_cycle",
            "assemble_direct", "assemble_recursive"} <= set(calls)
    assert [path for path in calls if not resolves(path)] == []


# the CLI and the corpus are reached by their module names only
@pytest.mark.parametrize("name", [m for m in MODULES[1:]
                                  if m not in ("devissage.cli", "devissage.corpus")])
def test_the_package_reexports_every_module_export(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__
            if getattr(devissage, n, None) is not getattr(module, n)] == []
