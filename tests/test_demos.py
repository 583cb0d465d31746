"""Every demo, and the README's library example, runs to completion without
writing to standard error."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```",
                             (ROOT / "README.md").read_text(encoding="utf-8"),
                             re.MULTILINE | re.DOTALL)
RUNS = ([pytest.param([str(p)], id=p.name) for p in DEMOS]
        + [pytest.param(["-c", code], id="README.md") for code in README_EXAMPLES])


def test_demos_are_found():
    # an empty glob or match would parametrize no test at all
    assert DEMOS and README_EXAMPLES


@pytest.mark.parametrize("args", RUNS)
def test_demo_runs_cleanly(args):
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
