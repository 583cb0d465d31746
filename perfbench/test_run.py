"""Self-tests of perfbench/run.py.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

dv = run.import_package()


def _ops(middle: run.Op) -> list[run.Op]:
    return [run.Op("first", "x", lambda st: 1, observe=int, expect=1, save="one"),
            middle,
            run.Op("last", "x", lambda st: st["one"] + 1, observe=int, expect=2)]


def _raise(state: dict) -> None:
    raise RecursionError("injected")


class FailureAccounting(unittest.TestCase):
    def test_wrong_known_answer_is_one_failed_operation(self):
        outcomes = run.run_pass(_ops(run.Op("wrong", "x", lambda st: 3, observe=int,
                                            expect=4)), limit=1.0)
        self.assertEqual([o.name for o in outcomes], ["first", "wrong", "last"])
        self.assertEqual([o.name for o in outcomes if o.failed], ["wrong"])
        self.assertTrue(outcomes[1].mismatch)

    def test_exception_is_one_failed_operation(self):
        outcomes = run.run_pass(_ops(run.Op("boom", "x", _raise, observe=int,
                                            expect=1)), limit=1.0)
        self.assertEqual([o.name for o in outcomes if o.failed], ["boom"])
        self.assertFalse(outcomes[1].mismatch)
        self.assertIn("RecursionError: injected", outcomes[1].error)

    def test_failed_operation_is_charged_at_the_limit(self):
        outcomes = run.run_pass(_ops(run.Op("boom", "x", _raise)), limit=5.0)
        wall = run.charged_wall(outcomes, limit=5.0)
        self.assertGreaterEqual(wall, 5.0)
        self.assertLess(wall, 5.5)

    def test_wrong_known_answer_on_real_operations(self):
        answer = dict(run.load_known()["nodal_cubic"], fingerprint=[2, 3, 7])
        text = json.dumps(dv.emit_config(dv.corpus.nodal_cubic()))
        ops = run.config_ops(dv, "nodal_cubic", text, answer, ("direct",), (1, 2, 3))
        outcomes = run.run_pass(ops, limit=10.0)
        self.assertEqual(len(outcomes), len(ops))
        self.assertEqual([o.name for o in outcomes if o.failed],
                         ["nodal_cubic:direct:fingerprint"])

    def test_injected_exception_on_real_operations(self):
        answer = run.load_known()["nodal_cubic"]
        text = json.dumps(dv.emit_config(dv.corpus.nodal_cubic()))
        ops = run.config_ops(dv, "nodal_cubic", text, answer, ("direct",), (1, 2, 3))
        census = next(op for op in ops if op.name == "nodal_cubic:census:d2")
        census.call = _raise
        outcomes = run.run_pass(ops, limit=10.0)
        self.assertEqual(len(outcomes), len(ops))
        self.assertEqual([o.name for o in outcomes if o.failed],
                         ["nodal_cubic:census:d2"])


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "op", "start": 0.0, "end": 10.0, "parent": None,
             "op": "a", "degree": None, "work": None, "error": False},
            {"id": 1, "name": "assembly.recursive", "start": 1.0, "end": 9.0,
             "parent": 0, "op": "a", "degree": None, "work": [5, 4], "error": False},
            {"id": 2, "name": "assembly.direct", "start": 2.0, "end": 5.0,
             "parent": 1, "op": "a", "degree": None, "work": [3, 2], "error": False},
            {"id": 3, "name": "covers.census", "start": 5.0, "end": 6.0,
             "parent": 1, "op": "a", "degree": 2, "work": 7, "error": True},
        ]
        m = run.layer_metrics(spans)
        self.assertEqual(m["assembly.recursive_s"], 4.0)
        self.assertEqual(m["assembly.direct_s"], 3.0)
        self.assertEqual(m["covers.census_s.d2"], 1.0)
        self.assertEqual(m["covers.failed"], 1)
        self.assertEqual(m["covers.census.classes"], 7)
        # a direct assembly inside a recursive one is not counted again
        self.assertEqual(m["assembly.recursive.generators"], 5)
        self.assertEqual(m["assembly.direct.generators"], 0)

    def test_install_wraps_and_uninstall_restores(self):
        original = dv.enumerate_tuples
        tracer = run.Tracer()
        tracer.install()
        try:
            self.assertIsNot(dv.enumerate_tuples, original)
            self.assertIsNot(dv.covers.enumerate_tuples, original)
            dv.enumerate_tuples(dv.corpus.nodal_cubic(), 2)
        finally:
            tracer.uninstall()
        self.assertIs(dv.enumerate_tuples, original)
        self.assertIs(dv.covers.enumerate_tuples, original)
        [span] = tracer.spans
        self.assertEqual((span["name"], span["degree"], span["work"]),
                         ("covers.census", 2, 1))


class Relabelling(unittest.TestCase):
    def test_seed_zero_keeps_the_input(self):
        doc = dv.emit_config(dv.corpus.z2_double_bouquet())
        self.assertIs(run.relabel(doc, 0, "x"), doc)

    def test_relabelled_input_keeps_its_counts(self):
        doc = dv.emit_config(dv.corpus.z2_double_bouquet())
        new = run.relabel(doc, 7, "z2_double_bouquet")
        self.assertEqual(new, run.relabel(doc, 7, "z2_double_bouquet"))
        old_ids = {item["id"] for key in ("components", "singulars", "edges")
                   for item in doc[key]}
        new_ids = {item["id"] for key in ("components", "singulars", "edges")
                   for item in new[key]}
        self.assertEqual(len(new_ids), len(old_ids))
        self.assertFalse(old_ids & new_ids)
        cfg = dv.parse_config_text(json.dumps(new))
        self.assertEqual(dv.validate_config(cfg), [])
        answer = run.load_known()["z2_double_bouquet"]
        probes = dv.cli.parse_probes(run.PROBES)
        for route in (dv.assemble_direct, dv.assemble_recursive):
            fp = dv.fingerprint(route(cfg).presentation, probes)
            self.assertEqual(list(fp.counts), answer["fingerprint"])
        for d in (1, 2, 3):
            self.assertEqual(len(dv.enumerate_tuples(cfg, d)), answer["census"][d - 1])


class Output(unittest.TestCase):
    """Runs run.py from the checkout root, as the benchmark command, on the
    cheapest workload."""

    @classmethod
    def setUpClass(cls):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def run_benchmark(self, trace: int) -> tuple[list[str], dict]:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cycle_wide",
             "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
        lines = proc.stdout.splitlines()
        return lines, json.loads(lines[-1])

    def check(self, trace: int, key: str) -> None:
        lines, result = self.run_benchmark(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        wanted = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, wanted)
        for name, unit in wanted.items():
            self.assertTrue(any(line.split()[0::2] == [name, unit] for line in lines),
                            f"{name} [{unit}] is not printed")
        self.assertGreaterEqual(result["attempted"], 1)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")

    def test_fails_without_the_source_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            (Path(tmp) / "perfbench").mkdir()
            for path in HERE.glob("*.py"):
                shutil.copy(path, Path(tmp) / "perfbench")
            shutil.copy(HERE / "known_answers.json", Path(tmp) / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus_deep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
