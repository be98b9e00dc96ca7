#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/test_smoke.py        (from the root of the repository)

Checks that every workload prints each of its named end-to-end figures with
its unit, that the JSON result carries exactly the metrics BENCHMARK.json
names with their units (end-to-end untraced, per-layer traced), that each
correctness gate fails the run on one deliberately corrupted input, and that
the command fails without printing a result where there is nothing to build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The figures each workload prints by name, with their units.
NAMED = {
    "join-needles": [
        ("join_brute_s", "s"),
        ("join_alsh_s", "s"),
        ("join_auto_s", "s"),
        ("recall_alsh", "ratio"),
    ],
    "serve-read": [
        ("setup_s", "s"),
        ("index_bytes", "bytes"),
        ("query_p50_us.r400", "us"),
        ("query_p50_us.r800", "us"),
        ("peak_qps", "1/s"),
        ("failed_ratio", "ratio"),
    ],
    "serve-churn": [
        ("setup_s", "s"),
        ("query_p50_us.r400", "us"),
        ("query_p99_ms.r400", "ms"),
        ("write_p50_us", "us"),
        ("failed_ratio", "ratio"),
    ],
}

# One corrupted input per correctness gate, on the workload that owns it.
GATES = [
    ("join-needles", "pair"),
    ("serve-read", "reply"),
    ("serve-read", "stats"),
    ("serve-churn", "hit"),
    ("serve-churn", "stats"),
]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [
        sys.executable,
        os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "2",
        "--trace", str(trace),
        "--smoke",
        *extra,
    ]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def result(lines):
    return json.loads(lines[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def expect_metrics(self, res, declared):
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics_print_with_units(self):
        for workload, named in NAMED.items():
            with self.subTest(workload=workload):
                code, lines = run(workload, 0)
                self.assertEqual(code, 0, "\n".join(lines[-10:]))
                res = result(lines)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.expect_metrics(res, self.spec["end_to_end"])
                for value in res["metrics"].values():
                    self.assertGreater(value["value"], 0)
                for name, unit in named:
                    prefix = f"e2e {name} = "
                    line = next((l for l in lines if l.startswith(prefix)), None)
                    self.assertIsNotNone(line, f"{name} not printed")
                    self.assertEqual(line[len(prefix):].split()[1], unit, line)

    def test_traced_run_reports_every_layer(self):
        for workload in NAMED:
            with self.subTest(workload=workload):
                code, lines = run(workload, 1)
                self.assertEqual(code, 0, "\n".join(lines[-10:]))
                res = result(lines)
                self.assertTrue(res["correct"])
                self.expect_metrics(res, self.spec["per_layer"])
                self.assertTrue(any(l.startswith("overhead ") for l in lines))
                spans = os.path.join(HERE, "out", f"spans-{workload}-seed7.jsonl")
                with open(spans) as f:
                    first = json.loads(f.readline())
                self.assertEqual(
                    set(first),
                    {"id", "parent", "request", "name", "start_ns", "end_ns", "self_ns"},
                )

    def test_each_gate_fires_on_a_corrupted_input(self):
        for workload, gate in GATES:
            with self.subTest(workload=workload, gate=gate):
                code, lines = run(workload, 0, "--inject", gate)
                self.assertNotEqual(code, 0)
                res = result(lines)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertTrue(any(l.startswith("FAILED: ") for l in lines))

    def test_fails_without_a_result_where_nothing_builds(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                HERE,
                os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("out", "target", "Cargo.lock", "__pycache__"),
            )
            code, lines = run("serve-read", 0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
