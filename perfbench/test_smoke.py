#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny TPC-H scale factor.

    python3 perfbench/test_smoke.py

Runs every workload untraced and traced through perfbench/run.py at
SF 0.002 for one second, on two seeds, and checks that each metric
BENCHMARK.json names is emitted with its unit and a finite value, that the
correctness checks pass, and that the benchmark refuses to run in a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# adhoc_warm is not in BENCHMARK.json (see README.md) but stays runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["adhoc_warm"]

# Layer metrics each workload must drive away from zero; the rest of the
# per_layer list may read 0 on a workload that never enters that layer.
EXERCISED = {
    "fig2_cold": ["tpch.load_s", "cstore.ctable_build_s", "row_s", "mv_s",
                  "col_s", "col_vs_colopt", "cstore.colopt_s",
                  "exec.row.cpu_s", "storage.row.io_model_s",
                  "storage.col.seq_reads", "index.col.seeks",
                  "obs.row.trace_overhead", "obs.col.trace_overhead",
                  "exec.row.op.ClusteredIndexScan.self_s",
                  "storage.pool_misses"],
    "adhoc_warm": ["cstore.ctable_build_s", "parser.parse_us",
                   "planner.plan_us", "exec.execute_us", "storage.pool_hits"],
    "append_fresh": ["mv.view_build_s", "commit_p50_ms", "commit_p90_ms",
                     "fresh_read_p50_ms", "wal.records_per_txn",
                     "wal.bytes_per_row", "wal.flushes_per_txn",
                     "txn.committed", "mv.rebuilds", "mv.rebuild_ms"],
}


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale-factor", "0.002"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, seed, trace):
        proc = run(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        meta, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(meta["seed"], seed)
        self.assertIn("cpu_model", meta["host"])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], meta["errors"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            for name in EXERCISED[workload]:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_every_workload_untraced_and_traced(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, 1, trace)

    def test_second_seed_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 2, 0)

    def test_refuses_to_run_without_engine_sources(self):
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in HERE.rglob("*"):
            if p.is_file() and "__pycache__" not in p.parts:
                dest = bare / "perfbench" / p.relative_to(HERE)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(p, dest)
        try:
            proc = run(WORKLOADS[0], 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
