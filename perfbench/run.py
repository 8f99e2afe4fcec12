#!/usr/bin/env python3
"""Builds and runs the repository benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload fig2_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The engine is compiled from ../src into
$CARGO_TARGET_DIR (default .bench_build) on first use. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list (0 for a layer the workload never enters). The line
before it carries the seed, the host
fingerprint and the sample counts. Full reports, span traces and the
deterministic counters land in $CARGO_TARGET_DIR/perfbench-out/.

Deterministic counters (pages, seeks, rows scanned, WAL records and bytes,
c-table pages) must repeat exactly across runs of the same source tree at
one seed: a run whose counter digest differs from an earlier run's is
reported as incorrect.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig2_cold", "adhoc_warm", "append_fresh")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def source_digest():
    """Hash of everything that decides the benchmark's counters."""
    h = hashlib.sha256()
    files = [HERE / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
    ]
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def check_counters(out_dir, key, report):
    """Fails the run when an earlier run of the same key saw other counters."""
    path = out_dir / "digests.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    digest = report["deterministic_digest"]
    if key in seen and seen[key] != digest:
        print(f"perfbench: DETERMINISTIC COUNTERS CHANGED for {key}: "
              f"{seen[key]} -> {digest}", file=sys.stderr)
        return False
    seen[key] = digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale-factor", type=float, default=0.01,
                    help="TPC-H scale factor (the benchmark's is 0.01)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tdir = target_dir()
    binary = build(tdir / "perfbench-build")
    out_dir = tdir / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale-factor", repr(args.scale_factor), "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no report from the benchmark binary")
    report = json.loads(lines[-1])

    correct = bool(report["correct"])
    failed = int(report["failed"])
    key = (f"{args.workload}/seed={args.seed}/sf={args.scale_factor}/"
           f"seconds={args.seconds}/src={source_digest()}")
    if not check_counters(out_dir, key, report):
        correct = False
        failed += 1

    metrics = {}
    not_exercised = []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None and args.trace:
            # A layer this workload never enters (c-table builds on
            # append_fresh, WAL on fig2_cold, ...) did no work.
            not_exercised.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail(f"metric {m['name']} was not produced")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"metric {m['name']} is not a finite number")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    report["not_exercised"] = not_exercised
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "workload": report["workload"], "seed": report["seed"],
        "scale_factor": report["scale_factor"], "host": report["host"],
        "samples": report["samples"], "errors": report["errors"],
        "report": str(out_dir / f"{stem}.report.json"),
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
