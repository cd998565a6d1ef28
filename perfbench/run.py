#!/usr/bin/env python3
"""Build and run the miniFROSch measured benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload laplace-tacho --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload in its own process.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the metric
names and units are checked against BENCHMARK.json first (end_to_end for
--trace 0, per_layer for --trace 1).  --trace 1 also writes the span
timeline as Chrome Trace Event JSON next to the build.

Exit codes: 0 all gates passed; 1 a correctness gate failed; 2 the build or
the inputs are missing; 3 the printed metrics do not match BENCHMARK.json;
4 the workload did not finish in time.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("laplace-tacho", "elasticity-ilu-batch", "convdiff-mlevel-sequence")
# Time a run may take beyond --seconds: input generation, the last cycle
# (which starts before the deadline), and the traced run's replays.
RUN_MARGIN_S = 140


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then lets the build tool bring the binary up to date."""
    if not (ROOT / "src" / "frosch.hpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return None
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    exe = out / "perfbench"
    return exe if exe.is_file() else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns a list of problems with the result object (empty if none)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append(f"metric {name}: unit {got[name]} != {want[name]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: reduced meshes for the benchmark's smoke test")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    if exe is None:
        log("build failed")
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.size == "smoke":
        cmd.append("--smoke")
    if args.trace:
        trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_file)]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {timeout:g} s")
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line (exit code {proc.returncode})")
        return proc.returncode or 2
    if proc.returncode != 0 or result.get("failed", 0) != 0:
        # A failed gate: pass the result through, with its counts.
        print("\n".join(lines), flush=True)
        log(f"{result.get('failed')} of {result.get('attempted')} "
            "operations failed a gate")
        return proc.returncode or 1
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            log(p)
        return 3
    print("\n".join(lines), flush=True)
    if args.trace:
        log(f"span timeline: {trace_file}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
