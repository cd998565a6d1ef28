#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at reduced mesh sizes.

Usage (from the repository root):

    python3 perfbench/smoke_test.py

Runs every workload once untraced and once traced through perfbench/run.py
with --size smoke, and checks that
  * run.py exits 0, which it does only if the printed metric names and
    units match BENCHMARK.json in both directions (end_to_end untraced,
    per_layer traced), and
  * no gate failed: correct is true, failed is 0 and pass_rate is 1.
Exits non-zero on the first problem found.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", wl, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            tag = f"{wl} trace={trace}"
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit code {proc.returncode}")
                print(f"FAIL {tag}", flush=True)
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if not trace and result["metrics"]["pass_rate"]["value"] != 1.0:
                problems.append(f"{tag}: pass_rate "
                                f"{result['metrics']['pass_rate']['value']}")
            print(("ok  " if len(problems) == before else "FAIL") + " " + tag,
                  flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
