#!/usr/bin/env python3
"""The benchmark's own test: every workload at its smoke size, untraced
and traced, with the correctness gate on.

    python3 perfbench/test_smoke.py

Each run must exit 0, report correct=true with no failed requests, and
print exactly the metric names BENCHMARK.json lists for its kind.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": sorted(m["name"] for m in spec["end_to_end"]),
        "1": sorted(m["name"] for m in spec["per_layer"]),
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", trace, "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0:
                problems.append("exit %d" % proc.returncode)
            try:
                result = json.loads(lines[-1]) if lines else {}
            except json.JSONDecodeError:
                result = {}
            if not result.get("correct"):
                problems.append("not correct")
            if result.get("failed", 1) != 0:
                problems.append("failed=%s" % result.get("failed"))
            if sorted(result.get("metrics", {})) != expected[trace]:
                problems.append("metric names differ from BENCHMARK.json")
            status = "ok" if not problems else "FAIL (%s)" % ", ".join(problems)
            print("%-12s trace=%s  %s" % (workload, trace, status))
            if problems:
                failures += 1
                sys.stderr.write(proc.stderr[-3000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
