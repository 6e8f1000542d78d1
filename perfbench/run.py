#!/usr/bin/env python3
"""Runs one workload of the MultiLog repo benchmark.

    python3 perfbench/run.py --workload read_serve --seed 7 --seconds 15 --trace 0

Run from the root of a checkout. It builds multilogd and the mlbench
load generator from the checkout's sources into .bench_build/perfbench
(the first run compiles; later runs only re-check), then runs mlbench,
which spawns real multilogd processes, drives them over loopback
sockets and prints every metric by name with its unit. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each run also leaves a record (commit, source digest, build type, nproc,
seed, |Sigma|, sample counts) in .bench_build/runs/<run>/record.json.

Pass --smoke for a seconds-long run at a small |Sigma| (the benchmark's
own test, perfbench/test_smoke.py, runs every workload that way).
Exits non-zero on any answer divergence, and when the checkout has no
MultiLog sources to build.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("read_serve", "write_churn", "cold_build", "routed")


def source_digest():
    """sha256 over every file under src/, so a record names the code it
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    """Configures once, then builds the daemon and the generator. All
    build output goes to stderr so stdout stays the benchmark's."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-G", generator,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "multilogd",
                  "mlbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "server",
                                       "multilogd_main.cc")):
        print("perfbench: no MultiLog sources in " + ROOT, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run_dir = os.path.join(
        ROOT, ".bench_build", "runs",
        "%s-s%d-t%s-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "mlbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--multilogd", os.path.join(BUILD_DIR, "multilog", "server",
                                       "multilogd"),
           "--work", run_dir,
           "--commit", git_commit() + "+src:" + source_digest(),
           "--build-type", BUILD_TYPE]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
