#!/usr/bin/env python3
"""Benchmark of the Swala cluster simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the repository. Builds perfbench/main.exe in release
mode from source, then runs one workload: with --trace 0 the end-to-end
metrics of untraced runs, with --trace 1 the per-layer metrics (an untraced
and a traced run plus the replay drivers; the traced breakdown is written to
perfbench/out/). Every metric is printed by name with its unit; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero if the build fails or any
output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune(*args, timeout):
    """Run dune at the repository root; its output goes to stderr. Dune's
    shared cache is off so the build writes only under _build/."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from a full checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(["dune", *args], cwd=ROOT, env=env,
                              stdout=sys.stderr, timeout=timeout)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("dune %s timed out" % " ".join(args))
    if proc.returncode != 0:
        fail("dune %s failed" % " ".join(args))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        dune("build", "--release", "@perfbench/perftest", timeout=BUILD_TIMEOUT)
        return 0
    if not args.workload:
        fail("--workload is required")

    dune("build", "--release", "./perfbench/main.exe", timeout=BUILD_TIMEOUT)
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "layers" if args.trace else "e2e",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit code %d)" % proc.returncode)

    # The result line carries exactly the metrics BENCHMARK.json declares.
    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        fail("metric names differ from BENCHMARK.json: %s" % names)
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
