#!/usr/bin/env python3
"""End-to-end benchmark of the QuGeo reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench binary (perfbench/CMakeLists.txt, Release, into
.bench_build/perfbench) from the checkout's sources on first use, runs one
workload in a child process whose environment holds no QUGEO_* variable, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
Any build failure, failed correctness check or missing metric exits
non-zero without a result line. See perfbench/README.md for the workloads.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def scratch_env():
    """The environment minus QUGEO_* variables, with temporary files kept
    inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUGEO_")}
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    """Configure once, then let the build tool decide what is stale."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=scratch_env()).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        expected = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the metric list from BENCHMARK.json: {e}")
    build()

    env = scratch_env()
    cleared = sorted(k for k in os.environ if k.startswith("QUGEO_"))
    if cleared:
        print("perfbench: cleared " + ", ".join(cleared), file=sys.stderr)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(ROOT, ".bench_build", f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"workload run failed (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    metrics = {}
    for name, unit in expected.items():
        m = result["metrics"].get(name)
        if m is None:
            fail(f"metric {name} missing")
        if m["unit"] != unit or not math.isfinite(m["value"]):
            fail(f"metric {name} = {m} does not match unit {unit}")
        metrics[name] = m
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
