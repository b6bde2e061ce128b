#!/usr/bin/env python3
"""Builds and runs the SPECTRE end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <datapath|speculate|server|disorder> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own that depends on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and relays its output. The last line of
standard output is the result object; see `perfbench/README.md`. Exits
non-zero, without a result line, if the build fails or the run ends
without a well-formed result, and non-zero after the result line if an
output did not match the sequential reference.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("datapath", "speculate", "server", "disorder")
BUILD_TIMEOUT_S = 840
# Longest a measuring run may take beyond its --seconds (set-up, reference,
# the pass in flight and a stalled pass's deadline).
RUN_SLACK_S = 120
RUN_CAP_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and all(
            isinstance(m, dict) and set(m) == {"value", "unit"}
            for m in result["metrics"].values()
        )
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    binary = os.path.join(ROOT, target, "release", "spectre-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    started = time.monotonic()
    limit = min(args.seconds + RUN_SLACK_S, RUN_CAP_S)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {limit} s and was killed")
    lines = out.rstrip("\n").split("\n")
    if not check_result(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(
            f"run exited with code {proc.returncode} after "
            f"{time.monotonic() - started:.1f} s without a valid result"
        )
    # A result with "correct": false comes with a non-zero exit code.
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
