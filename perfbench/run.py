#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hiergd-compat --seed 1 --seconds 35 --trace 0

The benchmark crate (this directory) is compiled in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then run in a single process
with the simulator's work-stealing pool pinned to one thread. Its output
is passed through; the last line is the JSON result. Any failure (the
build, the run, or a missing or malformed result) exits non-zero without
printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "webcache-perfbench"
# The run itself must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", BINARY)


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main(argv):
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target_dir)
    env = dict(os.environ, WEBCACHE_THREADS="1")
    try:
        done = subprocess.run(
            [binary] + argv, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or parse_result(lines[-1]) is None:
        sys.stderr.write(done.stdout)
        fail(f"run failed with exit code {done.returncode} and no result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
