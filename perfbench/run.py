#!/usr/bin/env python3
"""Build and run the round-service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload settle --seed 1 --seconds 25 --trace 0

builds the benchmark (a cargo package of its own, depending on the
repository's crates by path) in release mode, runs the named workload in a
process of its own and relays its output. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Without ``--workload`` every workload runs in turn, each in its
own process, and the last line merges their results, naming each metric
``<workload>.<metric>``.

The build goes to ``$CARGO_TARGET_DIR`` (default ``.bench_build``); journals,
record streams and span dumps go to ``.bench_build/perfbench-work``. If the
build or a workload fails, the script exits non-zero and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("settle", "converge", "replay")
# A workload must finish well inside the 180 s a run is allowed.
WORKLOAD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; kills it and waits if it overruns."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def build(root, target_dir):
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    binary = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_workload(binary, args, workload, work_dir):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    done = run(cmd, WORKLOAD_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"workload {workload} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"workload {workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"workload {workload} printed a malformed result")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(root, target_dir)
    work_dir = os.path.join(root, ".bench_build", "perfbench-work")
    binary = build(root, target_dir)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in workloads:
        print(f"== workload {workload} seed {args.seed} trace {args.trace}")
        results[workload] = run_workload(binary, args, workload, work_dir)
    if args.workload:
        print(json.dumps(results[args.workload]))
        return
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
        },
    }
    for workload, result in results.items():
        print(f"{workload}: {json.dumps(result)}")
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
