#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload explore_gz --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the engine library from ../src) into the directory
named by $CARGO_TARGET_DIR, default .bench_build. Inputs are generated from
--seed into .bench_run/ and removed afterwards; traced runs leave their spans
in .bench_run/trace-<workload>-<seed>.jsonl.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
It is printed only when the metric names match BENCHMARK.json (end_to_end
for --trace 0, per_layer for --trace 1). The exit code is perfbench's: 0 when
every answer was right, 1 on a failed or wrong query, 2 on a set-up error,
3 on a hang; 4 when the result does not match BENCHMARK.json or the run
overran.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, args):
    run_dir = os.path.join(ROOT, ".bench_run")
    data_dir = os.path.join(run_dir, "data-%d" % os.getpid())
    os.makedirs(data_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            run_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log("perfbench overran %d s; killed" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    if result is None:
        log("perfbench exited %d without a result" % child.returncode)
        return child.returncode or 4
    names = set(result["metrics"])
    wanted = expected_metrics(args.trace)
    if names != wanted:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(wanted - names), sorted(names - wanted)))
        return 4
    print(json.dumps(result), flush=True)
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["explore_gz", "serve", "tpch"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the percentile rule and failed_frac "
                        "accounting, then exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
