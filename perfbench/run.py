#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the salnov library and the
benchmark program from source (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), fits each workload's pipeline once with a fixed seed
(cached next to the build, refitted when the cache is stale or corrupt), then
runs the workload. The program's report is relayed to stdout; the last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. Exits non-zero, printing no result, when anything fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, stdout, env=None):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (compilers, set-up processes) is killed and reaped; returns
    None then, else (returncode, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def run_quiet(cmd, timeout, env=None):
    """Runs a build/fit step with its output sent to stderr."""
    done = run_group(cmd, timeout, sys.stderr, env)
    if done is None:
        fail(f"timed out: {' '.join(map(str, cmd))}", 1)
    if done[0] != 0:
        fail(f"failed ({done[0]}): {' '.join(map(str, cmd))}", 1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"salnov sources not found under {ROOT}; run from a source checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(known)}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    # The compiler's temporary files stay inside the checkout too.
    build_env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, build_env)
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench_main", "-j", str(nproc())],
              BUILD_TIMEOUT_S, build_env)
    program = build_dir / "perfbench_main"

    # Every workload's pipeline is fitted on the first run in a checkout, so
    # no later run pays for a fit.
    cache_dir = build_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    run_quiet([program, "fit", "--cache-dir", cache_dir], BUILD_TIMEOUT_S)

    trace_file = build_dir / "traces" / f"{args.workload}-seed{args.seed}.spans.tsv"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    cmd = [program, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", cache_dir, "--trace-file", trace_file]
    done = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if done is None:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    returncode, stdout = done
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"perfbench_main exited {returncode} without a result", 1)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"perfbench_main metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(expected.items())}", 1)
    if returncode != 0 or not result["correct"]:
        # A correctness failure or a failed frame still shows its tally, but
        # the run fails.
        print(f"perfbench: perfbench_main exited {returncode}, correct={result['correct']}", file=sys.stderr)
        print(json.dumps(result))
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
