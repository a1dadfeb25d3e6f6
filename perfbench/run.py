#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_88x72 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the vf_core library from the checkout's own sources)
in Release under $CARGO_TARGET_DIR (default .bench_build), runs the
benchmark's self-tests, then the workload. With --trace 0 it also runs
several set-up-only processes and reports the median set-up time and peak
memory over them and the main run (each process reads both before the
oracle allocates anything); with --trace 1 it writes the span trace under
the build directory. The last line of standard output is the result JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 16  # set-up-only processes, half before and half after the
                 # main run; with it, 17 samples
BUILD_DEADLINE_S = 850.0  # a fresh checkout compiles vf_core first
RUN_DEADLINE_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, deadline, **kw):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=remaining, text=True,
                              capture_output=True, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def build(deadline):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = [["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]]
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        r = run(cmd, deadline)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir, os.path.join(build_dir, "perfbench")


def last_json(r, what):
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(r.stderr)
        fail(f"{what} printed nothing (exit {r.returncode})")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(r.stdout[-4000:] + r.stderr)
        fail(f"{what} did not end with a JSON line (exit {r.returncode})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build_dir, exe = build(time.monotonic() + BUILD_DEADLINE_S)
    deadline = time.monotonic() + RUN_DEADLINE_S
    r = run([exe, "--self-test"], deadline)
    sys.stderr.write(r.stdout)
    if r.returncode != 0:
        fail("self-tests failed")
    if args.self_test:
        return

    base = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    samples = {"setup_s": [], "peak_rss_mb": []}

    def setup_runs(count):
        # Set-up time and peak memory are one sample per process; take the
        # median of several fresh processes, split around the main run, so
        # neither one cold start nor one busy spell decides them.
        for _ in range(count):
            r = run(base + ["--setup-only"], deadline)
            if r.returncode != 0:
                sys.stderr.write(r.stdout + r.stderr)
                fail("set-up run failed")
            got = last_json(r, "set-up run")[1]
            for name, values in samples.items():
                values.append(got[name])

    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        base += ["--trace-file",
                 os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    else:
        setup_runs(SETUP_RUNS // 2)

    r = run(base, deadline)
    sys.stderr.write(r.stderr)
    lines, result = last_json(r, "benchmark")
    for line in lines:
        print(line)
    if not args.trace and r.returncode == 0:
        setup_runs(SETUP_RUNS - SETUP_RUNS // 2)
        for name, values in samples.items():
            values.append(result["metrics"][name]["value"])
            result["metrics"][name]["value"] = statistics.median(values)
            print(f"{name} samples: " + " ".join(f"{v:.6f}" for v in values))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
