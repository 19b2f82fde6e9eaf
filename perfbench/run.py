#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the simulator
sources it compiles are built with CMake (Release) into the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset. Build
output goes to stderr; stdout carries the benchmark's report, whose
last line is the JSON result. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = 4


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_checked(cmd, **kwargs):
    """Run cmd to completion; the child never outlives this call."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(out):
    """Configure and build into out; return the binary's path or None."""
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out, "-j", str(BUILD_JOBS)]
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if run_checked(configure, **quiet) != 0:
        # A build tree configured for another source path (a moved
        # checkout) cannot be reused: start it afresh, once.
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            return None
        shutil.rmtree(out)
        if run_checked(configure, **quiet) != 0:
            return None
    if run_checked(compile_, **quiet) != 0:
        return None
    binary = os.path.join(out, "vans_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (the benchmark's tests)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed (see above)", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    # One host thread, and none of the library's own verification or
    # tracing: both would be measured as simulator time.
    env = dict(os.environ, VANS_THREADS="1")
    env.pop("VANS_VERIFY", None)
    env.pop("VANS_TRACE", None)
    sys.stdout.flush()
    return run_checked(cmd, env=env, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
