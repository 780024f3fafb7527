#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; its output goes to standard error. The
benchmark binary then prints the environment record, one line per repetition, and as
its last line the JSON result. Traced runs also write the profiler's phase tree to
<build dir>/traces. Exit status is the binary's: 0 when every output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["overlay_route", "overlay_route_k2", "fl_multiapp", "fl_churn"]
# A run repeats its workload for --seconds and then finishes the repetition in hand;
# the slowest repetition is well under a minute.
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources next to perfbench/; run from a full checkout")
    steps = []
    # Once configured, `cmake --build` re-runs configuration itself when a CMake file
    # changes, so later runs skip straight to the (usually no-op) build.
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "totoro_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    overrides = sorted(k for k in os.environ if k.startswith("TOTORO_"))
    if overrides:
        fail("unset every TOTORO_* knob to benchmark: " + ", ".join(overrides))
    if args.seed < 0:
        fail("--seed takes a non-negative integer")

    out = build_dir()
    binary = build(out)
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--trace-dir", traces]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
