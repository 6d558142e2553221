#!/usr/bin/env python3
"""Builds and runs the carat-qnm end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload whatif-cached --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the repository's libraries,
the shipped carat_served and the carat_bench harness) into .bench_build/;
later runs rebuild only what changed. Build output goes to standard error.
The last line of standard output is the JSON result; see README.md here.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("whatif-cached", "whatif-solve", "sweep-batch", "testbed")
# The program under test is built from these; without them there is
# nothing to measure.
SOURCES = ("src/CMakeLists.txt", "src/serve/solver_service.h",
           "tools/carat_served.cc")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log("repository sources not found: " + ", ".join(missing))
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "carat_bench",
                  "carat_served", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-malformed-every", type=int, default=0,
                        help="send the malformed query 'lb9 4' as every Nth "
                             "what-if request (self-test)")
    args = parser.parse_args()
    if not build():
        return 1
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "carat_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--served", os.path.join(BUILD, "carat_served"),
           "--trace-dir", traces]
    if args.inject_malformed_every > 0:
        cmd += ["--inject-malformed-every", str(args.inject_malformed_every)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("carat_bench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
