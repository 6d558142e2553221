#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at --seconds 1, with tracing off and
on and with two seeds, it checks that the result line has exactly the
keys {correct, attempted, failed, metrics}, that it carries every metric
BENCHMARK.json names with its unit, and that no operation failed. Then it
injects the malformed query 'lb9 4' as every 10th what-if request and
checks that the failures are exactly the injected requests. Exits 1 on the
first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INJECT_EVERY = 10


def fail(message):
    print("selftest: FAILED: " + message, flush=True)
    sys.exit(1)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    what = "%s seed %d trace %d %s" % (workload, seed, trace, " ".join(extra))
    if proc.returncode != 0:
        fail(what + ": exit code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("# report "):
        fail(what + ": no report line before the result")
    return what, json.loads(lines[-1]), json.loads(lines[-2][len("# report "):])


def check_metrics(what, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(what + ": result keys are %s" % sorted(result))
    if set(result["metrics"]) != set(expected):
        fail(what + ": metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(expected) - set(result["metrics"])),
                sorted(set(result["metrics"]) - set(expected))))
    for name, unit in expected.items():
        metric = result["metrics"][name]
        if metric["unit"] != unit or not isinstance(metric["value"],
                                                     (int, float)):
            fail(what + ": metric %s is %s" % (name, metric))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            for seed in (1, 2):
                what, result, _ = run(workload, seed, trace)
                check_metrics(what, result, metrics[trace])
                if (not result["correct"] or result["failed"] != 0
                        or result["attempted"] < 1):
                    fail(what + ": %s" % result)
                print("selftest: ok: " + what, flush=True)

    for workload in ("whatif-cached", "whatif-solve"):
        what, result, report = run(workload, 3, 0, "--inject-malformed-every",
                                   str(INJECT_EVERY))
        attempted, failed = result["attempted"], result["failed"]
        injected = report["injected"]
        if injected < 1 or injected != attempted // INJECT_EVERY:
            fail(what + ": %d injected of %d attempted" % (injected, attempted))
        if failed != injected or result["correct"]:
            fail(what + ": %d failed for %d injected" % (failed, injected))
        if abs(report["error_rate"] - injected / attempted) > 1e-9:
            fail(what + ": error_rate %s" % report["error_rate"])
        print("selftest: ok: " + what + " (error_rate %.6f)"
              % report["error_rate"], flush=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
