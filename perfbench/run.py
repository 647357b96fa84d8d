#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a checkout.  It configures and builds the C++
benchmark binary (perfbench/CMakeLists.txt, which compiles the libraries
under src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the workload and prints the binary's human-readable report.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json untraced (--trace 0),
its per-layer metrics traced (--trace 1).  The run exits 1 when a
correctness check fails and 2 when the benchmark cannot be built or run.

--workload all runs every workload untraced and traced, prints each result
line, and exits 1 if any check failed.  --smoke shrinks every workload for
the benchmark's own tests.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(step)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return os.path.join(out, "perfbench")


def validate(result, spec, trace):
    """Checks a result object against BENCHMARK.json; returns a list of errors."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    for extra in sorted(set(got) - names):
        errors.append(f"metric {extra} is not in BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            errors.append(f"metric {m['name']} missing")
            continue
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']} has unit {entry.get('unit')}, "
                          f"BENCHMARK.json says {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {m['name']} value {value!r} is not a number")
    return errors


def run_one(binary, spec, workload, seed, seconds, trace, smoke):
    """Runs one workload; echoes its report; returns the validated result."""
    out_dir = os.path.join(build_dir(), "out")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", out_dir]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None or done.returncode not in (0, 1):
        fail(f"{workload}: perfbench exited {done.returncode} without a result")
    errors = validate(result, spec, trace)
    if errors:
        fail(f"{workload}: result does not match BENCHMARK.json: " + "; ".join(errors), 1)
    return result


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    if args.workload != "all":
        result = run_one(binary, spec, args.workload, args.seed, args.seconds,
                         args.trace == 1, args.smoke)
        sys.stdout.flush()
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    summary = {}
    for workload in workloads:
        for trace in (False, True):
            result = run_one(binary, spec, workload, args.seed, args.seconds, trace,
                             args.smoke)
            print(f"{workload} trace={int(trace)}: {json.dumps(result)}")
            entry = summary.setdefault(workload, {"correct": True, "attempted": 0,
                                                  "failed": 0})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0 if all(entry["correct"] for entry in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
