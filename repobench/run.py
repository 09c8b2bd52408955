#!/usr/bin/env python3
"""Repository benchmark: builds workloads.cpp with ../src, runs one workload,
checks its results and prints the metrics.

    python3 repobench/run.py --workload scf_hybrid --seed 1 --seconds 30 \
        --trace 0

Run it from the repository root. --trace 0 prints the end-to-end metrics
of the named workload; --trace 1 makes the traced run, which covers every
workload and prints the per-layer ledger (see NOTES.md). The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every result was correct. Build output and
the load average go to standard error. Build files and raw results go to
$CARGO_TARGET_DIR/repobench (default .bench_build/repobench).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ("scf_hybrid", "serve_mix", "sim_sweep")
PROGRAM_TIMEOUT_S = 170


def log(*parts):
    print("[repobench]", *parts, file=sys.stderr, flush=True)


def load_average():
    return "load average %.2f %.2f %.2f" % os.getloadavg()


def build(build_dir):
    """Configures and builds the workload program; returns its path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "core",
                                       "distributed_fock.hpp")):
        raise RuntimeError("library sources not found next to repobench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "repobench_workloads")


def run_program(binary, out_path, args):
    if os.path.exists(out_path):
        os.remove(out_path)
    subprocess.run([binary] + args + ["--out", out_path], check=True,
                   stdout=sys.stderr, timeout=PROGRAM_TIMEOUT_S)
    with open(out_path) as f:
        return json.load(f)


def report(correct, attempted, failed, values):
    """Prints the result line: {name: (value, unit)} -> metrics."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(values.items())},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "repobench")
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("build failed:", e)
        return 2

    seed = ["--seed", str(args.seed)]
    log("%s seed %d trace %d: %s" % (args.workload, args.seed, args.trace,
                                     load_average()))
    started = time.monotonic()
    try:
        if args.trace:
            raw = run_program(binary, os.path.join(build_dir, "trace.json"),
                              ["--ledger"] + seed)
            values = metrics.per_layer(raw)
        else:
            raw = run_program(binary, os.path.join(build_dir, "run.json"),
                              ["--workload", args.workload,
                               "--seconds", str(args.seconds)] + seed)
            values, info = metrics.end_to_end(raw)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("run failed:", e)
        return 1
    log("done in %.1f s: %s" % (time.monotonic() - started, load_average()))

    failed = raw["wrong"] + raw["rejected"] + raw["shed"]
    frac = metrics.fail_frac(raw["attempted"], raw["wrong"],
                             raw["rejected"], raw["shed"])
    correct = raw["correct"] and failed == 0
    foreign = raw.get("reference_foreign_share", 0.0)
    if foreign > metrics.MAX_FOREIGN_SHARE:
        log("library threads were busy while the host speed was sampled "
            "(%.2f of CPU time); the normalized times are not valid" % foreign)
        correct = False
    label = "ledger" if args.trace else args.workload
    for name, (value, unit) in sorted(values.items()):
        print("%s %s = %.6g %s" % (label, name, value, unit))
    if not args.trace:
        print("%s tail_ms is p%g of %d samples, %d beyond it"
              % (label, info["tail_percentile"], info["tail_samples"],
                 info["tail_beyond"]))
        print("%s wall clock before normalization: %s" % (label, ", ".join(
            "%s = %.6g" % kv for kv in sorted(info["wall"].items()))))
    print("%s fail_frac = %.6g 1 (%d failed of %d: %d wrong, %d rejected, "
          "%d shed)" % (label, frac, failed, raw["attempted"], raw["wrong"],
                        raw["rejected"], raw["shed"]))
    report(correct, raw["attempted"], failed, values)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
