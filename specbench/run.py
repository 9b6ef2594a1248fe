#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload.

    python3 specbench/run.py --workload chat_decode --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. The harness is compiled from
the checkout's sources into .bench_build/specbench on first use. The
per-workload SLO limits come from specbench/design.json. The last line
of standard output is the JSON result; build logs and tables go to
standard error. Exits non-zero when the build fails, the harness
fails, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "specbench")
BINARY = os.path.join(BUILD, "specbench")


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "specbench"],
                   stdout=sys.stderr, check=True, timeout=840)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    if args.workload not in design["workloads"]:
        sys.exit(f"unknown workload: {args.workload}")
    slo = design["workloads"][args.workload]["slo"]

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit(f"build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--slo-ttft", str(slo.get("interactive_ttft_s", 0)),
           "--slo-itl", str(slo.get("interactive_itl_s", 0)),
           "--slo-batch-deadline", str(slo.get("batch_deadline_s", 0))]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("harness timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"harness printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    missing = [m for m in expected_metrics(args.trace)
               if m not in result["metrics"]]
    if missing:
        sys.exit(f"harness did not report: {', '.join(missing)}")
    print(lines[-1])
    sys.exit(proc.returncode if proc.returncode else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
