#!/usr/bin/env python3
"""Run the benchmark over several seeds and append a trajectory entry.

    python3 specbench/collect.py --label "abc1234 what changed" \
        --seeds 1-10 [--traced-seeds 1,2] [--workloads chat_decode,...]

For each workload, runs the timed run (--trace 0) once per seed (and
--sets times over) and records, per end-to-end metric, the values, the
median, the quartiles and the run-to-run spread (interquartile
distance / median, the quartiles as
statistics.quantiles(values, n=4) gives them). Traced runs (--trace 1)
record their per-layer metrics per seed. The entry is appended to
specbench/trajectory.json. Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def seeds(text):
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit "
                 f"{proc.returncode}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: ok", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1,
                    help="repeat the timed seeds this many times")
    ap.add_argument("--traced-seeds", default="1,2")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    entry = {"label": args.label, "run_seconds": bench["run_seconds"],
             "workloads": {}}
    for wl in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            timed = [run(wl, s, bench["run_seconds"], 0)
                     for s in seeds(args.seeds)]
            sets.append({m["name"]: summarize([r[m["name"]] for r in timed])
                         for m in bench["end_to_end"]})
        traced = {str(s): run(wl, s, bench["run_seconds"], 1)
                  for s in seeds(args.traced_seeds)}
        entry["workloads"][wl] = {"seeds": seeds(args.seeds),
                                  "end_to_end": sets, "per_layer": traced}

    trajectory = {"entries": []}
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            trajectory = json.load(f)
    trajectory["entries"].append(entry)
    with open(TRAJECTORY, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
