#!/usr/bin/env python3
"""Schema-check a SpecEE fleet trace (Chrome trace-event JSON).

Validates the structural contract the obs::chromeTraceJson exporter
promises, so CI catches export regressions on a real bench-produced
trace (not just the unit-test fixtures):

  * top-level object with displayTimeUnit and a traceEvents list;
  * every event carries name/ph/pid (and ts for non-metadata);
  * phases are limited to the exporter's vocabulary (M/X/i/s/f);
  * complete events ("X") have a non-negative dur;
  * instants are scheduler decisions on the fleet process (pid 0)
    with scope "p";
  * flow starts/ends ("s"/"f") pair up per id;
  * every non-metadata pid was introduced by a process_name record;
  * spans never overlap within one (pid, tid) track.

Usage: check_trace.py TRACE.json [--min-events N]
"""

import argparse
import collections
import json
import sys

PHASES = {"M", "X", "i", "s", "f"}
DECISIONS = {
    "admit", "defer", "watermark_reject", "drop", "cancel",
    "preempt_recompute", "preempt_swap", "resume", "cache_hit",
    "backfill_grant", "handoff",
}
SPAN_NAMES = {"iteration", "step", "prefill_chunk", "transfer"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--min-events", type=int, default=1,
                    help="require at least N non-metadata events")
    args = ap.parse_args()

    with open(args.trace) as f:
        doc = json.load(f)

    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        fail(f"bad displayTimeUnit: {doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("traceEvents is not a list")

    procs = set()
    flows = collections.Counter()
    tracks = collections.defaultdict(list)
    n_real = 0

    for i, e in enumerate(events):
        where = f"event {i}"
        for key in ("name", "ph", "pid"):
            if key not in e:
                fail(f"{where}: missing {key!r}")
        ph = e["ph"]
        if ph not in PHASES:
            fail(f"{where}: unknown phase {ph!r}")
        if ph == "M":
            if e["name"] == "process_name":
                procs.add(e["pid"])
            continue
        if "ts" not in e:
            fail(f"{where}: missing ts")
        n_real += 1
        if ph == "X":
            if e["name"] not in SPAN_NAMES:
                fail(f"{where}: unknown span name {e['name']!r}")
            if e.get("dur", -1) < 0:
                fail(f"{where}: span without non-negative dur")
            tracks[(e["pid"], e["tid"])].append(
                (e["ts"], e["ts"] + e["dur"], e["name"]))
        elif ph == "i":
            if e["name"] not in DECISIONS:
                fail(f"{where}: unknown decision {e['name']!r}")
            if e["pid"] != 0:
                fail(f"{where}: decision off the fleet process")
            if e.get("s") != "p":
                fail(f"{where}: instant without process scope")
        else:  # s / f
            if e["name"] != "request" or "id" not in e:
                fail(f"{where}: malformed flow event")
            flows[e["id"]] += 1 if ph == "s" else -1

    if 0 not in procs:
        fail("no fleet scheduler process metadata")
    for (pid, tid), spans in tracks.items():
        if pid not in procs:
            fail(f"span process {pid} never named")
        spans.sort()
        # ts and dur are each rendered at 0.001 us precision, so a
        # span ending exactly where the next begins can appear to
        # overhang by up to 1.5 ns. Anything beyond quantization
        # noise is a real scheduler overlap.
        eps = 0.002
        end = None
        for t0, t1, name in spans:
            if end is not None and t0 < end - eps:
                fail(f"overlapping {name!r} spans on pid {pid} "
                     f"tid {tid} at ts {t0}")
            end = t1
    unbalanced = {k: v for k, v in flows.items() if v != 0}
    if unbalanced:
        fail(f"unpaired request flows: {unbalanced}")
    if n_real < args.min_events:
        fail(f"only {n_real} events (need >= {args.min_events})")

    print(f"check_trace: OK: {n_real} events, {len(procs)} processes, "
          f"{len(tracks)} span tracks, {len(flows)} request flows")


if __name__ == "__main__":
    main()
