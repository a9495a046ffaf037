#!/usr/bin/env python3
"""Compares two BENCH_*.json files written by tools/bench_record.py.

    python3 tools/bench_diff.py BENCH_base.json BENCH_forward.json
                                [--benchmark BENCHMARK.json]

For every end-to-end metric of BENCHMARK.json, on every workload, prints
the two medians and the relative change. A change larger than the metric's
bound (as a share of the old median) is flagged `better` or `WORSE` when
it is also larger than the measured spread (the larger of the two files'
IQRs), and `unresolved` when it is not: the runs spread too widely to tell
it from noise, so it is not cleared either. A change within the bound is
not flagged. Per-layer metrics of the traced runs are listed with their
change but never flagged: each comes from a single run. A run that is not
`correct`, or that failed operations, is flagged too. Records made with
different seeds or run lengths are refused.

Exit status: 1 when a change is WORSE, or unresolved in the worse
direction, or a run is incorrect; 2 when the records are not comparable;
else 0. Stdlib only.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def relative(old, new):
    return (new - old) / old if old else float("inf") if new != old else 0.0


def compare_metric(spec, old, new):
    """Returns (relative change, verdict, worse direction) of one end-to-end
    metric, where verdict is '', 'better', 'WORSE' or 'unresolved'."""
    delta = new["median"] - old["median"]
    rel = relative(old["median"], new["median"])
    worse = delta > 0 if spec["better"] == "lower" else delta < 0
    if abs(rel) <= spec["bound"]:
        return rel, "", worse
    if abs(delta) <= max(old["iqr"], new["iqr"]):
        return rel, "unresolved", worse
    return rel, "WORSE" if worse else "better", worse


def describe(record):
    line = (f"{record['label']} commit {record.get('commit')} "
            f"sources {record.get('source_sha256', '?')[:12]} "
            f"(jcc padding {record.get('jcc_branch_padding')})")
    if record.get("uncommitted_changes"):
        line += ("\n  warning: recorded with uncommitted changes under src/ "
                 "or perfbench/; only the source digest names what ran")
    return line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(REPO / "BENCHMARK.json"))
    args = parser.parse_args()
    old, new = load(args.old), load(args.new)
    specs = {m["name"]: m for m in load(args.benchmark)["end_to_end"]}

    print(f"old: {describe(old)}")
    print(f"new: {describe(new)}")
    for key in ("seconds", "seeds"):
        if old.get(key) != new.get(key):
            print(f"error: the records differ in {key} ({old.get(key)} vs "
                  f"{new.get(key)}); their medians are not comparable")
            return 2
    if old.get("jcc_branch_padding") != new.get("jcc_branch_padding"):
        print("note: the two builds differ in JCC branch padding; code "
              "layout alone can move latency metrics")
    status = 0
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        o, n = old["workloads"][workload], new["workloads"][workload]
        print(f"\n{workload}")
        for label, rec in (("old", o), ("new", n)):
            if not all(rec["correct"]) or any(rec["failed"]):
                print(f"  FLAG {label} runs: correct {rec['correct']}, "
                      f"failed {rec['failed']}")
                status = 1
        for name, spec in specs.items():
            if name not in o["metrics"] or name not in n["metrics"]:
                continue
            om, nm = o["metrics"][name], n["metrics"][name]
            rel, verdict, worse = compare_metric(spec, om, nm)
            if verdict == "WORSE" or (verdict == "unresolved" and worse):
                status = 1
            print(f"  {'FLAG ' + verdict if verdict else '    ':15} "
                  f"{name:16} {om['median']:12.6g} -> {nm['median']:12.6g} "
                  f"{spec['unit']:5} {rel:+8.1%}  "
                  f"(IQR {om['iqr']:.3g} / {nm['iqr']:.3g}, "
                  f"bound {spec['bound']:.0%})")

    ot, nt = old.get("traced"), new.get("traced")
    if ot and nt:
        print(f"\ntraced {nt['workload']} (one run each, not flagged)")
        if not nt["correct"]:
            print("  FLAG new traced run is not correct")
            status = 1
        for name in sorted(set(ot["metrics"]) & set(nt["metrics"])):
            ov = ot["metrics"][name]["value"]
            nv = nt["metrics"][name]["value"]
            print(f"  {name:34} {ov:12.6g} -> {nv:12.6g} "
                  f"{nt['metrics'][name]['unit']:8} {relative(ov, nv):+8.1%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
