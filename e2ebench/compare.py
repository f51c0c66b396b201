#!/usr/bin/env python3
"""Compare the end-to-end metrics of two sets of e2ebench runs.

Each set is a directory of run records (`<workload>-seed<n>-trace0.json`,
written by run.py to .bench_build/e2ebench-out). Prints, per workload
and metric, each side's median and quartiles and the change of the
medians. Refuses to compare runs of different build types.

    python3 e2ebench/compare.py <parent-records-dir> <change-records-dir>
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            rec = json.load(f)
        runs.setdefault(rec["info"]["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    types = {rec["info"]["host"]["build_type"]
             for runs in (a, b) for recs in runs.values() for rec in recs}
    if len(types) > 1:
        sys.exit("refusing to compare runs of different build types: " +
                 ", ".join(sorted(types)))
    for workload in sorted(set(a) & set(b)):
        print(f"{workload}: {len(a[workload])} vs {len(b[workload])} runs")
        for name in a[workload][0]["end_to_end"]:
            va = [r["end_to_end"][name]["value"] for r in a[workload]]
            vb = [r["end_to_end"][name]["value"] for r in b[workload]]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] / qa[1] - 1) * 100 if qa[1] else float("nan")
            print(f"  {name:18} {qa[1]:14.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  ->  {qb[1]:14.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  {change:+7.2f} %")


if __name__ == "__main__":
    main()
