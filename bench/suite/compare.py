#!/usr/bin/env python3
"""Compare hwbench results of a parent commit and a change.

  python3 bench/suite/compare.py --parent P1.json P2.json ... \
                                 --change C1.json C2.json ...

Each file is a bench_out/suite/results.json from run.py (trace off).  Pair
i is (P_i, C_i): run the two sides alternately, swapping which goes first,
with the same run.py arguments.  For every (end-to-end metric, workload)
the rule is:

  * fewer than 10 pairs                          -> too-few-pairs
  * the change wins >= 9/10 of the pairs (ties count for neither side) and
    the medians differ by more than the parent's IQR -> gain
  * the spread (IQR / median, the wider side) exceeds the metric's bound
    in BENCHMARK.json, unless every change run beats every parent run
                                                 -> unresolved
  * the change's median is worse than the parent's by more than the bound
                                                 -> regression
  * otherwise                                    -> no-regression

Failed runs are compared on their own: more failures per attempt on the
change side is `more-failures`.  One row per workload; exit status 1 when
any row holds a regression or more failures.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    """Verdict for one (metric, workload): parent[i] pairs with change[i]."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "too-few-pairs"
    parent, change = parent[:n], change[:n]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= WIN_SHARE * n and sign * (cm - pm) > 0 and abs(cm - pm) > p3 - p1:
        return "gain"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (pm - cm) / abs(pm) > bound:
        return "regression"
    return "no-regression"


def failure_verdict(parent_files, change_files, workload):
    def ratio(files):
        attempted = sum(f["workloads"][workload]["attempted"] for f in files)
        failed = sum(f["workloads"][workload]["failed"] for f in files)
        return failed / attempted if attempted else 1.0
    return "more-failures" if ratio(change_files) > ratio(parent_files) else "ok"


def compare(parent_files, change_files, bench):
    """Rows of (workload, {metric: (verdict, change vs parent)}, failures)."""
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        if not all(workload in f["workloads"]
                   for f in parent_files + change_files):
            continue
        cells = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [f["workloads"][workload]["metrics"][name]["value"]
                 for f in parent_files]
            c = [f["workloads"][workload]["metrics"][name]["value"]
                 for f in change_files]
            delta = statistics.median(c) / statistics.median(p) - 1.0
            cells[name] = (verdict(p, c, m["better"], m["bound"]), delta)
        rows.append((workload, cells,
                     failure_verdict(parent_files, change_files, workload)))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change):
        ap.error("--parent and --change need the same number of files")
    bench = json.loads(args.benchmark.read_text())
    parent = [json.loads(p.read_text()) for p in args.parent]
    change = [json.loads(p.read_text()) for p in args.change]
    bad = False
    for workload, cells, failures in compare(parent, change, bench):
        parts = [f"{name}: {v} ({d:+.1%})" for name, (v, d) in cells.items()]
        print(f"{workload:18} " + "  ".join(parts) + f"  failures: {failures}")
        bad |= failures != "ok" or any(v == "regression"
                                       for v, _ in cells.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
