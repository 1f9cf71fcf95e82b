#!/usr/bin/env python3
"""Perf-trajectory gate for the hwatch.bench/v1 reports.

Compares the bench reports a CI run just produced (bench_out/BENCH_*.json)
against the committed baselines in perf/baselines/ and fails when a
benchmark regressed beyond the tolerance:

  * events_per_s  must stay >= baseline * (1 - tolerance)
  * peak_rss_bytes must stay <= baseline * (1 + tolerance)
  * events must equal the baseline exactly: event counts are
    deterministic, so a drift means simulated behaviour changed

Faster / leaner than baseline always passes; ratchet the baselines
forward by re-running with --update after a deliberate perf or
behaviour change (or when moving to different reference hardware) and
committing the result.  --update is the only way to accept a new event
count.

Usage:
  scripts/check_perf.py [--bench-dir bench_out] [--baseline-dir perf/baselines]
                        [--tolerance 0.10] [--update] [name ...]

Positional names restrict the check to specific benchmarks ("fig8",
"fig_fatree_scale", ...); default is every report present in the bench
dir that has a committed baseline.  A report without a baseline is
reported but never fails the gate (new benches land first, their
baseline lands with the numbers of the first green run); --update
creates/refreshes baselines for everything it finds.

Exit codes: 0 ok, 1 regression or event-count drift, 2 usage/IO error.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH_SCHEMA = "hwatch.bench/v1"
BASELINE_SCHEMA = "hwatch.perf_baseline/v1"
METRICS = ("events_per_s", "peak_rss_bytes")


def load_json(path: Path):
    try:
        with path.open() as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_reports(bench_dir: Path, names):
    reports = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        doc = load_json(path)
        # Skip foreign formats (e.g. google-benchmark's micro_simcore
        # output) — this gate only understands hwatch.bench/v1.
        if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
            continue
        name = doc.get("name") or path.stem.removeprefix("BENCH_")
        if names and name not in names:
            continue
        reports[name] = doc
    return reports


def baseline_of(doc):
    return {
        "schema": BASELINE_SCHEMA,
        "name": doc["name"],
        "events": doc.get("events", 0),
        "events_per_s": doc.get("events_per_s", 0.0),
        "peak_rss_bytes": doc.get("peak_rss_bytes", 0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", default="bench_out", type=Path)
    ap.add_argument("--baseline-dir", default="perf/baselines", type=Path)
    ap.add_argument("--tolerance", default=0.10, type=float,
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite baselines from the current reports")
    ap.add_argument("--report", action="store_true",
                    help="print a per-bench summary line (events/s plus "
                         "the worst per-point shard imbalance) before "
                         "the gate results")
    ap.add_argument("names", nargs="*",
                    help="benchmark names to check (default: all present)")
    args = ap.parse_args()

    if not args.bench_dir.is_dir():
        print(f"error: bench dir {args.bench_dir} not found", file=sys.stderr)
        return 2
    reports = load_reports(args.bench_dir, set(args.names))
    if not reports:
        print(f"error: no {BENCH_SCHEMA} reports in {args.bench_dir}",
              file=sys.stderr)
        return 2
    missing = set(args.names) - set(reports)
    if missing:
        print(f"error: requested bench(es) not found: {sorted(missing)}",
              file=sys.stderr)
        return 2

    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        for name, doc in reports.items():
            out = args.baseline_dir / f"BENCH_{name}.json"
            with out.open("w") as fh:
                json.dump(baseline_of(doc), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"baseline updated: {out}")
        return 0

    if args.report:
        for name, doc in sorted(reports.items()):
            rate = float(doc.get("events_per_s", 0))
            imbalances = [float(p.get("imbalance", 0))
                          for p in doc.get("points", [])]
            worst = max(imbalances, default=0.0)
            line = f"{name}: {rate / 1e6:.2f}M events/s"
            if worst > 0:
                # Sharded points only; 1.0 = perfectly balanced shards.
                line += f", shard imbalance {worst:.2f}x (worst point)"
            print(line)
        print()

    failures = []
    for name, doc in sorted(reports.items()):
        base_path = args.baseline_dir / f"BENCH_{name}.json"
        if not base_path.is_file():
            print(f"{name}: no baseline ({base_path}); skipping "
                  f"(run with --update to create one)")
            continue
        base = load_json(base_path)
        if base.get("schema") != BASELINE_SCHEMA:
            print(f"error: {base_path} is not a {BASELINE_SCHEMA} file",
                  file=sys.stderr)
            return 2
        for metric in METRICS:
            cur = float(doc.get(metric, 0))
            ref = float(base.get(metric, 0))
            if ref <= 0:
                continue
            if metric == "events_per_s":
                floor = ref * (1.0 - args.tolerance)
                ok = cur >= floor
                direction = f">= {floor:.0f}"
            else:
                ceil = ref * (1.0 + args.tolerance)
                ok = cur <= ceil
                direction = f"<= {ceil:.0f}"
            ratio = cur / ref
            verdict = "ok" if ok else "REGRESSION"
            print(f"{name}: {metric} {cur:.0f} vs baseline {ref:.0f} "
                  f"({ratio:.2f}x, need {direction}) {verdict}")
            if not ok:
                failures.append(f"{name}: {metric} regressed beyond "
                                f"{args.tolerance:.0%} tolerance")
        if doc.get("events") != base.get("events"):
            failures.append(f"{name}: events {doc.get('events')} != "
                            f"baseline {base.get('events')} (event counts "
                            f"are deterministic; refresh with --update "
                            f"only for a deliberate behaviour change)")
            print(f"{failures[-1]} DRIFT")

    if failures:
        print(f"\n{len(failures)} perf gate failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf trajectory ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
