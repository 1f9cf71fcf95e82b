#!/usr/bin/env python3
"""hwbench: the repository benchmark.

Builds bench/suite (the hwbench program plus the simulator sources) and runs
the benchmark workloads through the public scenario api, one process per
measurement, with every HWATCH_* variable removed from the child
environment (they switch observers on).

  python3 bench/suite/run.py                      # all four workloads
  python3 bench/suite/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/suite/run.py --smoke --hwbench PATH   # the ctest
  python3 bench/suite/run.py --update-digests SEEDS   # refresh digests.json

Each (metric, workload) pair prints as `metric workload value unit n iqr`;
the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) of a single workload.
Results also go to bench_out/suite/results.json, and a traced run writes a
Perfetto-loadable bench_out/suite/<workload>.trace.json.  Exit status is
non-zero when any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build" / "hwbench"
OUT = ROOT / "bench_out" / "suite"
DIGESTS = SUITE / "digests.json"

# Default seed, set-up probes per run (more where a set-up is sub-ms and
# noisy, fewer where one takes a second), and whether the workload is
# sharded.
WORKLOADS = {
    "dumbbell-hwatch": {"seed": 20, "probes": 25, "sharded": False},
    "dumbbell-droptail": {"seed": 20, "probes": 25, "sharded": False},
    "leafspine-web": {"seed": 11, "probes": 15, "sharded": False},
    "fattree-k16": {"seed": 20, "probes": 3, "sharded": True},
}
FULL_RUNS = 5           # full runs per workload without --seconds
MIN_FULL_RUNS = 3       # with --seconds: at least this many, then until time
SLOW_FACTOR = 5.0       # a run slower than 5x the median counts as failed
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "events_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
COUNTS = [
    "sim.sched.events", "sim.sched.scheduled", "sim.sched.cancelled",
    "sim.sched.heap_peak", "sim.shard.epochs", "net.link.tx", "net.link.prop",
    "net.qdisc.drops", "net.qdisc.ecn_marked", "net.shard.ingress_pushed",
    "net.shard.ingress_spilled", "tcp.flows_completed", "tcp.retransmits",
    "tcp.timeouts", "tcp.segments", "hwatch.rwnd_rewrites",
    "hwatch.probe_trains_sent", "hwatch.window_decisions",
    "hwatch.checksum_recomputes", "topo.links", "workload.flows",
]
PER_LAYER = {name: "count" for name in COUNTS}
PER_LAYER.update({
    "sim.shard.imbalance": "x",
    "sim.sched.event_ns": "ns",
    "sim.sched.cancel_ns": "ns",
    "net.qdisc.op_ns": "ns",
    "net.link.hop_ns": "ns",
    "net.checksum.adjust_ns": "ns",
    "tcp.segment_ns": "ns",
    "tcp.connection_ns": "ns",
    "hwatch.shim.segment_ns": "ns",
    "hwatch.shim.connection_ns": "ns",
    "topo.build_s": "s",
    "topo.rss_bytes_per_host": "B/host",
    "workload.install_s": "s",
    "sim.shard.epoch_ns": "ns",
    "sim.shard.speedup": "x",
    "stats.manifest_dump_ms": "ms",
    "sim.metrics.on_cost": "ratio",
    "sim.spans.on_cost": "ratio",
    "stats.incidents.on_cost": "ratio",
    "ledger.modeled_run_s": "s",
    "ledger.residual_share": "ratio",
})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("HWATCH_")}


def build():
    """Configures and builds hwbench in .bench_build/; returns its path."""
    for cmd in (
        ["cmake", "-S", str(SUITE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DBUILD_TESTING=OFF"],
        ["cmake", "--build", str(BUILD), "-j4", "--target", "hwbench"],
    ):
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=800)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit(f"hwbench: build failed: {' '.join(cmd)}")
    return BUILD / "hwbench"


def summary(values, unit):
    """Median, sample count and interquartile range (quartiles as
    statistics.quantiles(n=4) gives them)."""
    if len(values) == 1:
        return {"value": values[0], "unit": unit, "n": 1, "iqr": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"value": med, "unit": unit, "n": len(values), "iqr": q3 - q1}


def ok(out):
    return out is not None and not out["errors"]


class Harness:
    """Runs hwbench children one at a time and keeps every call's span."""

    def __init__(self, exe):
        self.exe = str(exe)
        self.spans = []  # (label, t0, t1, child spans)

    def call(self, args):
        """One child process; its JSON object, or None when it failed."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run([self.exe, *args], env=child_env(),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"hwbench {' '.join(args)}: timed out")
            return None
        out = None
        if proc.returncode == 0:
            try:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                out = None
        if out is None:
            log(f"hwbench {' '.join(args)}: exit {proc.returncode}\n"
                f"{proc.stderr.strip()}")
        elif out.get("errors"):
            log(f"hwbench {' '.join(args)}: {out['errors']}")
        self.spans.append((" ".join(args), t0, time.monotonic(),
                           out.get("spans", []) if out else []))
        return out

    def run(self, workload, seed, *extra):
        return self.call(["run", "--workload", workload, "--seed", str(seed),
                          *extra])

    def write_trace(self, path, label):
        """Chrome trace-event JSON (hwatch.trace_export/v1): one track per
        hwbench process, the harness spans of its layer calls inside it."""
        base = min(s[1] for s in self.spans)
        events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": f"run.py {label}"}}]
        for pid, (name, t0, t1, child) in enumerate(self.spans, start=1):
            parent = f"hwbench {name}"
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": parent}})
            events.append({"name": parent, "cat": "runner", "ph": "X",
                           "pid": 0, "tid": 0, "ts": (t0 - base) * 1e6,
                           "dur": (t1 - t0) * 1e6})
            for s in child:
                events.append({"name": s["name"], "cat": "layer", "ph": "X",
                               "pid": pid, "tid": 0,
                               "ts": s["ts_us"] - base * 1e6,
                               "dur": s["dur_us"],
                               "args": {"parent": parent}})
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"schema": "hwatch.trace_export/v1", "displayTimeUnit": "ms",
               "dropped_events": 0, "traceEvents": events}
        path.write_text(json.dumps(doc) + "\n")


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def judge(outs, want):
    """The passing outputs and the failure count.  A run fails when the
    child failed or reported output errors, ran over SLOW_FACTOR x the
    median wall time, or its digest differs from `want` (with no committed
    digest: from the digest most of the runs agree on)."""
    good = [o for o in outs if ok(o)]
    if good:
        med = statistics.median(o["wall_s"] for o in good)
        if want is None:
            digests = [o["digest"] for o in good]
            want = max(sorted(set(digests)), key=digests.count)
        good = [o for o in good
                if o["digest"] == want and o["wall_s"] <= SLOW_FACTOR * med]
    return good, len(outs) - len(good)


def measure_e2e(h, workload, seed, seconds, expected, extra=(), probes=None):
    """Cold set-up probes then full runs of one workload: the end-to-end
    summaries, the passing full runs, attempts and failures."""
    n_probes = probes or WORKLOADS[workload]["probes"]
    setups = [h.run(workload, seed, "--setup-only", *extra)
              for _ in range(n_probes)]
    runs = []
    t0 = time.monotonic()
    while True:
        runs.append(h.run(workload, seed, *extra))
        if seconds is None:
            if len(runs) >= FULL_RUNS:
                break
        elif len(runs) >= MIN_FULL_RUNS and time.monotonic() - t0 >= seconds:
            break
    good_setups, setup_fail = judge(setups, (expected or {}).get("setup"))
    good_runs, run_fail = judge(runs, (expected or {}).get("run"))
    metrics = {}
    if good_setups and good_runs:
        setup = statistics.median(o["wall_s"] for o in good_setups)
        metrics = {
            "events_per_s": summary(
                [o["events"] / max(o["wall_s"] - setup, 1e-9)
                 for o in good_runs], "1/s"),
            "wall_s": summary([o["wall_s"] for o in good_runs], "s"),
            "setup_s": summary([o["wall_s"] for o in good_setups], "s"),
            "peak_rss_mb": summary(
                [o["peak_rss_bytes"] / 2**20 for o in good_runs], "MiB"),
        }
    return (metrics, good_runs, len(setups) + len(runs),
            setup_fail + run_fail)


def measure_layers(h, workload, seed, seconds, expected, extra=(),
                   probes=None, loop_args=()):
    """The traced run: counts from a metrics-on run, self costs from the
    layer cost loops, observer on-costs, the sharded speedup and the ledger.
    Returns the per-layer metrics, attempts and failures."""
    sharded = WORKLOADS[workload]["sharded"]
    e2e, runs, attempted, failed = measure_e2e(
        h, workload, seed, None if seconds is None else seconds / 4,
        expected, extra, probes)
    if not e2e:
        return {}, attempted, failed
    setup = e2e["setup_s"]["value"]
    wall_off = e2e["wall_s"]["value"]
    plane_reps = 1 if sharded or loop_args else 3

    def plane_cost(plane):
        nonlocal attempted, failed
        outs = [h.run(workload, seed, "--plane", plane, *extra)
                for _ in range(plane_reps)]
        good = [o for o in outs if ok(o)]
        attempted += len(outs)
        failed += len(outs) - len(good)
        if not good:
            return None, None
        wall = statistics.median(o["wall_s"] for o in good)
        return wall / wall_off - 1.0, good[0]

    layer = {}
    layer["sim.metrics.on_cost"], counted = plane_cost("metrics")
    if counted is None:
        return {}, attempted, failed
    layer.update(counted["counts"])
    layer["stats.manifest_dump_ms"] = counted["stats.manifest_dump_ms"]
    for plane, name in (("spans", "sim.spans.on_cost"),
                        ("incidents", "stats.incidents.on_cost")):
        # Measured on the single-context workloads only: a span per packet
        # event on the 10k-host fabric is a different experiment.
        layer[name] = 0.0 if sharded else plane_cost(plane)[0]
        if layer[name] is None:
            return {}, attempted, failed

    contexts = counted["contexts"]
    attempted += 1
    costs = h.call([
        "costs", "--workload", workload,
        "--pending", str(max(1, layer["sim.sched.heap_peak"] // contexts)),
        "--timers", str(max(1, layer["workload.flows"] // contexts)),
        *loop_args])
    if costs is None:
        return {}, attempted, failed + 1
    layer.update(costs["costs"])
    layer.update(costs["counts"])

    measured = wall_off - setup
    if sharded:
        # The ledger models one worker; the same run gives the speedup and
        # must reproduce the 4-worker digest.
        attempted += 1
        one = h.run(workload, seed, "--workers", "1", *extra)
        if not ok(one) or one["digest"] != runs[0]["digest"]:
            return {}, attempted, failed + 1
        measured = max(one["wall_s"] - setup, 1e-9)
        layer["sim.shard.speedup"] = (
            e2e["events_per_s"]["value"] / (one["events"] / measured))
    else:
        layer["sim.shard.speedup"] = 1.0  # one context runs on one worker

    modeled_ns = (
        layer["sim.sched.events"] * layer["sim.sched.event_ns"]
        + layer["sim.sched.cancelled"] * layer["sim.sched.cancel_ns"]
        + layer["net.link.tx"] * (layer["net.link.hop_ns"]
                                  + layer["net.qdisc.op_ns"])
        + layer["tcp.segments"] * layer["tcp.segment_ns"]
        + layer["workload.flows"] * layer["tcp.connection_ns"])
    if layer["hwatch.probe_trains_sent"] > 0:
        modeled_ns += (
            layer["tcp.segments"] * layer["hwatch.shim.segment_ns"]
            + layer["workload.flows"] * layer["hwatch.shim.connection_ns"])
    layer["ledger.modeled_run_s"] = modeled_ns / 1e9
    layer["ledger.residual_share"] = 1.0 - modeled_ns / 1e9 / measured
    metrics = {name: {"value": layer[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return metrics, attempted, failed


def run_workload(h, workload, seed, seconds, trace):
    expected = load_digests().get(workload, {}).get(str(seed))
    if trace:
        metrics, attempted, failed = measure_layers(h, workload, seed,
                                                    seconds, expected)
        h.write_trace(OUT / f"{workload}.trace.json", workload)
    else:
        metrics, _, attempted, failed = measure_e2e(h, workload, seed,
                                                    seconds, expected)
    return {"seed": seed, "attempted": attempted, "failed": failed,
            "run_failure_ratio": failed / attempted, "metrics": metrics}


# ---- smoke (the hwbench.smoke ctest) ----------------------------------------

def smoke(exe):
    """All four workloads at a 2 ms horizon, every cost loop at a low
    op count; returns the failed assertions."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    want_layer = {m["name"] for m in bench["per_layer"]}
    want_work = {w["name"] for w in bench["workloads"]}
    problems = []
    if want_work != set(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json: "
                        f"{sorted(want_work ^ set(WORKLOADS))}")
    if want_e2e != set(END_TO_END) or want_layer != set(PER_LAYER):
        problems.append("metric tables differ from BENCHMARK.json: "
                        f"{sorted((want_e2e ^ set(END_TO_END)) | (want_layer ^ set(PER_LAYER)))}")
    short = ("--horizon-ms", "2")
    for workload, cfg in WORKLOADS.items():
        h = Harness(exe)
        e2e, runs, _, failed = measure_e2e(h, workload, 1, 0, None, short, 2)
        if failed or set(e2e) != want_e2e:
            problems.append(f"{workload}: end-to-end names {sorted(e2e)}, "
                            f"{failed} failed runs")
        if len({o["digest"] for o in runs}) != 1:
            problems.append(f"{workload}: one seed gave different digests")
        layer, _, failed = measure_layers(
            h, workload, 1, None, None, short, 2,
            ("--ops", "2000", "--reps", "1"))
        if failed or set(layer) != want_layer:
            problems.append(f"{workload}: per-layer names differ by "
                            f"{sorted(set(layer) ^ want_layer)}, "
                            f"{failed} failed runs")
        if cfg["sharded"]:
            outs = [h.run(workload, 1, *short, "--workers", str(n))
                    for n in (1, 2)]
            if not all(map(ok, outs)) or outs[0]["digest"] != outs[1]["digest"]:
                problems.append(f"{workload}: digest depends on the workers")
        tampered = {"run": "0" * 16, "setup": "0" * 16}
        _, _, attempted, failed = measure_e2e(h, workload, 1, 0, tampered,
                                              short, 2)
        if failed != attempted:
            problems.append(f"{workload}: a tampered digest gave "
                            f"run_failure_ratio {failed / attempted}")
    return problems


def update_digests(exe, seeds):
    h = Harness(exe)
    table = load_digests()
    for workload in WORKLOADS:
        for seed in seeds:
            full = h.run(workload, seed)
            setup = h.run(workload, seed, "--setup-only")
            if not ok(full) or not ok(setup):
                raise SystemExit(f"hwbench: {workload} seed {seed} failed")
            table.setdefault(workload, {})[str(seed)] = {
                "run": full["digest"], "setup": setup["digest"]}
            log(f"{workload} seed {seed}: {full['digest']}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="overrides the default seed")
    ap.add_argument("--seconds", type=float,
                    help="measure for this long (default: 5 full runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=OUT / "results.json")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--hwbench", type=Path,
                    help="use this hwbench binary instead of building one")
    ap.add_argument("--update-digests", metavar="SEEDS",
                    help="comma-separated seeds to record in digests.json")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be > 0")

    exe = args.hwbench.resolve() if args.hwbench else build()
    if args.smoke:
        problems = smoke(exe)
        for p in problems:
            log(f"FAIL {p}")
        print("hwbench.smoke: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.update_digests:
        update_digests(exe, [int(s) for s in args.update_digests.split(",")])
        return 0

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    names = PER_LAYER if args.trace else END_TO_END
    results = {}
    for workload in workloads:
        seed = WORKLOADS[workload]["seed"] if args.seed is None else args.seed
        res = run_workload(Harness(exe), workload, seed, args.seconds,
                           bool(args.trace))
        results[workload] = res
        for name, m in res["metrics"].items():
            print(f"{name} {workload} {m['value']!r} {m['unit']} "
                  f"{m.get('n', 1)} {m.get('iqr', 0.0)!r}")
        print(f"run_failure_ratio {workload} {res['run_failure_ratio']!r} "
              f"fraction {res['attempted']} 0.0")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"schema": "hwbench.results/v1", "trace": args.trace,
         "workloads": results}, indent=2) + "\n")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(set(r["metrics"]) == set(names)
                                  for r in results.values())
    metrics = {}
    if len(results) == 1:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in results[workloads[0]]["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
