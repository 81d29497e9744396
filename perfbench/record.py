#!/usr/bin/env python3
"""Record the benchmark's steadiness and traced-run artifacts.

    python3 perfbench/record.py [--seconds 20]
                                [--workloads repro-cold,fuzz-oracle,warm-rerun]
                                [--no-trace] [--out perfbench/results]

For each workload: 10 untraced runs of run.py with seeds 1..10, then the
median and quartiles of every end-to-end metric and the interquartile range
as a share of the median (statistics.quantiles, n=4), compared with a third
of the metric's bound in BENCHMARK.json. The set is appended to
<out>/steadiness.json, with how much worse each median is than the previous
set's (the bound applies to that too). Then one traced run: its span file
and per-layer dump are copied next to the record, with the tracing overhead
(traced wall_s against the untraced median) and the layer-share line, as
<out>/<workload>.traced.json and <out>/<workload>.spans.json.gz.
"""
import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (same directory)

RUNS = 10                   # untraced runs in a set, seeds 1..RUNS
KEPT_OPS = 200              # measured ops whose spans are kept
PROBE_OP = 1_000_000_000    # probe op ids start here (common.hpp kProbeOp)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("record: %s seed %d failed (exit %d):\n%s%s"
                 % (workload, seed, proc.returncode, proc.stdout,
                    proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("record: %s seed %d reported incorrect output:\n%s"
                 % (workload, seed, proc.stdout))
    return result, lines[:-1], elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", default=os.path.join(HERE, "results"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    run.build()
    os.makedirs(args.out, exist_ok=True)

    record_path = os.path.join(args.out, "steadiness.json")
    record = {}
    if os.path.exists(record_path):
        with open(record_path) as f:
            record = json.load(f)
    record["host"] = {"machine": platform.machine(), "cpus": os.cpu_count()}
    record.setdefault("workloads", {})

    for w in workloads:
        per_metric = {}
        elapsed = []
        for seed in range(1, RUNS + 1):
            result, _, secs = run_once(w, seed, seconds, 0)
            elapsed.append(secs)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        rows = {}
        for name, values in per_metric.items():
            s = spread(values)
            s["bound"] = bounds[name]
            s["steady"] = s["iqr_share"] < bounds[name] / 3
            rows[name] = s
            print("  %-12s median %-12.6g IQR/median %6.2f%%  bound %4.0f%%"
                  "  %s" % (name, s["median"], 100 * s["iqr_share"],
                            100 * bounds[name],
                            "ok" if s["steady"] else "NOT STEADY"))
        sets = record["workloads"].setdefault(w, {"sets": []})["sets"]
        entry = {"recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime()),
                 "runs": RUNS, "run_seconds": seconds,
                 "run_wall_s": spread(elapsed),
                 "metrics": rows}
        if sets:
            prev = sets[-1]["metrics"]
            entry["worse_than_previous_set"] = {
                name: (rows[name]["median"] / prev[name]["median"] - 1
                       if better[name] == "lower" else
                       prev[name]["median"] / rows[name]["median"] - 1)
                for name in rows if name in prev}
            for name, worse in entry["worse_than_previous_set"].items():
                print("  %-12s %+6.2f%% against the previous set  %s"
                      % (name, 100 * worse,
                         "ok" if worse <= bounds[name] else "DRIFTED"))
        sets.append(entry)
        with open(record_path, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")

        if args.no_trace:
            continue
        result, lines, _ = run_once(w, 1, seconds, 1)
        trace_dir = os.path.join(run.WORK, "trace")
        with open(os.path.join(trace_dir, w + ".layers.json")) as f:
            layers = json.load(f)
        untraced = rows["wall_s"]["median"]
        layers["untraced_wall_s_median"] = untraced
        layers["tracing_overhead_pct"] = (
            100 * (layers["traced_wall_s"] / untraced - 1))
        with open(os.path.join(args.out, w + ".traced.json"), "w") as f:
            json.dump(layers, f, indent=2)
            f.write("\n")
        # The kept span file holds every probe span and the first measured
        # ops; the full file stays in the build tree.
        with open(os.path.join(trace_dir, w + ".spans.json")) as f:
            spans = json.load(f)
        spans["traceEvents"] = [
            e for e in spans["traceEvents"]
            if e["args"]["op"] < KEPT_OPS or e["args"]["op"] >= PROBE_OP]
        with gzip.open(os.path.join(args.out, w + ".spans.json.gz"),
                       "wt") as f:
            json.dump(spans, f)
        print("  traced: %s\n  tracing overhead %.2f%% (wall_s %.6g vs "
              "untraced median %.6g)" % (layers["share"],
                                         layers["tracing_overhead_pct"],
                                         layers["traced_wall_s"], untraced))


if __name__ == "__main__":
    main()
