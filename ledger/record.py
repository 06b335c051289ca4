#!/usr/bin/env python3
"""Record a performance ledger, and compare two.

Run from the repository root:

    python3 ledger/record.py [--runs N] [--workload W ...] [--out FILE]
    python3 ledger/record.py --compare OLD.json NEW.json

Recording runs the command in BENCHMARK.json N times per workload (seeds
1..N, untraced) plus one traced run (seed 1), and writes one JSON document:
per workload, every end-to-end metric's values with their median and
quartiles, the traced run's per-layer metrics, the trace overhead, and the
check counts. It prints each metric's median and quartile spread (the
distance between the first and third quartile as a share of the median)
against its bound. Comparing prints, for each workload and end-to-end
metric, the change of the median, the bound, and a verdict: `ok`,
`regressed` (worse by more than the bound), `improved` (better by more than
the bound), or `unresolved` (a side's spread is wider than the bound, and
the runs of the two sides overlap).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    args = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        print(f"  {workload} seed {seed}: exit {done.returncode}, "
              f"{result['failed']} of {result['attempted']} failed", file=sys.stderr)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "values": values,
    }


def spread(s):
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def record(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ledger = {"run_seconds": bench["run_seconds"], "runs": args.runs, "workloads": {}}
    for name in names:
        results = []
        for seed in range(1, args.runs + 1):
            print(f"{name}: seed {seed}", file=sys.stderr)
            results.append(run_once(bench, name, seed, trace=False))
        traced = run_once(bench, name, 1, trace=True)
        e2e = {
            m["name"]: dict(unit=m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in results]))
            for m in bench["end_to_end"]
        }
        layers = {k: v for k, v in traced["metrics"].items()}
        overhead = layers["traced_latency_ms"]["value"] / e2e["latency_ms"]["median"] - 1
        ledger["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results + [traced]),
            "failed": sum(r["failed"] for r in results + [traced]),
            "end_to_end": e2e,
            "per_layer": layers,
            "trace_overhead": overhead,
        }
        for metric, s in e2e.items():
            print(f"{name:13} {metric:12} median {s['median']:12.6g} {s['unit']:4} "
                  f"spread {spread(s):6.2%}  bound {bounds[metric]:.0%}", file=sys.stderr)
        print(f"{name:13} trace overhead {overhead:+.2%}", file=sys.stderr)
    out = args.out or os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                   "ledger", "ledger.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    print(f"ledger written to {out}", file=sys.stderr)


def verdict(old, new, bound, better):
    sign = 1 if better == "lower" else -1
    change = sign * (new["median"] - old["median"]) / old["median"]
    beats = (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)
    all_better = all(beats(n, o) for n in new["values"] for o in old["values"])
    all_worse = all(beats(o, n) for n in new["values"] for o in old["values"])
    if max(spread(old), spread(new)) > bound and not (all_better or all_worse):
        return change, "unresolved"
    if change > bound:
        return change, "regressed"
    if change < -bound:
        return change, "improved"
    return change, "ok"


def compare(old_path, new_path):
    bench = load_benchmark()
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    worst = "ok"
    for name, w in new["workloads"].items():
        if name not in old["workloads"]:
            continue
        for m in bench["end_to_end"]:
            o = old["workloads"][name]["end_to_end"][m["name"]]
            n = w["end_to_end"][m["name"]]
            change, v = verdict(o, n, m["bound"], m["better"])
            if v == "regressed" or (v == "unresolved" and worst == "ok"):
                worst = v
            print(f"{name:13} {m['name']:12} {o['median']:12.6g} -> {n['median']:12.6g} "
                  f"{m['unit']:4} worse by {change:+7.2%}  bound {m['bound']:.0%}  {v}")
    return 1 if worst == "regressed" else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    record(args)


if __name__ == "__main__":
    main()
