#!/usr/bin/env python3
"""Measure how steady the benchmark is: run each workload once per seed,
then report, per end-to-end metric, the median, the quartiles and the
interquartile spread as a share of the median, next to the metric's bound
in BENCHMARK.json. With --sets 2 the seeds are run twice and the second
set's medians are compared with the first's.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10 --sets 2 --out perfbench/steadiness.json

A spread passes when it is below a third of the bound (setup_s is exempt
from the spread rule); a set-to-set change passes when the second median is
not worse than the first by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(s):
    out = []
    for part in s.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    return res, detail, time.time() - t0


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse(first, second, better):
    """Relative change of second against first, positive when worse."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]

    record = {"run_seconds": seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                res, detail, wall = run_once(w, seed, seconds)
                runs.append({"seed": seed, "wall_s": round(wall, 1),
                             "steal_frac": detail.get("steal_frac"),
                             "blocks_repeated": detail.get("blocks_repeated"),
                             "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
                print(f"{w} set {s + 1} seed {seed}: {wall:.0f}s, steal {detail.get('steal_frac', 0):.3f}, "
                      f"{detail.get('blocks_repeated')} blocks repeated, "
                      f"{res['metrics']['campaigns_per_s']['value']:.2f} campaigns/s", file=sys.stderr)
            sets.append(runs)
        stamp = {k: detail.get(k) for k in ("cpu_model", "nproc", "gomaxprocs", "go_version",
                                              "commit", "sampling_workers", "dataset_n",
                                              "dataset_m", "checkpoint_fs")}
        rows = {}
        for m in metrics:
            name = m["name"]
            per_set = [summarize([r["metrics"][name] for r in runs]) for runs in sets]
            row = {"bound": m["bound"], "sets": per_set}
            row["spread_ok"] = name == "setup_s" or all(x["spread"] < m["bound"] / 3 for x in per_set)
            if len(per_set) > 1:
                row["second_vs_first"] = worse(per_set[0]["median"], per_set[1]["median"], m["better"])
                row["drift_ok"] = row["second_vs_first"] <= m["bound"]
            ok = ok and row["spread_ok"] and row.get("drift_ok", True)
            rows[name] = row
        profits = {r["seed"]: r["metrics"]["profit_mean"] for r in sets[0]}
        record["workloads"][w] = {"stamp": stamp, "metrics": rows, "profit_mean_by_seed": profits,
                                  "runs": sets}
        print(f"\n{w}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8} {'2nd-1st':>8}")
        for name, row in rows.items():
            s0 = row["sets"][0]
            drift = f"{row['second_vs_first']:+.3f}" if "second_vs_first" in row else "-"
            flag = "" if row["spread_ok"] and row.get("drift_ok", True) else "  <-- FAIL"
            print(f"  {name:18} {s0['median']:12.4f} {s0['q1']:12.4f} {s0['q3']:12.4f} "
                  f"{max(x['spread'] for x in row['sets']):8.4f} {row['bound'] / 3:8.4f} {drift:>8}{flag}")
    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
