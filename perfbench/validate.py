#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/validate.py --workloads cold-local,warm-serve --seeds 1-5
    python3 perfbench/validate.py --seeds 1-10 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the
quartiles and the spread (third minus first quartile, as a share of the
median, from statistics.quantiles(values, n=4)) next to the metric's
bound from BENCHMARK.json, and flags a spread above a third of its
bound. --trace adds one traced run per workload. --out records the
medians and quartiles, the host and the seeds as a baseline file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(opts.seeds)
    seconds = spec["run_seconds"]

    baseline = {"workloads": {}, "seeds": seeds, "run_seconds": seconds}
    steady = True
    for w in workloads:
        values, walls = {}, []
        for seed in seeds:
            result, wall = run_once(spec["command"], w, seed, seconds, 0)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {wall:.1f}s " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        entry = {"why": next(x["why"] for x in spec["workloads"] if x["name"] == w),
                 "run_wall_s_max": max(walls), "end_to_end": {}}
        for name in sorted(values):
            s = summarize(values[name])
            entry["end_to_end"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print(f"  {w:13s} {name:22s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}"
                  f"  spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
        if opts.trace:
            result, wall = run_once(spec["command"], w, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["traced_run_wall_s"] = wall
        baseline["workloads"][w] = entry

    if opts.out:
        go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        baseline["host"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                            "system": platform.system(), "go": go, "commit": commit}
        with open(opts.out, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
    print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
