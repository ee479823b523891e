#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Run from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--json out.json]

For each workload it runs the benchmark once per seed, untraced, for
`run_seconds` from BENCHMARK.json, and reports per metric the median, the
quartiles (`statistics.quantiles(values, n=4)`), and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. A spread above a third of its bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--json", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    report = {}
    ok = True
    for workload in chosen:
        runs = []
        for s in seeds(args.seeds):
            runs.append(run_once(bench, workload, s))
            print(f"  {workload} seed {s}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), file=sys.stderr, flush=True)
        report[workload] = {}
        print(f"{workload} ({len(runs)} seeds)")
        print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                flag, ok = " !", False
            report[workload][metric["name"]] = {
                "values": values, "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"]}
            print(f"  {metric['name']:<26}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{metric['bound']:>7.2f}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
