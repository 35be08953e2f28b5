#!/usr/bin/env python3
"""Steadiness study of the benchmark described by BENCHMARK.json.

Runs the benchmark command twice per seed (sets A and B, alternating
which goes first), on every workload, and reports for each end-to-end
metric each set's median and spread (the distance between the first
and third quartile as a share of the median) and how far B's median
lies from A's. A metric passes when both spreads (except that of
`setup_s`) and the drift stay within the metric's bound.

    python3 perfbench/steadiness.py --runs 10 [--workloads lookup,ingest]

Run it from the repository root. Raw results go to
`.bench_out/steadiness.json`; the exit code is 1 if any metric fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--seed0", type=int, default=1, help="first seed")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        seed = args.seed0 + i
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                metrics = run_once(bench["command"], w, seed, args.seconds)
                results[w][side].append(metrics)
                print(f"{w} seed={seed} set={side} " +
                      " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)

    failed = False
    print(f"\n{'workload':16} {'metric':14} {'median A':>10} {'spread A':>8} "
          f"{'median B':>10} {'spread B':>8} {'drift':>7} {'bound':>6}")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in results[w]["A"]]
            b = [r[name] for r in results[w]["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            failed |= not ok
            print(f"{w:16} {name:14} {ma:10.4g} {sa:8.3f} {mb:10.4g} {sb:8.3f} "
                  f"{worse:+7.3f} {bound:6.2f} {'ok' if ok else 'FAIL'}")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(results, indent=1))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
