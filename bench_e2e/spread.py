#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

Runs one or more workloads once per seed and prints, for every metric, the
median over the runs and the spread: the distance between the first and
third quartile (Python's statistics.quantiles, n=4) as a share of the
median -- the figure each metric's bound in BENCHMARK.json is compared to.
Every metric with a bound counts towards the worst spread/bound printed
last, setup_s included.

    python3 bench_e2e/spread.py --workloads stream_full_local stream_low_remote \
        --seeds 1 2 3 4 5 [--trace 0] [--seconds 15]

Run from the repository root. Builds the benchmark once first.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "bench_e2e/Cargo.toml", "--"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        BENCH + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", "bench_e2e/Cargo.toml"], check=True)
    worst = (0.0, "")
    for w in args.workloads:
        values = {}
        for seed in args.seeds:
            res = run(w, seed, seconds, args.trace)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: INCORRECT {res['failed']}/{res['attempted']}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()), flush=True)
        print(f"\n{w}: {len(args.seeds)} runs")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound:
                worst = max(worst, (spread / bound, f"{w} {name}"))
                flag = "  OVER BOUND" if spread > bound else (
                    "  over bound/3" if spread > bound / 3 else "")
            print(f"  {name:<28} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        print()
    print(f"worst spread/bound: {worst[0]:.3f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
