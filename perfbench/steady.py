#!/usr/bin/env python3
"""Steadiness check: run each workload over several seeds and report spreads.

    python3 perfbench/steady.py [--workloads shoot connect survey] [--seeds 10]
        [--first-seed 1] [--seconds S] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

For every end-to-end metric of BENCHMARK.json this prints the median of the
runs and the distance between their first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
next to the metric's bound.  A spread is marked ``ok`` below a third of the
bound.  ``--compare`` reads two saved sets and reports, per workload and
metric, how much worse the second median is than the first, against the bound.
Runs are made one after another, never in parallel.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = load_bench()["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def report(results: dict, bench: dict) -> bool:
    """Print the spread table; True when every judged spread is below bound / 3."""
    steady = True
    print(f"{'workload':9s} {'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for workload, runs in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, sp = spread([r[name] for r in runs])
            if name == "setup_s":
                verdict = "not judged (set-up)"
            elif sp < bound / 3.0:
                verdict = "ok"
            elif sp <= bound:
                verdict = "within bound, above bound/3"
                steady = False
            else:
                verdict = "OUTSIDE BOUND"
                steady = False
            print(f"{workload:9s} {name:18s} {med:12.4f} {sp:8.4f} {bound:6.3f}  {verdict}")
    return steady


def compare(first: dict, second: dict, bench: dict) -> bool:
    """Print how much worse each second median is; True when all are within bounds."""
    ok = True
    print(f"{'workload':9s} {'metric':18s} {'first':>12s} {'second':>12s} {'worse by':>9s} {'bound':>6s}")
    for workload in first:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "" if worse <= bound else "  WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"{workload:9s} {name:18s} {a:12.4f} {b:12.4f} {worse:9.4f} {bound:6.3f}{flag}")
    return ok


def main(argv=None) -> int:
    bench = load_bench()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second, bench) else 1
    results = {}
    for workload in args.workloads:
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.perf_counter()
            results[workload].append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1))
    return 0 if report(results, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
