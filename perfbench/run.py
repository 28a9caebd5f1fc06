#!/usr/bin/env python3
"""geoconnect benchmark: one closed-loop client running a seeded workload.

    python3 perfbench/run.py --workload shoot|connect|survey --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; geoconnect is imported from its ``src``.
One process, one client, one thread, BLAS pinned to one thread.  Operations
run back to back, in blocks, until S seconds of operation time have passed
and at least MIN_OPS have completed; every result is checked against a
reference.  Times are scaled to a reference machine speed measured between
operations (see ``speed.py``); the measured values are printed beside them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (spans are written to ``perfbench/out``).  The last
line of standard output is one JSON object; the exit code is 1 when a result
fails its check and 2 when the program cannot be set up.
"""
import os
import sys
import time

_T0 = time.perf_counter()
if __name__ == "__main__":
    # one BLAS thread; set before numpy loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_OPS = 100          # so that at least ten latency samples lie beyond p90
SETUP_REPEATS = 7      # this process plus fresh interpreters, median reported
TRACED_SHARE = 0.5     # share of --seconds spent traced; the rest replays untraced


class SetupError(Exception):
    pass


def setup():
    """Import geoconnect from the checkout, build models, parse the INI model, warm up."""
    package = SRC / "geoconnect"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"geoconnect sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import geoconnect as gc
    if Path(gc.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported geoconnect from {gc.__file__}, not {package}")
    models = workloads.build_models(gc)
    cfgs = workloads.build_configs(gc)
    workloads.warm_up(gc, models, cfgs)
    return gc, models, cfgs


@dataclass
class Phase:
    latencies: list      # measured seconds per operation
    scaled: list         # the same at the reference machine speed
    failures: list       # (kind, reason) per failed check
    done: list           # operations run, in order


def measure(gc, models, ref, cfgs, blocks, seconds, min_ops, rec=None) -> Phase:
    """Run blocks of operations back to back, closed loop.

    Stops at the first block boundary after ``seconds`` of operation time
    and ``min_ops`` operations.  Checks and speed probes run between the
    timed calls; checks use the untraced ``ref`` models.
    """
    track = speed.SpeedTrack()
    latencies, failures, done = [], [], []
    busy = 0.0
    clock = time.perf_counter
    for block in blocks:
        if busy >= seconds and len(done) >= min_ops:
            break
        for op in block:
            if rec is None:
                t0 = clock()
                result, error = workloads.execute(gc, models, cfgs, op)
                dt = clock() - t0
            else:
                with rec.operation(len(done)):
                    t0 = clock()
                    result, error = workloads.execute(gc, models, cfgs, op)
                    dt = clock() - t0
            latencies.append(dt)
            busy += dt
            done.append(op)
            reason = workloads.check(gc, ref, cfgs, op, result, error)
            if reason is not None:
                failures.append((op.kind, reason))
            track.after_op(dt)
    track.finish()
    return Phase(latencies, track.scale(latencies), failures, done)


def scaled_setup() -> float:
    """This process's set-up time, scaled to the reference machine speed."""
    elapsed = time.perf_counter() - _T0
    # one reading per set-up rather than one per 0.25 s: take a longer probe
    return elapsed * speed.KERNEL_REF_S / speed.probe(3 * speed.PROBE_REPEATS)


def setup_samples(first: float) -> list[float]:
    """Set-up time of this process plus fresh interpreters started one at a time."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def report_failures(failures) -> None:
    for kind, reason in failures[:20]:
        print(f"FAILED {kind}: {reason}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures")


def end_to_end(phase: Phase, setups: list[float]) -> dict:
    """name -> (scaled value, measured value, unit)."""
    lat, sc = np.asarray(phase.latencies), np.asarray(phase.scaled)
    n = len(lat)
    return {
        "setup_s": (statistics.median(setups), None, "s"),
        "throughput_ops_s": (n / sc.sum(), n / lat.sum(), "1/s"),
        "latency_p50_ms": (np.percentile(sc, 50) * 1e3, np.percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": (np.percentile(sc, 90) * 1e3, np.percentile(lat, 90) * 1e3, "ms"),
        "ok_ratio": ((n - len(phase.failures)) / n, None, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None, "MB"),
    }


def run_untraced(args, gc, models, cfgs, setup_first):
    phase = measure(gc, models, models, cfgs, workloads.blocks(args.workload, args.seed),
                    args.seconds, MIN_OPS)
    n = len(phase.done)
    metrics = end_to_end(phase, setup_samples(setup_first))
    mix = Counter(op.kind for op in phase.done)
    print(f"workload {args.workload}, seed {args.seed}: {n} operations in "
          f"{sum(phase.latencies):.2f} s of operation time")
    print("mix: " + ", ".join(f"{k}={v}" for k, v in sorted(mix.items())))
    print(f"{'metric':18s} {'reported':>12s} {'measured':>12s}")
    for name, (value, raw, unit) in metrics.items():
        raw_text = f"{raw:12.4f}" if raw is not None else " " * 12
        note = {"latency_p50_ms": f"  (n={n})", "latency_p90_ms": f"  (n={n})",
                "setup_s": f"  (median of {SETUP_REPEATS} set-ups)"}.get(name, "")
        print(f"{name:18s} {value:12.4f} {raw_text} {unit}{note}")
    print(f"{'failed_ratio':18s} {len(phase.failures) / n:12.4f} {'':12s} ratio"
          f"  ({len(phase.failures)} of {n})")
    report_failures(phase.failures)
    return n, phase.failures, {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()}


def run_traced(args, gc, models, cfgs):
    rec = tracing.Recorder()
    traced = {key: tracing.traced_model(rec, m, "dsl.metric" if key == "dsl" else "models.metric")
              for key, m in models.items()}
    with tracing.patched(rec):
        traced_phase = measure(gc, traced, models, cfgs,
                               workloads.blocks(args.workload, args.seed),
                               args.seconds * TRACED_SHARE, 1, rec)
    plain = measure(gc, models, models, cfgs, [traced_phase.done], float("inf"), 0)
    layer = tracing.layer_metrics(rec)
    layer["trace.overhead_ratio"] = sum(plain.scaled) / sum(traced_phase.scaled)
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"spans-{args.workload}.npz")
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}: {len(traced_phase.done)} operations "
          f"traced, {len(rec.start)} spans")
    for name, value in layer.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    failures = traced_phase.failures + plain.failures
    report_failures(failures)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    return len(traced_phase.done) + len(plain.done), failures, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        gc, models, cfgs = setup()
    except SetupError as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 2
    setup_first = scaled_setup()
    if args.setup_only:
        print(repr(setup_first))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.trace:
            attempted, failures, metrics = run_traced(args, gc, models, cfgs)
        else:
            attempted, failures, metrics = run_untraced(args, gc, models, cfgs, setup_first)
    except SetupError as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
