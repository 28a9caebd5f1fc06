#!/usr/bin/env python3
"""Digest of benchmark workloads' results, for bitwise parity between commits.

    python3 tools/parity_digest.py --workload connect --seed 1 --blocks 20 \
        [--save FILE] [--against FILE]
    python3 tools/parity_digest.py --workload all --seeds 1,2,5 --blocks 20 ...

Runs the first N blocks of each workload and seed through ``workloads.execute``
and ``workloads.check`` from ``perfbench/`` (read only) on the geoconnect of
this checkout.  Prints, per (workload, seed), the operations, the failed
checks, the status counts per kind and one digest over every field and class
constant of every result: floats by ``float.hex``, arrays by their bytes; then
the totals and one digest over every run.  ``--save`` writes the
per-operation digests and statuses of every run; ``--against`` lists the
operations whose result differs from a saved file's run of the same workload
and seed.  A connect status carries "/fast" when ``local_log`` found it.
"""
import argparse
import dataclasses
import enum
import hashlib
import inspect
import itertools
import json
import sys
import types
from collections import Counter
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import geoconnect as gc  # noqa: E402
import workloads  # noqa: E402


def value_names(cls) -> list[str]:
    """A dataclass's fields and class constants (``ClassVar``) in declaration
    order along the MRO, the order of ``dataclasses.fields``: a setting that
    turns from a field into a constant keeps its place in the digest."""
    names: dict = {}
    for klass in reversed(cls.__mro__):
        names.update(dict.fromkeys(inspect.get_annotations(klass)))
    return list(names)


def canon(x, out: list) -> None:
    """Append a canonical text for x and everything it holds to out."""
    if x is None or isinstance(x, (bool, int, str)):
        out.append(repr(x))
    elif isinstance(x, (float, np.floating)):
        out.append(float(x).hex())
    elif isinstance(x, np.generic):
        canon(x.item(), out)
    elif isinstance(x, np.ndarray):
        if x.dtype == object:
            raise TypeError("cannot digest an object array")
        out.append(f"{x.dtype}{x.shape}")
        out.append(np.ascontiguousarray(x).tobytes().hex())
    elif isinstance(x, enum.Enum):
        out.append(str(x.value))
    elif isinstance(x, gc.ManifoldModel):
        out.append(f"model:{x.name}")
    elif isinstance(x, BaseException):
        out.append(type(x).__name__)
        canon(list(x.args), out)
    elif isinstance(x, dict):
        for key, value in x.items():
            canon(key, out)
            canon(value, out)
    elif isinstance(x, (list, tuple)):
        out.append(f"[{len(x)}")
        for item in x:
            canon(item, out)
    elif isinstance(x, (types.FunctionType, types.MethodType, partial)):
        out.append("callable")        # closures over state already digested
    elif dataclasses.is_dataclass(x):
        canon({name: getattr(x, name) for name in value_names(type(x))}, out)
    elif hasattr(x, "__dict__") or hasattr(x, "__slots__"):
        names = list(getattr(x, "__dict__", {})) + list(getattr(x, "__slots__", ()))
        canon({name: getattr(x, name) for name in names}, out)
    else:
        raise TypeError(f"cannot digest {type(x).__name__}")


def status(result, error) -> str:
    if error is not None:
        term = getattr(error, "termination", None)
        return type(error).__name__ + (f":{term.value}" if term is not None else "")
    if isinstance(result, gc.LiftOutcome):
        return result.status + ("/fast" if result.witness.get("method") == "local_log" else "")
    term = getattr(result, "termination", None)
    return term.value if term is not None else "ok"


def run(workload: str, seed: int, blocks: int, models, cfgs) -> dict:
    """One (workload, seed): its operations' kinds, statuses and digests, the
    failed checks and the status counts per kind."""
    rows, failed, counts = [], [], Counter()
    for block in itertools.islice(workloads.blocks(workload, seed), blocks):
        for op in block:
            result, error = workloads.execute(gc, models, cfgs, op)
            reason = workloads.check(gc, models, cfgs, op, result, error)
            if reason is not None:
                failed.append((len(rows), op.kind, reason))
            parts: list = []
            canon((result, error), parts)
            label = status(result, error)
            counts[op.kind, label] += 1
            rows.append({"kind": op.kind, "status": label,
                         "digest": hashlib.sha256("\n".join(parts).encode()).hexdigest()})
    digest = hashlib.sha256("".join(r["digest"] for r in rows).encode()).hexdigest()
    return {"workload": workload, "seed": seed, "digest": digest, "operations": rows,
            "failed": failed, "counts": counts}


def seed_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*sorted(workloads.WORKLOADS), "all"], required=True)
    ap.add_argument("--seeds", "--seed", dest="seeds", type=seed_list, default=[1],
                    help="one seed or a comma-separated list")
    ap.add_argument("--blocks", type=int, default=20)
    ap.add_argument("--save", help="write the per-operation digests to this JSON file")
    ap.add_argument("--against", help="list the operations that differ from this saved file")
    args = ap.parse_args()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    models, cfgs = workloads.build_models(gc), workloads.build_configs(gc)
    runs = [run(name, seed, args.blocks, models, cfgs) for name in names for seed in args.seeds]
    for r in runs:
        print(f"{r['workload']} seed {r['seed']}, {args.blocks} blocks: "
              f"{len(r['operations'])} operations, {len(r['failed'])} failed checks")
        for i, kind, reason in r["failed"]:
            print(f"  FAILED #{i} {kind}: {reason}")
        for (kind, label), n in sorted(r["counts"].items()):
            print(f"  {kind:32s} {label:28s} {n}")
        print(f"digest {r['digest']}")
    total = hashlib.sha256("".join(r["digest"] for r in runs).encode()).hexdigest()
    operations = sum(len(r["operations"]) for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    if len(runs) > 1:
        print(f"all {len(runs)} runs: {operations} operations, {failed} failed checks")
        print(f"total digest {total}")
    if args.save:
        Path(args.save).write_text(json.dumps({"digest": total, "runs": [
            {key: r[key] for key in ("workload", "seed", "digest", "operations")}
            for r in runs]}))
    if args.against:
        saved = {(r["workload"], r["seed"]): r["operations"]
                 for r in json.loads(Path(args.against).read_text())["runs"]}
        differ = compared = missing = 0
        for r in runs:
            rows = r["operations"]
            old = saved.get((r["workload"], r["seed"]))
            if old is None:
                print(f"  {r['workload']} seed {r['seed']}: no saved run")
                missing += 1
                continue
            for i, (a, b) in enumerate(zip(rows, old)):
                if a != b:
                    differ += 1
                    print(f"  differs {r['workload']} seed {r['seed']} #{i} {a['kind']}: "
                          f"{b['status']} -> {a['status']}")
            compared += min(len(rows), len(old))
            if len(rows) != len(old):
                print(f"  {r['workload']} seed {r['seed']}: counts {len(old)} -> {len(rows)}")
        print(f"{differ} of {compared} operations differ"
              + (f"; {missing} runs not in {args.against}" if missing else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
