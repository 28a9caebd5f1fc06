#!/usr/bin/env python3
"""Digest of a benchmark workload's results, for bitwise parity between commits.

    python3 tools/parity_digest.py --workload connect --seed 1 --blocks 20 \
        [--save FILE] [--against FILE]

Runs the first N blocks of a workload and seed through ``workloads.execute``
and ``workloads.check`` from ``perfbench/`` (read only) on the geoconnect of
this checkout.  Prints the operations, the failed checks, the status counts
per kind and one digest over every field of every result: floats by
``float.hex``, arrays by their bytes.  ``--save`` writes the per-operation
digests and statuses; ``--against`` lists the operations whose result differs
from a saved run.  A connect status carries "/fast" when ``local_log`` found it.
"""
import argparse
import dataclasses
import enum
import hashlib
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
        canon({f.name: getattr(x, f.name) for f in dataclasses.fields(x)}, out)
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--blocks", type=int, default=20)
    ap.add_argument("--save", help="write the per-operation digests to this JSON file")
    ap.add_argument("--against", help="list the operations that differ from this saved run")
    args = ap.parse_args()
    models, cfgs = workloads.build_models(gc), workloads.build_configs(gc)
    rows, failed, counts = [], [], Counter()
    for block in itertools.islice(workloads.blocks(args.workload, args.seed), args.blocks):
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
    total = hashlib.sha256("".join(r["digest"] for r in rows).encode()).hexdigest()
    print(f"{args.workload} seed {args.seed}, {args.blocks} blocks: {len(rows)} operations, "
          f"{len(failed)} failed checks")
    for i, kind, reason in failed:
        print(f"  FAILED #{i} {kind}: {reason}")
    for (kind, label), n in sorted(counts.items()):
        print(f"  {kind:32s} {label:28s} {n}")
    print(f"digest {total}")
    if args.save:
        Path(args.save).write_text(json.dumps({"digest": total, "operations": rows}))
    if args.against:
        saved = json.loads(Path(args.against).read_text())["operations"]
        differ = [i for i, (a, b) in enumerate(zip(rows, saved)) if a != b]
        for i in differ:
            print(f"  differs #{i} {rows[i]['kind']}: {saved[i]['status']} -> "
                  f"{rows[i]['status']}")
        print(f"{len(differ)} of {min(len(rows), len(saved))} operations differ"
              + ("" if len(rows) == len(saved) else f"; counts {len(saved)} -> {len(rows)}"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
