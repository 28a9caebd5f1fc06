#!/usr/bin/env python3
"""Status counts of the connector on the de Sitter η-bands and the Clifton-Pohl census.

    python3 tools/band_census.py [--sets reachable,lift,unreachable,clifton_pohl]

Four seeded sets of two-point queries, each printed with its status counts,
``Stalled`` split by the witness's ``reason`` and ``DomainExit`` by its
``termination``, the differentials d(exp_p) its witnesses report
(``dexp_calls``) and its process CPU time:

- ``reachable``: ``connect`` on desitter(2) from the chart origin to the
  targets with η ∈ (−1, −0.999] of seeds 0–1, 30 each, on ``_DS_CONNECT``;
- ``lift``: the same band through ``_lift`` alone, seeds 0–5 and 35;
- ``unreachable``: ``connect`` on η ∈ [−1.1, −1.0001], seeds 0–7;
- ``clifton_pohl``: ``connect`` on clifton_pohl with the default config, the
  first 40 pairs p, q drawn as ``default_rng(99).uniform(-2, 2, 2)`` each
  with |p| and |q| above 0.2.

Every target of the first two sets is reachable and every target of the
third is not.  The targets and the connector config come from
``tests/test_connector.py`` (``_desitter_targets``, ``_DS_CONNECT``).
"""
import argparse
import sys
import time
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

# test_connector imports the benchmark's workloads for tests of its own; the
# census needs none of them, so a placeholder stands in for that module
sys.modules.setdefault("workloads", types.ModuleType("workloads"))

from geoconnect import ConnectConfig, connect, model_registry  # noqa: E402
from geoconnect.connect import _lift  # noqa: E402
from test_connector import _DS_CONNECT, _desitter_targets  # noqa: E402

REACHABLE = (-1.0, -0.999)
UNREACHABLE = (-1.1, -1.0001)
PER_SEED = 30
CENSUS_PAIRS = 40
CENSUS_MIN_NORM = 0.2


def _label(out) -> str:
    """The status, with the reason of a stall or the termination of a domain exit."""
    detail = {"Stalled": "reason", "DomainExit": "termination"}.get(out.status)
    return f"{out.status} ({out.witness[detail]})" if detail else out.status


def _desitter_queries(seeds, band):
    d = model_registry("desitter", n=2)
    p = np.zeros(2)
    return [(d, p, q) for seed in seeds for q in _desitter_targets(seed, *band, PER_SEED)]


def _clifton_pohl_queries():
    cp = model_registry("clifton_pohl")
    rng = np.random.default_rng(99)
    queries = []
    while len(queries) < CENSUS_PAIRS:
        p, q = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
        if np.linalg.norm(p) > CENSUS_MIN_NORM and np.linalg.norm(q) > CENSUS_MIN_NORM:
            queries.append((cp, p, q))
    return queries


SETS = {
    "reachable": (lambda: _desitter_queries(range(2), REACHABLE), connect, _DS_CONNECT),
    "lift": (lambda: _desitter_queries([*range(6), 35], REACHABLE), _lift, _DS_CONNECT),
    "unreachable": (lambda: _desitter_queries(range(8), UNREACHABLE), connect, _DS_CONNECT),
    "clifton_pohl": (_clifton_pohl_queries, connect, ConnectConfig()),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", default=",".join(SETS),
                    help="comma-separated subset of " + ", ".join(SETS))
    args = ap.parse_args()
    names = args.sets.split(",")
    unknown = [name for name in names if name not in SETS]
    if unknown:
        ap.error(f"unknown set(s): {', '.join(unknown)}")
    for name in names:
        queries, solve, cfg = SETS[name]
        start = time.process_time()
        statuses, differentials = Counter(), 0
        for model, p, q in queries():
            out = solve(model, p, q, cfg)
            statuses[_label(out)] += 1
            differentials += out.witness["dexp_calls"]
        counts = ", ".join(f"{n} {status}" for status, n in sorted(statuses.items()))
        print(f"{name}: {sum(statuses.values())} queries: {counts}; "
              f"{differentials} differentials; {time.process_time() - start:.1f} s CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main())
