"""Every benchmark operation kind runs traced (``--trace 1``), passes its check
and records the library spans its layer metrics read.

The benchmark's traced run patches library functions and wraps model
callbacks from outside the package, so a library change can break it for one
kind only: a renamed patch target, or an oracle method the traced model's
proxy does not forward.  A refactor that stops calling a patched name still
passes the check, but its layer metric silently reads 0; the span sets below
catch that.  This runs one operation of each kind the way a traced run does
and leaves the files under ``perfbench/`` unchanged.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import geoconnect as gc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def env():
    return workloads.build_models(gc), workloads.build_configs(gc)


def _expected_spans(kind: str) -> set[str]:
    """Library spans one operation of ``kind`` records at least."""
    spans = set()
    if kind.startswith(("geo_", "exp_")):
        spans.add("geodesic.integrate")
    if kind.startswith("connect_"):
        spans |= {"connect", "jacobi.dexp"}
    if kind == "connect_desitter_unreachable":
        spans.add("connect.lift")
    if kind.startswith("scan_"):
        spans |= {"jacobi.scan", "jacobi.variational"}
    if kind == "locus_sphere":
        spans |= {"jacobi.locus", "jacobi.scan"}
    if kind == "gauss_lemma":
        spans |= {"probes", "jacobi.variational"}
    if kind in ("disprisonment", "weak_properness", "pseudoconvexity"):
        spans.add("probes")
    if "paraboloid" in kind:
        spans.add("manifold.fd_christoffel")
    if kind.startswith("connect_desitter") or kind == "weak_properness":
        spans.add("models.oracle")
    return spans


def test_every_kind_expects_some_span():
    assert all(_expected_spans(kind) for kind in workloads.KINDS)


@pytest.mark.parametrize("kind", sorted(workloads.KINDS))
def test_traced_operation_passes_its_check(env, kind):
    models, cfgs = env
    op = workloads.Op(kind, workloads.KINDS[kind].gen(np.random.default_rng(1)))
    rec = tracing.Recorder()
    traced = {k: tracing.traced_model(rec, m) for k, m in models.items()}
    with tracing.patched(rec):
        phase = run.measure(gc, traced, models, cfgs, [[op]], 0.0, 1, rec)
    assert phase.failures == []
    spans = tracing.summarize(rec)
    assert spans[tracing.ROOT]["calls"] == 1
    recorded = {name for name, row in spans.items() if row["calls"] > 0}
    assert _expected_spans(kind) <= recorded
