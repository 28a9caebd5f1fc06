"""Every benchmark operation kind runs traced (``--trace 1``) and passes its check.

The benchmark's traced run patches library functions and wraps model
callbacks from outside the package, so a library change can break it for one
kind only: a renamed patch target, or an oracle method the traced model's
proxy does not forward.  This runs one operation of each kind the way a
traced run does and leaves the files under ``perfbench/`` unchanged.
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


@pytest.mark.parametrize("kind", sorted(workloads.KINDS))
def test_traced_operation_passes_its_check(env, kind):
    models, cfgs = env
    op = workloads.Op(kind, workloads.KINDS[kind].gen(np.random.default_rng(1)))
    rec = tracing.Recorder()
    traced = {k: tracing.traced_model(rec, m) for k, m in models.items()}
    with tracing.patched(rec):
        phase = run.measure(gc, traced, models, cfgs, [[op]], 0.0, 1, rec)
    assert phase.failures == []
    assert tracing.summarize(rec)[tracing.ROOT]["calls"] == 1
