"""Tests of the benchmark itself: workload generation, span arithmetic,
wrapper hygiene and failure accounting.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import geoconnect as gc  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def env():
    return workloads.build_models(gc), workloads.build_configs(gc)


def _blocks(workload, seed, n=6):
    return list(itertools.islice(workloads.blocks(workload, seed), n))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_is_fixed_by_seed(workload):
    a, b, c = _blocks(workload, 7), _blocks(workload, 7), _blocks(workload, 8)
    assert a == b
    assert a != c
    # the seed moves inputs and order; the mix of every block stays the same
    for x, y in zip(a, c):
        assert sorted(op.kind for op in x) == sorted(op.kind for op in y)


def test_self_time_on_synthetic_tree():
    rec = tracing.Recorder()
    root = rec.add("op", 0.0, 10.0, -1)
    a = rec.add("connect", 1.0, 4.0, root)
    b = rec.add("jacobi.dexp", 5.0, 9.0, root)
    rec.add("models.christoffel", 6.0, 7.0, b)
    rec.add("models.christoffel", 7.5, 8.0, b)
    rec.add("jacobi.dexp", 2.0, 3.5, a)
    a_ = rec.arrays()
    selfs = tracing.self_times(a_["parent"], a_["start"], a_["end"])
    assert selfs.tolist() == pytest.approx([3.0, 1.5, 2.5, 1.0, 0.5, 1.5])
    s = tracing.summarize(rec)
    assert s["jacobi.dexp"] == {"calls": 2, "self_s": pytest.approx(4.0)}
    assert s["models.christoffel"]["self_s"] == pytest.approx(1.5)
    assert tracing.child_counts(rec, "models.christoffel", "jacobi.dexp") == 2
    assert tracing.descendant_counts(rec, "models.christoffel", "op") == 2
    assert tracing.descendant_counts(rec, "jacobi.dexp", "connect") == 1


def _namespace_snapshot():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "geoconnect" or name.startswith("geoconnect.")}


def test_wrappers_patch_every_namespace_and_restore():
    import geoconnect.cli  # noqa: F401  -- a namespace that imports connect
    before = _namespace_snapshot()
    rec = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with tracing.patched(rec):
            for mod, attr in [("geoconnect.connect", "dexp_matrix"),
                              ("geoconnect.jacobi", "integrate_variational"),
                              ("geoconnect.probes", "integrate_geodesic"),
                              ("geoconnect", "integrate_geodesic"),
                              ("geoconnect.cli", "connect")]:
                assert getattr(sys.modules[mod], attr).__wrapped_by_perfbench__
            raise RuntimeError("leave the block early")
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    for name in before:
        changed = [k for k in before[name] if before[name][k] is not after[name].get(k)]
        assert not changed, f"{name} left patched: {changed}"


def test_traced_connect_records_layers(env):
    models, cfgs = env
    rec = tracing.Recorder()
    traced = {k: tracing.traced_model(rec, m) for k, m in models.items()}
    op = workloads.Op("connect_sphere_near", {"p": (1.2, 0.3), "q": (1.5, 0.8)})
    with tracing.patched(rec):
        phase = run.measure(gc, traced, models, cfgs, [[op]], 0.0, 1, rec)
    assert phase.failures == []
    layer = tracing.layer_metrics(rec)
    assert layer["connect.calls"] == 1
    assert layer["connect.fast_path_share"] == 1.0
    assert layer["connect.status.connected"] == 1
    assert layer["jacobi.dexp.calls"] > 0 and layer["models.christoffel_deriv.calls"] > 0
    assert layer["dsl.metric.calls"] == 0


def test_benchmark_json_names_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert sorted(names) == sorted([*tracing.layer_metrics(tracing.Recorder()),
                                    "trace.overhead_ratio"])
    assert len(names) == len(set(names))


def test_wrong_result_counts_as_failed(env, monkeypatch):
    models, cfgs = env
    ops = [op for op in _blocks("shoot", 3)[0] if op.kind == "geo_sphere"]
    phase = run.measure(gc, models, models, cfgs, [ops], 0.0, 3)
    assert len(phase.done) == 3 and phase.failures == []

    real = gc.integrate_geodesic

    def off_by_a_little(*args, **kwargs):
        path = real(*args, **kwargs)
        path.states[-1, 0] += 1e-4
        return path

    monkeypatch.setattr(gc, "integrate_geodesic", off_by_a_little)
    phase = run.measure(gc, models, models, cfgs, [ops], 0.0, 3)
    assert len(phase.failures) == 3 and len(phase.scaled) == 3
    assert all(kind == "geo_sphere" for kind, _ in phase.failures)


def test_typed_refusal_is_not_a_failure(env):
    models, cfgs = env
    op = workloads.Op("scan_clifton_pohl", {"p": (1.0, 0.0), "u": (1.0, 0.0), "t_max": 5.0})
    result, error = workloads.execute(gc, models, cfgs, op)
    assert isinstance(error, gc.DomainEscape)
    assert workloads.check(gc, models, cfgs, op, result, error) is None
    wrong = workloads.check(gc, models, cfgs, op, None, ValueError("boom"))
    assert wrong is not None


def test_speed_scaling_uses_neighbouring_probes(monkeypatch):
    probes = iter([2.0, 4.0, 1.0, 3.0])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    track = speed.SpeedTrack()
    # a probe follows every PROBE_EVERY_S (0.25 s) of operation time
    for lat in (0.1, 0.2, 0.3, 0.05):
        track.after_op(lat)
    track.finish()
    ref = speed.KERNEL_REF_S
    assert track.probes == [2.0, 4.0, 1.0, 3.0]
    assert track.scale([0.1, 0.2, 0.3, 0.05]) == pytest.approx(
        [0.1 * ref / 3.0, 0.2 * ref / 3.0, 0.3 * ref / 2.5, 0.05 * ref / 2.0])


def test_reference_helpers():
    p, v = (0.2, 1.3), (0.6, -0.8)
    q = workloads._halfplane_geodesic(p, np.asarray(v) * p[1], 1.7)
    assert workloads.hyperbolic_distance(p, q) == pytest.approx(1.7, rel=1e-12)
    assert workloads.sphere_angle((1.0, 0.0), (1.0, np.pi)) == pytest.approx(2.0)
