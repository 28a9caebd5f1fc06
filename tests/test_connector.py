"""Two-point connector: exactness, periodic charts, typed failures, reports."""
import sys

import numpy as np
import pytest

from geoconnect import (
    ConnectConfig, IntegratorConfig, NoConvergence, connect, connect_report,
    conjugate_locus_sample, exp, local_log, model_registry, render_report,
)
from geoconnect.connect import (
    CORRECTOR_TOL, NEWTON_ITERATIONS, SV_FLOOR, _bumped_path, _newton, _segment_path,
)


def test_flat_connect_is_exact():
    e = model_registry("euclidean", n=3)
    p = np.array([0.0, 1.0, -2.0])
    q = np.array([3.0, -1.0, 0.5])
    out = connect(e, p, q)
    assert out.connected
    assert np.allclose(out.v, q - p, atol=1e-9)
    assert np.allclose(exp(e, p, out.v), q, atol=1e-9)


def test_minkowski_connect_all_causal_classes():
    m = model_registry("minkowski", n=2)
    p = np.zeros(2)
    for q in [np.array([2.0, 0.5]), np.array([0.5, 2.0]), np.array([1.0, 1.0])]:
        out = connect(m, p, q)
        assert out.connected
        assert np.allclose(out.v, q, atol=1e-9)


def test_identical_endpoints():
    s = model_registry("sphere2")
    out = connect(s, np.array([1.0, 0.3]), np.array([1.0, 0.3]))
    assert out.connected
    assert np.allclose(out.v, 0.0)


def test_sphere_minimal_connect_roundtrip():
    s = model_registry("sphere2")
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = np.array([rng.uniform(0.5, np.pi - 0.5), rng.uniform(-np.pi, np.pi)])
        q = np.array([rng.uniform(0.5, np.pi - 0.5), rng.uniform(-np.pi, np.pi)])
        out = connect(s, p, q)
        assert out.connected, (p, q, out.status, out.witness)
        end = exp(s, p, out.v)
        # compare in the embedding: chart reps may differ by a period
        from geoconnect.manifold import embedding_point
        assert np.linalg.norm(embedding_point(s, end)
                              - embedding_point(s, q)) < 1e-6
        # minimal arc: g-length at most pi
        g = np.asarray(s.metric(p))
        assert np.sqrt(out.v @ g @ out.v) <= np.pi + 1e-6


def test_sphere_connect_across_periodic_seam():
    """Targets whose chart phi differs by ~2pi must connect the short way."""
    s = model_registry("sphere2")
    p = np.array([1.2, -3.0])
    q = np.array([1.4, 3.1])       # delta phi = 6.1, wrapped ~ -0.18
    out = connect(s, p, q)
    assert out.connected
    g = np.asarray(s.metric(p))
    assert np.sqrt(out.v @ g @ out.v) < np.pi


def test_local_log_inverts_exp():
    h = model_registry("hyperbolic2")
    p = np.array([0.2, 1.0])
    v_true = np.array([0.7, -0.4])
    q = exp(h, p, v_true)
    v = local_log(h, p, q)
    assert np.allclose(v, v_true, atol=1e-8)


def test_local_log_raises_no_convergence():
    s = model_registry("sphere2")
    p = np.array([0.3, 0.0])
    # target that forces the Newton iterates through the chart edge
    with pytest.raises(NoConvergence):
        local_log(s, p, np.array([0.05, 3.0]), max_iter=4)


def test_local_log_stops_at_first_non_contracting_step():
    """A pair whose full Newton steps expand (|v| 3 -> 8 -> 17 -> ...) must
    leave the fast path at once, before any iterate winds round the sphere."""
    s = model_registry("sphere2")
    p = np.array([1.720708, -2.007481])
    q = np.array([0.771795, -4.837131])
    with pytest.raises(NoConvergence) as info:
        local_log(s, p, q)
    assert info.value.iterations <= 3
    # the lift still connects it
    out = connect(s, p, q)
    assert out.connected


def test_desitter_unreachable_target_fails_typed():
    """Points beyond the causal reach of p yield a typed non-Connected status."""
    d = model_registry("desitter", n=2)
    cfg = ConnectConfig(integrator=IntegratorConfig(
        rtol=1e-9, atol=1e-11, max_steps=4000, prefer_oracle=True))
    p = np.array([0.0, 0.0])
    # embedding target with eta(P, X) < -1 is never reached from P
    out = connect(d, p, np.array([np.pi, 2.5]), cfg)
    assert not out.connected
    assert out.status in {"Stalled", "EscapeWitness", "ConjugateHit", "DomainExit"}
    assert out.v is None


def test_domain_exit_status():
    s = model_registry("sphere2")
    # target at the very chart edge: corrector geodesics leave the chart
    out = connect(s, np.array([1.5, 0.0]), np.array([1e-12, 0.0]))
    assert out.status in {"DomainExit", "Stalled", "Connected"}
    if out.connected:
        assert np.isfinite(out.v).all()


def test_clifton_pohl_connect_and_typed_failure():
    cp = model_registry("clifton_pohl")
    out = connect(cp, np.array([1.0, 1.0]), np.array([60.0, 60.0]))
    assert out.connected
    assert np.allclose(exp(cp, np.array([1.0, 1.0]), out.v),
                       np.array([60.0, 60.0]), atol=1e-5)
    # across the deleted origin: corrector geodesics exit the chart or stall
    bad = connect(cp, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert bad.status in {"DomainExit", "Stalled", "EscapeWitness", "ConjugateHit"}


def test_segment_and_bumped_paths():
    p = np.zeros(2)
    q = np.array([2.0, 0.0])
    base = _segment_path(p, q)
    assert base.provenance == "ChartSegment"
    assert np.allclose(base.point(0.0), p)
    assert np.allclose(base.point(base.length), q)
    for k in range(4):
        b = _bumped_path(base, p, q, k, 0.05)
        assert np.allclose(b.point(0.0), p, atol=1e-12)
        assert np.allclose(b.point(b.length), q, atol=1e-12)
        mid = b.point(b.length / 2)
        assert abs(mid[1]) > 1e-3  # actually detours
        h = 1e-6
        fd = (b.point(1.0 + h) - b.point(1.0 - h)) / (2 * h)
        assert np.allclose(fd, b.deriv(1.0), atol=1e-5)


def test_aux_path_on_indefinite_model():
    m = model_registry("minkowski", n=2)
    cfg = ConnectConfig(path_kind="aux")
    p = np.zeros(2)
    q = np.array([1.0, 2.0])
    out = connect(m, p, q, cfg)
    assert out.connected
    assert np.allclose(exp(m, p, out.v), q, atol=1e-6)


def test_connect_report_and_render():
    s = model_registry("sphere2")
    p = np.array([1.2, 0.1])
    q = np.array([1.8, 1.0])
    out = connect(s, p, q)
    locus = conjugate_locus_sample(s, p, count=16, refine=0)
    report = connect_report(s, out, p, q, locus=locus)
    assert report["status"] == "Connected"
    assert report["energy_class"] == "spacelike"
    assert report["geodesic_length"] == pytest.approx(
        np.sqrt(out.v @ np.asarray(s.metric(p)) @ out.v))
    assert "locus_caveat" in report and "sampled" in report["locus_caveat"]
    assert report["target_component"] is not None
    text = render_report(report)
    assert "status: Connected" in text
    assert "geodesic length" in text
    assert "caveat" in text


def test_failure_report_carries_witness():
    d = model_registry("desitter", n=2)
    cfg = ConnectConfig(integrator=IntegratorConfig(
        rtol=1e-9, atol=1e-11, max_steps=4000, prefer_oracle=True))
    p = np.array([0.0, 0.0])
    q = np.array([np.pi, 2.5])
    out = connect(d, p, q, cfg)
    report = connect_report(d, out, p, q)
    assert report["status"] == out.status
    assert "v" not in report
    assert isinstance(report["witness"], dict)
    text = render_report(report)
    assert out.status in text


def _count_calls(monkeypatch, module_names, attr):
    """Wrap ``attr`` in each named module; returns the list of call arguments."""
    calls = []
    original = getattr(sys.modules[module_names[0]], attr)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name in module_names:
        monkeypatch.setattr(sys.modules[name], attr, wrapper)
    return calls


def test_fast_path_trace_has_finite_singular_value():
    s = model_registry("sphere2")
    out = connect(s, np.array([1.2, 0.1]), np.array([1.5, 0.4]))
    assert out.witness == {"method": "local_log"}
    assert np.isfinite(out.lift_trace[0]["min_singular_value"])
    assert out.lift_trace[0]["min_singular_value"] > 0.0


@pytest.mark.parametrize("name, p, q", [
    ("sphere2", [1.2, 0.1], [1.5, 0.4]),
    ("hyperbolic2", [0.2, 1.0], [0.9, 0.8]),
])
def test_fast_path_integrates_each_ray_once(monkeypatch, name, p, q):
    """The ray check reuses the integration of the converged Newton frame."""
    model = model_registry(name)
    jac, con = "geoconnect.jacobi", "geoconnect.connect"
    integrations = _count_calls(monkeypatch, [jac, con], "integrate_variational")
    frames = _count_calls(monkeypatch, [jac, con], "dexp_matrix")
    out = connect(model, np.array(p), np.array(q))
    assert out.witness == {"method": "local_log"}
    assert len(frames) > 0
    assert len(integrations) == len(frames)


def test_lift_checks_its_last_frame_without_a_new_dexp(monkeypatch):
    """The final residual check after a lift reads the last accepted frame."""
    s = model_registry("sphere2")
    p = np.array([1.720708, -2.007481])
    q = np.array([0.771795, -4.837131])
    frames = _count_calls(monkeypatch, ["geoconnect.jacobi", "geoconnect.connect"],
                          "dexp_matrix")
    out = connect(s, p, q)
    assert out.connected and "method" not in out.witness
    at_v = [args for args in frames if np.array_equal(args[2], out.v)]
    assert len(at_v) == 1


def test_corrector_stops_at_first_non_contracting_step(monkeypatch):
    """With the corrector's settings (fine integrator only, its iteration
    budget), the shared Newton routine gives up on the expanding pair of
    ``test_local_log_stops_at_first_non_contracting_step`` within 3 frames."""
    s = model_registry("sphere2")
    p = np.array([1.720708, -2.007481])
    q = np.array([0.771795, -4.837131])
    fine = ConnectConfig().integrator
    frames = _count_calls(monkeypatch, ["geoconnect.jacobi", "geoconnect.connect"],
                          "dexp_matrix")
    flag, *_ = _newton(s, p, q - p, q, fine, fine, CORRECTOR_TOL, NEWTON_ITERATIONS,
                       vcap=np.inf, sv_floor=SV_FLOOR)
    assert flag == "fail"
    assert len(frames) <= 3
