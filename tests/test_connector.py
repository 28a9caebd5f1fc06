"""Two-point connector: exactness, periodic charts, typed failures, reports."""
import dataclasses
import importlib.resources
import json
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from geoconnect import (
    ConnectConfig, IntegratorConfig, NoConvergence, connect, connect_report,
    conjugate_locus_sample, exp, local_log, model_registry, render_report,
)
from geoconnect.connect import (
    CORRECTOR_TOL, DIVERGENCE_GAP_RATIO, FAR_RESIDUAL, RAY_SAMPLES, SV_FLOOR, _coarse, _lift,
    _log_newton, _newton, _ray_is_regular, _series_seed,
)
from geoconnect.errors import LinearizationFailure, OutOfChart
from geoconnect.jacobi import (
    DifferentialFrame, _wrap_delta, _wrap_near, dexp_matrix, normalize_direction,
)
from geoconnect.manifold import connection, embedding_point

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

_DS_CONNECT = ConnectConfig(integrator=IntegratorConfig(
    rtol=1e-9, atol=1e-11, max_steps=4000, prefer_oracle=True))
_COST_KEYS = ("lift_steps", "attempts", "newton_iterations")


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
    for q in [np.array([2.0, 0.5]), np.array([0.5, 2.0]), np.array([1.0, 1.0]),
              np.array([1.0, 2.0])]:
        out = connect(m, p, q)
        assert out.connected
        assert np.allclose(out.v, q, atol=1e-9)


@pytest.mark.parametrize("p,q", [
    ((np.nan, 0.3), (1.0, 0.5)),
    ((1.0, 0.3), (np.nan, 1.0)),
    ((1.0, 0.3), (1.2, np.inf)),
])
def test_non_finite_endpoint_is_out_of_chart(p, q):
    with pytest.raises(OutOfChart):
        connect(model_registry("sphere2"), np.array(p), np.array(q))


@pytest.mark.parametrize("p,q", [
    ((1.0, 0.3), (1.0, 2.0, 3.0)),
    ((1.0, 0.3, 5.0), (1.0, 2.0)),
], ids=["target", "start"])
def test_endpoint_of_the_wrong_length_is_out_of_chart(p, q):
    with pytest.raises(OutOfChart, match="coordinates"):
        connect(model_registry("sphere2"), p, q)


@pytest.mark.parametrize("name, p, q", [
    ("hyperbolic2", (0.0, 1.0), (0.0, -1.0)),
    ("clifton_pohl", (1.0, 0.5), (0.0, 0.0)),
    ("sphere2", (1.0, 0.3), (4.0, 0.3)),
], ids=["below_the_half_plane", "puncture", "beyond_the_pole"])
def test_target_outside_the_chart_is_out_of_chart(name, p, q):
    """q is checked as p is: no lift runs toward a point outside the chart,
    so no refusal names a false mechanism (a conjugate hit on the hyperbolic
    plane, which has none)."""
    with pytest.raises(OutOfChart, match="outside chart"):
        connect(model_registry(name), np.array(p), np.array(q))


def test_connect_does_not_wrap_the_callers_target():
    """The periodic representative of q nearest p is connect's own copy."""
    q = np.array([1.0, 0.3 + 2.0 * np.pi])
    assert connect(model_registry("sphere2"), np.array([1.0, 0.3]), q).connected
    assert q.tolist() == [1.0, 0.3 + 2.0 * np.pi]


def test_identical_endpoints():
    s = model_registry("sphere2")
    out = connect(s, np.array([1.0, 0.3]), np.array([1.0, 0.3]))
    assert out.connected
    assert np.allclose(out.v, 0.0)


@pytest.mark.parametrize("name, p, q", [
    ("euclidean", (300.0, 0.0), (300.002, 0.0)),
    ("hyperbolic2", (0.0, 1.0), (0.0, 1.000005)),
], ids=["far_from_origin", "hyperbolic"])
def test_nearly_identical_endpoints_are_connected_not_rounded_to_p(name, p, q):
    """The p = q shortcut is absolute: a target a few connect_tol from p, far
    from the chart origin, is connected to itself, not to p."""
    m = model_registry(name, n=2) if name == "euclidean" else model_registry(name)
    cfg = ConnectConfig()
    out = connect(m, np.array(p), np.array(q), cfg)
    assert out.connected
    end = exp(m, np.array(p), out.v, cfg.integrator)
    assert np.linalg.norm(end - np.array(q)) <= cfg.connect_tol


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
    """The first correction from the series seed is longer than the seed's
    own step, so the fast path gives up after one iteration; the lift
    still connects the pair."""
    s = model_registry("sphere2")
    p = np.array([0.3, 0.0])
    q = np.array([0.5, 3.0])
    with pytest.raises(NoConvergence):
        local_log(s, p, q)
    assert connect(s, p, q).connected


def test_local_log_converges_where_its_corrections_shrink():
    """Across the pole, full Newton steps from the series seed shrink
    at every iterate: the fast path connects the pair, to the v the lift
    along the chart segment finds."""
    s = model_registry("sphere2")
    p = np.array([0.3, 0.0])
    q = np.array([0.05, 3.0])
    out = connect(s, p, q)
    assert out.connected and out.witness["method"] == "local_log"
    assert np.array_equal(local_log(s, p, q), out.v)
    lifted = _lift(s, p, q, ConnectConfig())
    assert lifted.connected
    assert np.linalg.norm(out.v - lifted.v) < 1e-12
    end = exp(s, p, out.v, ConnectConfig().integrator)
    assert np.linalg.norm(_wrap_delta(s, end - q)) < CORRECTOR_TOL


def _series_terms(model, p, delta):
    """The chart difference and the second- and third-order terms of exp_p's
    inverse series, by einsum on the documented index layouts."""
    gamma, dgamma = connection(model)
    G = gamma(p)            # G[k, i, j] = Gamma^k_ij
    dG = dgamma(p)          # dG[l, k, i, j] = d_l Gamma^k_ij
    gdd = np.einsum("kij,i,j->k", G, delta, delta)
    third = (np.einsum("kij,i,j->k", G, delta, gdd)
             + np.einsum("lkij,l,i,j->k", dG, delta, delta, delta)) / 6.0
    return delta, 0.5 * gdd, third


@pytest.mark.parametrize("name, p, u", [
    ("hyperbolic2", (0.2, 1.0), (0.3, -0.15)),
    ("sphere2", (1.0, 0.4), (0.25, 0.35)),
])
def test_series_seed_misses_q_at_fourth_order(name, p, u):
    """Halving delta along a fixed direction shrinks the series seed's miss
    |exp_p(v0) - q| by about 16 (O(|delta|^4)), the chart difference's by
    about 4 (O(|delta|^2)).  A third-order term that contracts dGamma's
    upper index with delta instead of its derivative index leaves an
    O(|delta|^3) miss, which shrinks by about 8."""
    m = model_registry(name)
    p = np.array(p)
    fine = IntegratorConfig(rtol=1e-12, atol=1e-14)
    misses = []
    for k in range(5):
        delta = np.array(u) / 2 ** k
        q = p + delta
        v0 = _series_seed(m, p, delta)
        assert np.allclose(v0, sum(_series_terms(m, p, delta)), rtol=0.0, atol=1e-15)
        misses.append([np.linalg.norm(exp(m, p, v, fine) - q) for v in (v0, delta)])
    ratios = [[a / b for a, b in zip(m0, m1)] for m0, m1 in zip(misses, misses[1:])]
    assert all(12.0 < seed < 17.0 for seed, _ in ratios), ratios
    assert all(3.0 < chart < 4.5 for _, chart in ratios), ratios


def test_series_seed_is_the_chart_difference_where_gamma_vanishes_at_p():
    """On euclidean Gamma = 0; on desitter at the chart origin Gamma = 0 but
    dGamma is not, so the second-order term is 0 and the third, not shorter
    than 0, is dropped.  Both keep the chart difference bitwise."""
    d = model_registry("desitter", n=2)
    assert np.abs(connection(d)[1](np.zeros(2))).max() == 1.0
    for m, p in [(model_registry("euclidean", n=2), np.array([0.3, -1.0])), (d, np.zeros(2))]:
        delta = np.array([0.7, -0.4])
        assert np.array_equal(_series_seed(m, p, delta), delta)


def test_series_seed_stops_at_its_smallest_term():
    """Near the pole (cot 0.3 ~ 3.2) the third-order term is longer than the
    second: the seed stops at the second-order partial sum, and the fast path
    still connects the pair."""
    s = model_registry("sphere2")
    p = np.array([0.3, 0.0])
    q = np.array([0.05, 3.0])
    delta, second, third = _series_terms(s, p, q - p)
    assert np.linalg.norm(second) < np.linalg.norm(delta) <= np.linalg.norm(third)
    assert np.allclose(_series_seed(s, p, q - p), delta + second, rtol=0.0, atol=1e-15)
    out = connect(s, p, q)
    assert out.connected and out.witness["method"] == "local_log"


@pytest.mark.parametrize("seed", range(4))
def test_far_sphere_pair_connects_on_the_fast_path(seed):
    """The benchmark's far sphere pairs, across the pole on one hemisphere,
    connect from the series seed on the fast path, along the short arc."""
    s = model_registry("sphere2")
    pair = workloads._sphere_pair_far(np.random.default_rng(seed))
    p, q = np.array(pair["p"]), np.array(pair["q"])
    out = connect(s, p, q)
    assert _is_fast_path(out) and out.witness["dexp_calls"] <= 6
    flag, v, frame, *_ = _log_newton(s, p, _wrap_near(s, q, p), ConnectConfig())
    assert flag == "ok" and np.array_equal(v, out.v) and _ray_is_regular(frame)
    P, Q = embedding_point(s, p), embedding_point(s, q)
    angle = np.arctan2(np.linalg.norm(np.cross(P, Q)), P @ Q)
    length = np.sqrt(out.v @ np.asarray(s.metric(p)) @ out.v)
    assert abs(length - angle) < 1e-6


# a sphere pair whose second Newton correction expands, from the series seed
# and from the chart difference alike: the fast path gives up after two
# frames and the lift connects it
_LIFT_PAIR = (np.array([1.68, -1.56]), np.array([2.11, 1.05]))


@pytest.mark.parametrize("p,q", [
    (np.array([1.720708, -2.007481]), np.array([0.771795, -4.837131])),
    _LIFT_PAIR,
], ids=["expanding", "far"])
def test_local_log_stops_at_first_non_contracting_step(monkeypatch, p, q):
    """A pair whose full Newton steps expand (|v| 3 -> 8 -> 17 -> ...) must
    leave the fast path at once, before any iterate winds round the sphere:
    a correction no shorter than the step before it ends the run before the
    next iterate is integrated."""
    s = model_registry("sphere2")
    frames = _count_calls(monkeypatch, ["geoconnect.jacobi", "geoconnect.connect"],
                          "dexp_matrix")
    with pytest.raises(NoConvergence) as info:
        local_log(s, p, q)
    assert info.value.iterations <= 3
    assert len(frames) <= 2
    assert all(np.linalg.norm(args[2]) <= 2.0 * np.linalg.norm(q - p) for args in frames)
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


def _desitter_targets(seed: int, eta_lo: float, eta_hi: float, count: int,
                      p=(0.0, 0.0)) -> list:
    """Seeded chart points q of desitter(len(p)) with eta(P, Q) in [eta_lo, eta_hi],
    P the embedding of p."""
    n = len(p)
    d = model_registry("desitter", n=n)
    P = embedding_point(d, p)
    rng = np.random.default_rng(seed)
    targets = []
    while len(targets) < count:
        q = np.array([rng.uniform(0.0, np.pi) for _ in range(n - 2)]
                     + [rng.uniform(-np.pi, np.pi), rng.uniform(-2.0, 2.0)])
        Q = embedding_point(d, q)
        if eta_lo <= P[:-1] @ Q[:-1] - P[-1] * Q[-1] <= eta_hi:
            targets.append(q)
    return targets


def _assert_cost(witness: dict, trace: list):
    assert witness["lift_steps"] == len(trace)
    assert witness["attempts"] >= witness["lift_steps"]
    assert witness["newton_iterations"] >= 0
    assert witness["dexp_calls"] >= 1      # the lift's identity frame at v = 0


def _is_fast_path(out) -> bool:
    """The fast path's witness: its method and its two cost keys, nothing else."""
    return (out.witness.keys() == {"method", "newton_iterations", "dexp_calls"}
            and out.witness["method"] == "local_log")


def _schema() -> dict:
    return json.loads((importlib.resources.files("geoconnect") / "schemas"
                       / "connect_report.schema.json").read_text())


def test_desitter_unreachable_target_escapes_before_the_path_ends():
    """The lift norm doubles over gaps that halve: the blow-up bound lies
    before the end of the target path."""
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    out = connect(d, p, np.array([np.pi, 2.5]), _DS_CONNECT)
    assert out.status == "EscapeWitness"
    w = out.witness
    records = w["norm_records"]
    assert len(records) >= 4
    times = [r["t"] for r in records[-4:]]
    g1, g2, g3 = np.diff(times)
    assert g2 <= DIVERGENCE_GAP_RATIO * g1 and g3 <= DIVERGENCE_GAP_RATIO * g2
    assert w["blow_up_bound"] == times[-1] + g3
    assert w["blow_up_bound"] < w["target_path_length"]
    norms = [r["lift_norm"] for r in records]
    assert all(b >= 2.0 * a for a, b in zip(norms, norms[1:]))
    assert w["lift_norms"][-1] == norms[-1]
    assert len(w["residuals"]) == len(out.lift_trace)
    _assert_cost(w, out.lift_trace)


def test_desitter_reachable_targets_near_the_boundary_lift_to_connected():
    """The divergence test never refuses a reachable target, even one the
    lift has to reach through a steep rise of |v|."""
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    for q in _desitter_targets(31, -0.99, -0.8, 40):
        out = _lift(d, p, q, _DS_CONNECT)
        assert out.status == "Connected", (q, out.status, out.witness.get("blow_up_bound"))


def test_desitter_unreachable_targets_escape_within_budget():
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    for q in _desitter_targets(34, -1.9, -1.1, 20):
        out = connect(d, p, q, _DS_CONNECT)
        assert out.status == "EscapeWitness", (q, out.status, out.witness.get("reason"))
        assert len(out.lift_trace) <= 40
        _assert_cost(out.witness, out.lift_trace)


def test_desitter3_connects_exactly_the_reachable_targets():
    """A reference for n = 3 away from eta = -1: from p = (1.2, 0.3, 0.1), a
    target with eta(P, Q) > -1 connects and round-trips to connect_tol, and
    one with eta < -1 ends with the divergence witness."""
    d = model_registry("desitter", n=3)
    p = (1.2, 0.3, 0.1)
    for q in _desitter_targets(16, -0.9, 0.5, 15, p):
        out = connect(d, p, q, _DS_CONNECT)
        assert out.status == "Connected", (q, out.status)
        end = exp(d, np.array(p), out.v, _DS_CONNECT.integrator)
        assert np.linalg.norm(_wrap_delta(d, end - q)) < _DS_CONNECT.connect_tol
    for q in _desitter_targets(17, -1.9, -1.1, 15, p):
        out = connect(d, p, q, _DS_CONNECT)
        assert out.status == "EscapeWitness", (q, out.status, out.witness.get("reason"))
        _assert_cost(out.witness, out.lift_trace)


def test_domain_exit_and_stall_witnesses_carry_their_cost(monkeypatch):
    # a Clifton-Pohl lift whose geodesic blows up in finite parameter
    cp = model_registry("clifton_pohl")
    out = connect(cp, np.array([-0.12990589779639006, 0.4402320320777484]),
                  np.array([1.7217699907186645, -1.0164584654382676]))
    assert out.status == "DomainExit"
    assert out.witness["termination"] == "BlowUp"
    _assert_cost(out.witness, out.lift_trace)
    # a lift whose final endpoint meets CORRECTOR_TOL but not a connect_tol
    # below it: report its cost as well
    s = model_registry("sphere2")
    p, q = _LIFT_PAIR
    monkeypatch.setattr(ConnectConfig, "connect_tol", 1e-15)
    out = _lift(s, p, q, ConnectConfig())
    assert out.status == "Stalled"
    assert out.witness["reason"] == "final residual above connect_tol"
    assert 1e-15 < out.witness["residual"] < CORRECTOR_TOL
    _assert_cost(out.witness, out.lift_trace)


def test_target_at_the_polar_chart_edge_connects():
    """q lies 1e-12 from the pole on p's meridian: exp_p(q - p) = q, and the
    differential's J' diverging at the chart edge is no blow-up."""
    s = model_registry("sphere2")
    p, q = np.array([1.5, 0.0]), np.array([1e-12, 0.0])
    out = connect(s, p, q)
    assert out.status == "Connected"
    assert np.linalg.norm(_wrap_delta(s, exp(s, p, out.v) - q)) < ConnectConfig().connect_tol


def test_conjugate_hit_carries_its_cost(monkeypatch):
    """Every third lift corrector run reports a singular frame: connect lifts
    once, along the chart segment, and returns that lift's ConjugateHit with
    its own counts and a report that matches the schema."""
    module = sys.modules["geoconnect.connect"]   # geoconnect.connect is the function
    real = module._newton
    runs = []

    def newton(*args, **kwargs):
        result = real(*args, **kwargs)
        if "final" not in kwargs:           # local_log's solve, not the lift's corrector
            return result
        runs.append(result[4])
        if len(runs) % 3 == 0:
            return ("conjugate",) + result[1:]
        return result

    monkeypatch.setattr(module, "_newton", newton)
    lifts = _count_calls(monkeypatch, ["geoconnect.connect"], "_lift")
    s = model_registry("sphere2")
    p, q = np.array([1.720708, -2.007481]), np.array([0.771795, -4.837131])
    out = connect(s, p, q)
    assert out.status == "ConjugateHit"
    assert len(lifts) == 1
    w = out.witness
    assert {"t_hit", "v_at_hit", "min_singular_value"} <= set(w)
    assert "attempted_detours" not in w
    assert w["attempts"] == 3 and w["lift_steps"] == 2
    assert w["newton_iterations"] == sum(runs)
    jsonschema.validate(connect_report(s, out, p, q), _schema())


def test_corrector_conjugate_hit_near_the_antipode():
    """Along the equator of sphere2, q = (pi/2, pi - 1e-7) lies 1e-7 short of
    the antipode of p, its first conjugate point, and exp_p(q - p) = q.  The
    final corrector's first frame, at the chart-difference seed, has its
    smallest singular value below SV_FLOOR (exactly sin(1e-7) / (pi - 1e-7),
    about 3.2e-8; the coarse integrator reads 1.1e-7): local_log gives up
    after that one frame, and the lift ends with the corrector's
    ConjugateHit at the end of the segment."""
    s = model_registry("sphere2")
    p, q = np.array([np.pi / 2, 0.0]), np.array([np.pi / 2, np.pi - 1e-7])
    flag, _, frame, _, it, frames = _log_newton(s, p, q, ConnectConfig())
    assert (flag, it, frames) == ("conjugate", 0, 1)
    assert frame.min_singular_value < SV_FLOOR
    with pytest.raises(NoConvergence) as info:
        local_log(s, p, q)
    assert info.value.iterations == 0
    out = connect(s, p, q)
    assert out.status == "ConjugateHit"
    w = out.witness
    assert w["t_hit"] == pytest.approx(np.pi - 1e-7, rel=1e-15)
    assert 0.0 < w["min_singular_value"] < SV_FLOOR
    assert w["lift_steps"] == 8 and w["attempts"] == 9
    _assert_cost(w, out.lift_trace)
    jsonschema.validate(connect_report(s, out, p, q), _schema())


class _NaNOracle:
    """A closed-form geodesic map that returns NaN everywhere."""

    def point(self, p, v, t):
        return np.full(len(p), np.nan)

    def point_embedding(self, p, v, t):
        return np.full(len(p) + 1, np.nan)


def test_non_finite_oracle_raises_linearization_failure():
    """An oracle frame whose closed form is not finite raises the typed
    LinearizationFailure, and connect turns it into a Stalled lift, with no
    RuntimeWarning."""
    e = dataclasses.replace(model_registry("euclidean", n=2), oracle=_NaNOracle())
    cfg = IntegratorConfig(prefer_oracle=True)
    with pytest.raises(LinearizationFailure) as info:
        dexp_matrix(e, np.zeros(2), np.array([1.0, 0.5]), cfg)
    assert info.value.t == 1.0 and info.value.norm == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = connect(e, np.zeros(2), np.array([1.0, 2.0]), ConnectConfig(integrator=cfg))
    assert out.status == "Stalled"
    assert out.witness["reason"] == "corrector step underflow"
    assert out.witness["attempts"] == 20
    _assert_cost(out.witness, out.lift_trace)


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
    assert _is_fast_path(out)
    assert np.isfinite(out.lift_trace[0]["min_singular_value"])
    assert out.lift_trace[0]["min_singular_value"] > 0.0


def test_fast_path_trace_records_the_newton_residual():
    s = model_registry("sphere2")
    p, q = np.array([1.2, 0.1]), np.array([1.5, 0.4])
    out = connect(s, p, q)
    assert _is_fast_path(out)
    residual = out.lift_trace[0]["residual"]
    # Newton's last residual, not a placeholder: the miss of exp_p(v) at the
    # returned v, which may be exactly 0 when Newton lands on q
    # connect aims at the representative of q nearest p, which on sphere2's
    # periodic chart may differ from q in the last bit
    end = exp(s, p, out.v, ConnectConfig().integrator)
    assert residual == np.linalg.norm(_wrap_delta(s, end - _wrap_near(s, q, p)))
    assert residual < CORRECTOR_TOL
    assert connect_report(s, out, p, q)["max_residual"] == residual


# near pairs that connect on the fast path
_FAST_PAIRS = [
    ("sphere2", [1.2, 0.1], [1.5, 0.4]),
    ("hyperbolic2", [0.2, 1.0], [0.9, 0.8]),
]


@pytest.mark.parametrize("name, p, q", _FAST_PAIRS)
def test_fast_path_integrates_each_ray_once(monkeypatch, name, p, q):
    """The ray check reuses the integration of the converged Newton frame."""
    model = model_registry(name)
    jac, con = "geoconnect.jacobi", "geoconnect.connect"
    integrations = _count_calls(monkeypatch, [jac], "integrate_variational")
    frames = _count_calls(monkeypatch, [jac, con], "dexp_matrix")
    out = connect(model, np.array(p), np.array(q))
    assert _is_fast_path(out)
    assert len(frames) > 0
    assert len(integrations) == len(frames)


@pytest.mark.parametrize("name, p, q", _FAST_PAIRS)
def test_fast_path_integrates_no_fine_differential(monkeypatch, name, p, q):
    """Below FAR_RESIDUAL the fast path's iterates integrate only the geodesic:
    every variational integration it runs is on the coarse integrator."""
    module = sys.modules["geoconnect.jacobi"]
    real = module.integrate_variational
    cfgs = []

    def integrate(*args, **kwargs):
        cfgs.append(kwargs["cfg"])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "integrate_variational", integrate)
    out = connect(model_registry(name), np.array(p), np.array(q))
    assert out.connected and _is_fast_path(out)
    assert cfgs
    assert all(cfg == _coarse(ConnectConfig().integrator) for cfg in cfgs)


def test_desitter_oracle_fast_path_integrates_nothing(monkeypatch):
    """With closed-form frames the ray check reads the oracle frame's own ray:
    no module of the package runs a variational integration."""
    d = model_registry("desitter", n=2)
    cfg = ConnectConfig(integrator=IntegratorConfig(
        rtol=1e-9, atol=1e-11, max_steps=4000, prefer_oracle=True))
    holders = [name for name, mod in list(sys.modules.items())
               if name.split(".")[0] == "geoconnect" and hasattr(mod, "integrate_variational")]
    integrations = _count_calls(monkeypatch, holders, "integrate_variational")
    out = connect(d, np.array([0.2, -0.3]), np.array([0.9, 0.1]), cfg)
    assert out.connected and _is_fast_path(out)
    assert integrations == []


def test_lift_checks_its_last_frame_without_a_new_dexp(monkeypatch):
    """The final residual check after a lift reads the last accepted frame:
    one integration, by dexp or exp, runs at the returned v."""
    s = model_registry("sphere2")
    p = np.array([1.720708, -2.007481])
    q = np.array([0.771795, -4.837131])
    frames = _count_calls(monkeypatch, ["geoconnect.jacobi", "geoconnect.connect"],
                          "dexp_matrix")
    ends = _count_calls(monkeypatch, ["geoconnect.geodesic", "geoconnect.connect"], "exp")
    out = connect(s, p, q)
    assert out.connected and "method" not in out.witness
    at_v = [args for args in frames + ends if np.array_equal(args[2], out.v)]
    assert len(at_v) == 1


def test_lift_corrects_intermediate_targets_coarsely(monkeypatch):
    """Only the last target of the lift is corrected on the fine integrator
    to CORRECTOR_TOL; every target before it stops at FAR_RESIDUAL on the
    coarse one, computing coarse differentials and no geodesic endpoint."""
    s = model_registry("sphere2")
    p, q = _LIFT_PAIR
    fine = ConnectConfig().integrator
    frames = _count_calls(monkeypatch, ["geoconnect.jacobi", "geoconnect.connect"],
                          "dexp_matrix")
    ends = _count_calls(monkeypatch, ["geoconnect.geodesic", "geoconnect.connect"], "exp")
    module = sys.modules["geoconnect.connect"]
    real = module._newton
    runs = []   # (target, dexp calls, exp calls) of each Newton run

    def newton(*args, **kwargs):
        f0, e0 = len(frames), len(ends)
        result = real(*args, **kwargs)
        runs.append((args[3], frames[f0:], ends[e0:]))
        return result

    monkeypatch.setattr(module, "_newton", newton)
    out = connect(s, p, q)
    assert out.connected and "method" not in out.witness
    intermediate = [(f, e) for target, f, e in runs
                    if not np.allclose(target, q, rtol=0.0, atol=1e-12)]
    assert intermediate
    coarse_cfg = _coarse(fine)
    assert coarse_cfg != fine
    assert all(args[3] == coarse_cfg for f, _ in intermediate for args in f)
    assert all(e == [] for _, e in intermediate)
    # the endpoint at the returned v comes from one exp on the fine integrator
    assert [args[3] for args in ends if np.array_equal(args[2], out.v)] == [fine]
    assert [args for args in frames if np.array_equal(args[2], out.v)] == []
    residuals = [row["residual"] for row in out.lift_trace]
    assert all(r < FAR_RESIDUAL for r in residuals[:-1])
    assert residuals[-1] < CORRECTOR_TOL
    report = connect_report(s, out, p, q)
    assert report["max_residual"] == max(residuals)


def test_desitter_targets_just_past_the_boundary_are_never_connected():
    """Intermediate lift points stop at FAR_RESIDUAL: a target with eta <= -1
    must still be refused, with the paper's divergence witness or a stall."""
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    for q in _desitter_targets(4, -1.1, -1.0001, 30):
        out = connect(d, p, q, _DS_CONNECT)
        assert out.status in {"EscapeWitness", "Stalled"}, (q, out.status)
        assert out.v is None
        _assert_cost(out.witness, out.lift_trace)


def test_lift_gives_its_last_target_the_local_log_budget():
    """A reachable target near eta = -1 (eta = -0.99924, |v| = 78): from a
    point corrected only to FAR_RESIDUAL, Newton on the finite-difference
    oracle frame converges linearly and needs more than NEWTON_ITERATIONS
    to reach CORRECTOR_TOL; the last target gets LOG_ITERATIONS."""
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    q = np.array([2.532760489596469, 0.6490252513542902])
    out = connect(d, p, q, _DS_CONNECT)
    assert out.status == "Connected"
    assert out.lift_trace[-1]["residual"] < CORRECTOR_TOL
    assert np.linalg.norm(exp(d, p, out.v, _DS_CONNECT.integrator) - q) < _DS_CONNECT.connect_tol


def test_corrector_stops_at_first_non_contracting_step(monkeypatch):
    """As the intermediate corrector, with ``seed_step`` inf, the first
    correction is always taken and the length test acts from the second on:
    the shared Newton routine gives up on the expanding pair of
    ``test_local_log_stops_at_first_non_contracting_step`` within 3 frames."""
    s = model_registry("sphere2")
    p = np.array([1.720708, -2.007481])
    q = np.array([0.771795, -4.837131])
    fine = ConnectConfig().integrator
    frames = _count_calls(monkeypatch, ["geoconnect.jacobi", "geoconnect.connect"],
                          "dexp_matrix")
    flag, *_ = _newton(s, p, q - p, q, fine, np.inf, final=False)
    assert flag == "fail"
    assert len(frames) <= 3


def test_lift_refreshes_a_chord_step_that_stops_contracting():
    """A reachable target near eta = -1 (eta = -0.99950, |v| about 97.5): on
    the finite-difference oracle frame, the last corrector's chord steps stop
    halving the residual, and only a new frame at that iterate lets the lift
    connect.  A chord iteration that never computes a new frame ends Stalled
    ("corrector step underflow", 63 lift steps)."""
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    q = np.array([-2.527698258316131, 0.655661587377085])
    out = connect(d, p, q, _DS_CONNECT)
    assert out.status == "Connected"
    end = exp(d, p, out.v, _DS_CONNECT.integrator)
    assert np.linalg.norm(_wrap_delta(d, end - q)) < _DS_CONNECT.connect_tol


def test_predictor_conjugate_hit_reports_where_it_read_the_frame(monkeypatch):
    """An accepted frame that is exactly singular stops the lift in the
    predictor's solve; that ConjugateHit carries the corrector's witness
    keys, with v_at_hit the last accepted v."""
    module = sys.modules["geoconnect.connect"]
    real = module.dexp_matrix

    def singular(model, p, v, cfg=None):
        frame = real(model, p, v, cfg)
        if not np.any(v):
            return frame
        return DifferentialFrame(np.diag([1.0, 0.0]), 0.0, frame.endpoint, frame.ray)

    monkeypatch.setattr(module, "dexp_matrix", singular)
    e = model_registry("euclidean", n=2)
    p, q = np.zeros(2), np.array([1.0, 2.0])
    out = _lift(e, p, q, ConnectConfig())
    assert out.status == "ConjugateHit"
    w = out.witness
    assert w["attempts"] == 2 and w["lift_steps"] == 1
    assert w["t_hit"] == out.lift_trace[0]["t"]
    assert w["v_at_hit"] == out.lift_trace[0]["v"]
    assert w["min_singular_value"] == 0.0
    _assert_cost(w, out.lift_trace)
    jsonschema.validate(connect_report(e, out, p, q), _schema())


@pytest.mark.parametrize("name, p, q, cfg, status", [
    ("sphere2", (1.2, 0.1), (1.5, 0.4), ConnectConfig(), "Connected"),
    ("sphere2", *_LIFT_PAIR, ConnectConfig(), "Connected"),
    ("desitter", (0.0, 0.0), (np.pi, 2.5), _DS_CONNECT, "EscapeWitness"),
], ids=["fast_path", "lift", "refusal"])
def test_witness_counts_every_differential(monkeypatch, name, p, q, cfg, status):
    """dexp_calls counts every dexp_matrix call of the connect call: a failed
    fast path's, and the lift's identity frame at v = 0, included."""
    frames = _count_calls(monkeypatch, ["geoconnect.jacobi", "geoconnect.connect"],
                          "dexp_matrix")
    out = connect(model_registry(name), np.array(p), np.array(q), cfg)
    assert out.status == status
    assert out.witness["dexp_calls"] == len(frames)
    assert out.witness["newton_iterations"] >= 0
    jsonschema.validate(connect_report(model_registry(name), out, p, q), _schema())


def _ray_is_regular_loop(frame) -> bool:
    """The per-sample ray check, one scalar ray call per sample: the reference."""
    prev_det = 1.0
    for t in np.linspace(1.0 / RAY_SAMPLES, 1.0, RAY_SAMPLES):
        J = frame.ray(t)
        det = float(np.linalg.det(J))
        if det * prev_det < 0.0:
            return False
        if np.linalg.svd(J, compute_uv=False)[-1] < SV_FLOOR:
            return False
        prev_det = det
    return True


def _seeded_ray_frames():
    """(model name, frame): sphere2 rays and spacelike desitter oracle rays of
    g-norm 0.5 to 4, some past the conjugate point at pi, and hyperbolic2 rays."""
    rng = np.random.default_rng(61)
    s = model_registry("sphere2")
    p = np.array([np.pi / 2, 0.3])
    for norm in np.linspace(0.5, 4.0, 15):
        # within 0.5 rad of the equator, so the great circle keeps off the poles
        a = rng.uniform(-0.5, 0.5)
        u = normalize_direction(s, p, np.array([np.sin(a), np.cos(a)]))
        yield "sphere2", dexp_matrix(s, p, norm * u)
    h = model_registry("hyperbolic2")
    for _ in range(6):
        yield "hyperbolic2", dexp_matrix(h, np.array([0.2, 1.0]), rng.uniform(-1.5, 1.5, 2))
    d = model_registry("desitter", n=2)
    p = np.array([0.2, -0.3])
    for norm in np.linspace(0.5, 4.0, 8):
        # spacelike: its geodesic meets a conjugate point at g-length pi
        u = normalize_direction(d, p, np.array([1.0, rng.uniform(-0.3, 0.3)]))
        yield "desitter", dexp_matrix(d, p, norm * u, _DS_CONNECT.integrator)


def test_stacked_ray_check_matches_the_per_sample_loop():
    ts = np.linspace(1.0 / RAY_SAMPLES, 1.0, RAY_SAMPLES)
    verdicts = {}
    for name, frame in _seeded_ray_frames():
        assert _ray_is_regular(frame) == _ray_is_regular_loop(frame)
        verdicts.setdefault(name, set()).add(_ray_is_regular(frame))
        assert np.allclose(frame.ray(ts), np.stack([frame.ray(t) for t in ts]),
                           rtol=0.0, atol=1e-12)
    assert verdicts["sphere2"] == verdicts["desitter"] == {True, False}
