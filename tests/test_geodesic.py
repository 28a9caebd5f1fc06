"""Geodesic integration: typed termination, conservation, oracle agreement."""
import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import geoconnect
from geoconnect import (
    ConnectConfig, DomainEscape, IntegratorConfig, NoOracle, ProbeConfig, ProbeVerdict,
    StepSizeUnderflow, Termination, causal_class, energy, energy_drift, exp,
    integrate_geodesic, integrate_variational, model_registry, oracle_geodesic,
    oracle_geodesic_embedding, orthonormal_frame,
)
from geoconnect import geodesic, jacobi
from geoconnect.errors import OutOfChart
from geoconnect.geodesic import _NormRecords, _brent
from geoconnect.probes import SAMPLED_EVIDENCE


def test_flat_geodesics_are_straight_lines():
    e = model_registry("euclidean", n=3)
    p = np.array([1.0, -2.0, 0.5])
    v = np.array([0.3, 0.7, -1.1])
    path = integrate_geodesic(e, p, v, t_max=2.0)
    assert path.termination is Termination.REACHED_TMAX
    for t in [0.0, 0.5, 1.3, 2.0]:
        assert np.allclose(path.point(t), p + t * v, atol=1e-12)
        assert np.allclose(path.velocity(t), v, atol=1e-12)


def test_minkowski_exp_is_affine():
    m = model_registry("minkowski", n=4)
    p = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([1.0, -1.0, 0.5, 2.0])
    assert np.allclose(exp(m, p, v), p + v, atol=1e-12)


def test_zero_velocity_stays_put():
    """exp(p, 0) is the stationary path's last node: p to the last bit, a
    signed zero included, with or without the oracle."""
    s = model_registry("sphere2")
    p = np.array([1.0, 0.5])
    path = integrate_geodesic(s, p, np.zeros(2), t_max=3.0)
    assert path.termination is Termination.REACHED_TMAX
    assert np.array_equal(path.endpoint, p)
    assert np.array_equal(exp(s, p, np.zeros(2)), p)
    for model, q in [(model_registry("euclidean", n=2), np.array([-0.0, 1.5])),
                     (s, np.array([1.0, -0.0]))]:
        for cfg in (IntegratorConfig(), IntegratorConfig(prefer_oracle=True)):
            assert exp(model, q, np.zeros(2), cfg).tobytes() == q.tobytes()


def test_chart_exit_is_event_located():
    """A meridian geodesic reaches the theta = 0 chart edge at t = 0.5."""
    s = model_registry("sphere2")
    path = integrate_geodesic(s, np.array([0.5, 1.0]), np.array([-1.0, 0.0]),
                              t_max=2.0)
    assert path.termination is Termination.CHART_EXIT
    assert path.term_time == pytest.approx(0.5, abs=1e-9)
    assert path.endpoint[0] == pytest.approx(0.0, abs=1e-9)


def test_blow_up_in_finite_parameter():
    """Clifton-Pohl ray u(t) = 1/(1-t): incomplete, blows up before t = 1."""
    cp = model_registry("clifton_pohl")
    path = integrate_geodesic(cp, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                              t_max=1.5)
    assert path.termination is Termination.BLOW_UP
    assert path.term_time < 1.0
    # solution matches the closed form while it exists
    for t in [0.2, 0.5, 0.8]:
        assert path.point(t)[0] == pytest.approx(1.0 / (1.0 - t), rel=1e-8)
        assert path.point(t)[1] == pytest.approx(0.0, abs=1e-10)


def test_exp_raises_domain_escape():
    s = model_registry("sphere2")
    with pytest.raises(DomainEscape) as exc:
        exp(s, np.array([0.5, 0.0]), np.array([-1.0, 0.0]))
    assert exc.value.termination is Termination.CHART_EXIT


def test_out_of_chart_start_rejected():
    s = model_registry("sphere2")
    with pytest.raises(OutOfChart):
        integrate_geodesic(s, np.array([-0.2, 0.0]), np.array([1.0, 0.0]))


_ORACLE = IntegratorConfig(prefer_oracle=True)


@pytest.mark.parametrize("p, v", [
    ((np.nan, 0.3), (0.1, 0.1)),
    ((4.0, 0.3), (0.1, 0.1)),
    ((4.0, 0.3), (0.0, 0.0)),
])
@pytest.mark.parametrize("cfg", [None, _ORACLE], ids=["numeric", "oracle"])
def test_exp_rejects_a_start_outside_the_chart(p, v, cfg):
    """Closed-form and zero-velocity exp check p as the integrator does."""
    with pytest.raises(OutOfChart):
        exp(model_registry("sphere2"), p, v, cfg)


@pytest.mark.parametrize("accessor", [oracle_geodesic, oracle_geodesic_embedding])
def test_oracle_accessors_reject_a_start_outside_the_chart(accessor):
    with pytest.raises(OutOfChart):
        accessor(model_registry("sphere2"), (4.0, 0.3), (0.1, 0.1), 1.0)


def test_non_finite_velocity_rejected_on_every_route():
    s = model_registry("sphere2")
    p, v = (1.0, 0.3), (np.nan, 0.1)
    for call in (lambda: exp(s, p, v), lambda: exp(s, p, v, _ORACLE),
                 lambda: oracle_geodesic(s, p, v, 1.0),
                 lambda: integrate_variational(s, p, v),
                 lambda: jacobi.dexp_matrix(s, p, v, _ORACLE)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("call", [
    lambda s: integrate_geodesic(s, (1.0, 0.3), (1.0, 2.0, 3.0)),
    lambda s: exp(s, (1.0, 0.3), (1.0, 2.0, 3.0)),
    lambda s: jacobi.dexp_matrix(s, (1.0, 0.3), (1.0, 2.0, 3.0)),
    lambda s: jacobi.first_conjugate_time(s, (1.0, 0.3), (1.0,), 4.0),
], ids=["integrate_geodesic", "exp", "dexp_matrix", "first_conjugate_time"])
def test_velocity_of_the_wrong_length_rejected(call):
    with pytest.raises(ValueError, match="components"):
        call(model_registry("sphere2"))


@pytest.mark.parametrize("kw", [
    {"rtol": math.nan}, {"rtol": math.inf}, {"rtol": -1e-8},
    {"atol": 0.0}, {"atol": math.nan}, {"atol": -1e-12},
])
def test_integrator_config_rejects_bad_tolerances(kw):
    with pytest.raises(ValueError):
        IntegratorConfig(**kw)


def _run_python(code: str, timeout: float = 60.0) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports this geoconnect."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoconnect.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=timeout)
    return out.stdout.strip()


_HANG_PRELUDE = """\
import math
import numpy as np
from geoconnect import (IntegratorConfig, dexp_matrix, first_conjugate_time,
                        integrate_geodesic, model_registry)
from geoconnect.geodesic import _integrate, geodesic_rhs
E = model_registry("euclidean", n=2)
S = model_registry("sphere2")
Y0 = np.array([0.0, 0.0, 1.0, 0.5])
np.seterr(all="ignore")
try:
    {call}
except Exception as err:
    print(type(err).__name__)
"""


@pytest.mark.parametrize("call, error", [
    ("IntegratorConfig(rtol=math.nan)", "ValueError"),
    ("dexp_matrix(E, (0, 0), (1, 0.5), IntegratorConfig(atol=0.0))", "ValueError"),
    ("_integrate(geodesic_rhs(E), Y0, 1.0, math.nan, 1e-12, 10**6)", "StepSizeUnderflow"),
    ("_integrate(geodesic_rhs(E), Y0, 1.0, 1e-10, 0.0, 10**6)", "StepSizeUnderflow"),
    ("integrate_geodesic(S, (1.0, 0.3), (0.1, 0.2), t_max=math.nan)", "ValueError"),
    ("first_conjugate_time(S, (1.0, 0.3), (0.1, 0.2), t_max=math.nan)", "ValueError"),
])
def test_bad_integrator_inputs_fail_fast(call, error):
    """Inputs that once made the step loop spin (a NaN step size) or ran to
    max_steps (a NaN horizon) raise at once.  A fresh interpreter with a
    timeout keeps a regression from stalling the suite."""
    assert _run_python(_HANG_PRELUDE.format(call=call), timeout=30.0) == error


def test_max_steps_raises_underflow():
    s = model_registry("sphere2")
    cfg = IntegratorConfig(max_steps=3)
    with pytest.raises(StepSizeUnderflow):
        integrate_geodesic(s, np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                           cfg, t_max=10.0)


def test_energy_is_conserved_on_sphere():
    s = model_registry("sphere2")
    path = integrate_geodesic(s, np.array([1.2, 0.3]), np.array([0.4, 0.9]),
                              t_max=6.0)
    assert energy_drift(path) < 1e-9


def test_energy_sign_preserved_on_desitter():
    d = model_registry("desitter", n=2)
    p = np.array([0.1, -0.2])
    for v, sign in [(np.array([1.0, 0.1]), 1.0), (np.array([0.1, 1.0]), -1.0)]:
        path = integrate_geodesic(d, p, v, t_max=2.0)
        e0 = energy(d, p, v)
        assert np.sign(e0) == sign
        assert energy_drift(path) < 1e-8 * max(1.0, abs(e0))


@pytest.mark.parametrize("name", ["sphere2", "desitter"])
def test_numeric_matches_oracle(name):
    model = model_registry(name)
    rng = np.random.default_rng(13)
    for _ in range(25):
        if name == "sphere2":
            p = np.array([rng.uniform(0.4, np.pi - 0.4), rng.uniform(-3, 3)])
        else:
            p = rng.uniform(-1.0, 1.0, 2)
        v = rng.uniform(-1, 1, 2)
        t = rng.uniform(0.1, 1.5)
        path = integrate_geodesic(model, p, v, t_max=t)
        if path.termination is not Termination.REACHED_TMAX:
            continue
        assert np.allclose(path.endpoint, oracle_geodesic(model, p, v, t),
                           atol=1e-8)


@pytest.mark.parametrize("n", [3, 4])
def test_numeric_exp_matches_oracle_on_sphere(n):
    """Compared in the embedding, where the periodic last angle needs no wrap."""
    model = model_registry("sphere", n=n)
    rng = np.random.default_rng(90 + n)
    for _ in range(20):
        p = np.concatenate([rng.uniform(0.4, np.pi - 0.4, n - 1), rng.uniform(-3.0, 3.0, 1)])
        v = rng.uniform(-0.6, 0.6, n)
        x = exp(model, p, v)
        X = oracle_geodesic_embedding(model, p, v, 1.0)
        assert np.allclose(model.embedding(x), X, atol=1e-8)
        assert np.allclose(model.embedding(oracle_geodesic(model, p, v, 1.0)), X, atol=1e-14)


@pytest.mark.parametrize("n,p", [(2, (0.3, -0.2)), (3, (1.2, 0.3, 0.1))])
def test_desitter_oracle_null_geodesics_match_the_integrator(n, p):
    """Null directions (e_s +- e_t)/sqrt(2) take the quadric oracle's affine
    branch P + t U; the integrator and exp agree with it."""
    d = model_registry("desitter", n=n)
    p = np.array(p)
    E, _ = orthonormal_frame(d, p)
    for e_s in E[:, :-1].T:
        for v in ((e_s + E[:, -1]) / math.sqrt(2.0), (e_s - E[:, -1]) / math.sqrt(2.0)):
            assert causal_class(d, p, v) == "null"
            for t in (0.5, 1.0, 2.0):
                numeric = integrate_geodesic(d, p, v, t_max=t).endpoint
                assert np.allclose(oracle_geodesic(d, p, v, t), numeric, rtol=0.0, atol=1e-9)
            assert np.allclose(exp(d, p, v, IntegratorConfig(prefer_oracle=True)), exp(d, p, v),
                               rtol=0.0, atol=1e-9)


def test_non_finite_christoffel_symbols_raise_step_size_underflow():
    """Symbols that turn NaN past x1 = 0.5 shrink every trial step from there
    until it is below 10 ulp: a typed StepSizeUnderflow at t = 0.5, with no
    RuntimeWarning."""
    nan = np.full((2, 2, 2), np.nan)
    zeros = np.zeros((2, 2, 2))
    e = dataclasses.replace(model_registry("euclidean", n=2),
                            christoffel=lambda x: nan if x[0] > 0.5 else zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeUnderflow) as info:
            integrate_geodesic(e, np.zeros(2), np.array([1.0, 0.0]), t_max=2.0)
    assert info.value.t == pytest.approx(0.5, abs=1e-9)


def test_step_underflow_inside_the_chart_still_raises():
    """Symbols that turn NaN at theta = 1, far inside the polar chart, mark no
    chart edge: the underflow at t = 0.5 raises, with the chart monitor on."""
    s = model_registry("sphere2")
    nan = np.full((2, 2, 2), np.nan)
    m = dataclasses.replace(s, christoffel=lambda x: nan if x[0] < 1.0 else s.christoffel(x))
    with pytest.raises(StepSizeUnderflow) as info:
        integrate_geodesic(m, np.array([1.5, 0.0]), np.array([-1.0, 0.0]), t_max=2.0)
    assert info.value.t == pytest.approx(0.5, abs=1e-9)


def test_oracle_embedding_stays_on_surface():
    s = model_registry("sphere2")
    d = model_registry("desitter", n=2)
    eta = np.diag([1.0, 1.0, -1.0])
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = np.array([rng.uniform(0.3, np.pi - 0.3), rng.uniform(-3, 3)])
        v = rng.uniform(-1, 1, 2)
        X = oracle_geodesic_embedding(s, p, v, rng.uniform(0, 5))
        assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-10)
        pd = rng.uniform(-1, 1, 2)
        Y = oracle_geodesic_embedding(d, pd, v, rng.uniform(0, 2))
        assert Y @ eta @ Y == pytest.approx(1.0, abs=1e-8)


def test_no_oracle_raises():
    e = model_registry("euclidean", n=2)
    with pytest.raises(NoOracle):
        oracle_geodesic(e, np.zeros(2), np.ones(2), 1.0)


def test_prefer_oracle_exp():
    s = model_registry("sphere2")
    p = np.array([1.0, 0.2])
    v = np.array([0.3, 0.4])
    cfg = IntegratorConfig(prefer_oracle=True)
    assert np.allclose(exp(s, p, v, cfg), exp(s, p, v), atol=1e-8)


@pytest.mark.parametrize("tau0,s", [(20.0, 1.0), (15.0, 0.5), (-25.0, -0.7)])
def test_desitter_oracle_far_from_the_waist(tau0, s):
    """A purely timelike velocity moves tau by s, however large |tau| is."""
    d = model_registry("desitter", n=2)
    x = oracle_geodesic(d, np.array([0.0, tau0]), np.array([0.0, s]), 1.0)
    assert np.allclose(x, [0.0, tau0 + s], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("p,v", [
    ((0.0, 0.0), (0.0, 800.0)),   # cosh and sinh overflow
    ((0.0, 20.0), (0.0, 700.0)),  # their product with the base point overflows
])
def test_desitter_oracle_overflow_is_typed(p, v):
    d = model_registry("desitter", n=2)
    cfg = IntegratorConfig(prefer_oracle=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeUnderflow):
            exp(d, np.array(p), np.array(v), cfg)


def test_dense_output_consistency():
    s = model_registry("sphere2")
    path = integrate_geodesic(s, np.array([1.0, 0.0]), np.array([0.2, 0.5]),
                              t_max=3.0)
    # interpolant endpoints agree with the accepted nodes
    for t, x, v in path.nodes[::5]:
        assert np.allclose(path.point(t), x, atol=1e-12)
        assert np.allclose(path.velocity(t), v, atol=1e-12)
    # an interior node is evaluated on the step that ends there
    k = len(path.ts) // 2
    assert np.array_equal(path.sol(path.ts[k]), path.sol.segments[k - 1](path.ts[k]))
    # scalar t gives (n_states,), an array gives (n_states, n_points) in input order
    assert path.sol(1.0).shape == (4,)
    ts = np.array([2.9, 0.0, 1.0, 0.3, 1.0])
    ys = path.sol(ts)
    assert ys.shape == (4, 5)
    for j, t in enumerate(ts):
        assert np.allclose(ys[:, j], path.sol(t), rtol=1e-14, atol=1e-15)
    assert path.sol(np.array([])).shape == (4, 0)


def test_norm_records_double_from_the_start_level():
    records = _NormRecords(8.0)
    assert records.gaps(1) is None
    for t, norm in [(0.5, 9.0), (0.8, 18.5), (0.95, 40.0)]:
        assert norm >= records.level
        records.add(t, norm)
        assert records.level == 2.0 * norm
    assert records.gaps(2) == [0.8 - 0.5, 0.95 - 0.8]
    assert records.gaps(3) is None


def test_negative_horizon_integrates_backward():
    """Backward in t from (p, v) is forward from (p, -v), events included."""
    s = model_registry("sphere2")
    p, v = np.array([0.5, 1.0]), np.array([1.0, 0.0])
    back = integrate_geodesic(s, p, v, t_max=-2.0)
    fwd = integrate_geodesic(s, p, -v, t_max=2.0)
    assert back.termination is fwd.termination is Termination.CHART_EXIT
    assert back.term_time == pytest.approx(-fwd.term_time, abs=1e-9)
    assert back.ts[0] == 0.0 and np.all(np.diff(back.ts) < 0)
    assert back.ts[-1] == back.term_time
    assert np.allclose(back.endpoint, fwd.endpoint, atol=1e-8)
    for t, x, w in back.nodes:
        assert np.allclose(back.point(t), x, atol=1e-12)
        assert np.allclose(back.velocity(t), w, atol=1e-12)
    ts = np.linspace(0.0, back.term_time, 9)
    assert np.allclose(back.sol(ts)[:2], fwd.sol(-ts)[:2], atol=1e-8)


def test_zero_horizon_is_the_start():
    s = model_registry("sphere2")
    p, v = np.array([1.3, 0.4]), np.array([0.2, 0.5])
    path = integrate_geodesic(s, p, v, t_max=0.0)
    assert path.ts.tolist() == [0.0] and path.termination is Termination.REACHED_TMAX
    still = integrate_geodesic(s, p, np.zeros(2), t_max=1.0)
    assert still.ts.tolist() == [0.0, 1.0] and (still.steps, still.rhs_evals) == (0, 0)
    var = integrate_variational(s, p, v, t_max=0.0)
    assert var.ts.tolist() == [0.0] and var.term_time == 0.0
    assert (var.steps, var.rejected, var.rhs_evals) == (0, 0, 0)
    assert np.array_equal(var.split(0.0)[0], p)
    assert np.array_equal(var.dexp_at(0.0), np.eye(2))
    assert jacobi.first_conjugate_time(s, p, v, t_max=0.0) is None


def test_zero_velocity_path_spans_its_horizon():
    """A stationary path has the nodes 0 and t_max for either sign of t_max."""
    s = model_registry("sphere2")
    p = np.array([1.0, 0.3])
    for t_max in (2.0, -2.0):
        path = integrate_geodesic(s, p, np.zeros(2), t_max=t_max)
        assert path.ts.tolist() == [0.0, t_max] and path.term_time == t_max
        assert np.array_equal(path.states, [[1.0, 0.3, 0.0, 0.0]] * 2)
        assert (path.steps, path.rhs_evals) == (0, 0)


def test_stationary_path_has_dense_output():
    """A zero-velocity path answers every t from its dense output without a
    step: the point stays p and the velocity 0."""
    s = model_registry("sphere2")
    path = integrate_geodesic(s, (1.0, 0.3), (0.0, 0.0), t_max=2.0)
    assert np.array_equal(path.point(0.5), [1.0, 0.3])
    assert np.array_equal(path.velocity(0.5), [0.0, 0.0])
    assert np.array_equal(path.state(2.0), [1.0, 0.3, 0.0, 0.0])
    assert np.array_equal(path.sol(np.linspace(0.0, 2.0, 5)), [[1.0] * 5, [0.3] * 5,
                                                              [0.0] * 5, [0.0] * 5])
    assert path.sol.ts.tolist() == [0.0] and path.steps == 0


def test_stationary_path_is_exact_far_out():
    """The stationary line answers every finite t exactly: no power of t
    overflows into a NaN (t^4 did beyond about 1e77)."""
    s = model_registry("sphere2")
    path = integrate_geodesic(s, (1.0, 0.3), (0.0, 0.0), t_max=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(path.point(1e80), [1.0, 0.3])
        assert np.array_equal(path.sol(np.array([-1e300, 1e80])),
                              [[1.0, 1.0], [0.3, 0.3], [0.0, 0.0], [0.0, 0.0]])
        x, vel, J = integrate_variational(s, (1.0, 0.3), (0.0, 0.0), t_max=2.0).split(1e80)
    assert np.array_equal(x, [1.0, 0.3]) and np.array_equal(vel, [0.0, 0.0])
    assert np.array_equal(J, 1e80 * np.eye(2))


def test_single_valued_settings_are_class_constants():
    """Settings no caller varies are class constants that instances still
    read, not fields a constructor takes."""
    fields = {cls: [f.name for f in dataclasses.fields(cls)]
              for cls in (IntegratorConfig, ConnectConfig, ProbeConfig, ProbeVerdict)}
    assert fields == {IntegratorConfig: ["rtol", "atol", "max_steps", "prefer_oracle"],
                      ConnectConfig: ["integrator"],
                      ProbeConfig: ["norm_cap"],
                      ProbeVerdict: ["rows", "summary", "witness_curve"]}
    assert IntegratorConfig().blowup_norm == 1e8
    assert ConnectConfig().connect_tol == 1e-6
    assert ProbeConfig().cauchy_tol == 1e-6
    assert ProbeConfig().integrator == IntegratorConfig(prefer_oracle=True)
    assert ProbeVerdict([], "ConsistentWithWeakProperness").caveat == SAMPLED_EVIDENCE
    for make in (lambda: IntegratorConfig(blowup_norm=1e6),
                 lambda: ConnectConfig(connect_tol=1e-8),
                 lambda: ProbeConfig(cauchy_tol=1e-8),
                 lambda: ProbeConfig(integrator=IntegratorConfig()),
                 lambda: ProbeVerdict([], "Violation", None, "proof")):
        with pytest.raises(TypeError):
            make()


def test_integrator_config_with():
    cfg = IntegratorConfig()
    cfg2 = dataclasses.replace(cfg, rtol=1e-6)
    assert cfg2.rtol == 1e-6 and cfg.rtol == 1e-10
    assert cfg2.atol == cfg.atol


def _counting(calls: list, fn):
    return lambda *args: calls.append(args) or fn(*args)


def test_step_counters(monkeypatch):
    """Each attempt costs six RHS calls, after one initial slope and one probe.

    The right-hand sides read the model's callbacks, and fall back to
    ``manifold.fd_christoffel``, when an integration starts: a callback
    swapped in afterwards, as a tracer does, still sees every call."""
    s = model_registry("sphere2")
    d = model_registry("desitter", n=2)
    para = model_registry("paraboloid")
    calls, gamma_calls, dgamma_calls, fd_calls = [], [], [], []
    counted = dataclasses.replace(s, christoffel=_counting(calls, s.christoffel))
    counted_d = dataclasses.replace(
        d, christoffel=_counting(gamma_calls, d.christoffel),
        christoffel_deriv=_counting(dgamma_calls, d.christoffel_deriv))
    monkeypatch.setattr(sys.modules["geoconnect.manifold"], "fd_christoffel",
                        _counting(fd_calls, geoconnect.manifold.fd_christoffel))
    paths = [
        integrate_geodesic(counted, np.array([0.5, 0.0]), np.array([-1.0, 1e-3]), t_max=3.0),
        integrate_geodesic(s, np.array([0.5, 1.0]), np.array([-1.0, 0.0]), t_max=2.0),
        integrate_variational(counted_d, np.array([0.2, 0.3]), np.array([0.4, 1.1]),
                              t_max=3.0),
        integrate_geodesic(para, np.array([0.2, -0.1]), np.array([0.8, 0.5]), t_max=2.0),
    ]
    assert paths[0].rejected > 0
    assert paths[0].rhs_evals == len(calls)
    assert paths[2].rhs_evals == len(gamma_calls) == len(dgamma_calls)
    assert paths[3].rhs_evals == len(fd_calls)
    for path in paths:
        assert path.steps == len(path.ts) - 1 > 0
        assert path.rhs_evals == 2 + 6 * (path.steps + path.rejected)


def _chart_points(model, rng, count: int) -> np.ndarray:
    """Points drawn inside the chart's box, cut to [-2, 2], away from its faces."""
    lo = np.maximum(model.domain.lower, -2.0)
    hi = np.minimum(model.domain.upper, 2.0)
    return lo + (hi - lo) * rng.uniform(0.1, 0.9, size=(count, model.dim))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values, signs of zero included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, kw", [
    ("sphere2", {}), ("sphere", {"n": 3}), ("sphere", {"n": 4}), ("hyperbolic2", {}),
    ("desitter", {"n": 2}), ("desitter", {"n": 3}), ("clifton_pohl", {}),
    ("paraboloid", {}), ("euclidean", {"n": 3}), ("halfplane_dsl", {}),
])
def test_rhs_contractions_are_bitwise_the_stacked_matmuls(name, kw):
    """Both right-hand sides equal the stacked ``@`` formulas to the last bit:
    the flattened 2-D products must hold on whatever BLAS runs the tests."""
    from geoconnect.manifold import connection

    if name == "halfplane_dsl":
        model = geoconnect.model_from_config_text(
            "[manifold]\ntype = dsl\ndim = 2\n"
            "g_1_1 = 1/x2^2\ng_2_2 = 1/x2^2\nlower = -inf, 1e-8\n")
    else:
        model = model_registry(name, **kw)
    n = model.dim
    rng = np.random.default_rng([n, len(name)])
    geo, var = geodesic.geodesic_rhs(model), jacobi._variational_rhs(model)
    gamma, dgamma = connection(model)
    for x in _chart_points(model, rng, 200):
        v = rng.normal(size=n)
        J, K = rng.normal(size=(2, n, n))
        G = np.asarray(gamma(x), dtype=float)
        dG = np.asarray(dgamma(x), dtype=float)
        assert _same_bits(geo(0.0, np.concatenate([x, v])),
                          np.concatenate([v, -(G @ v) @ v]))
        Gv = G @ v
        dGvv = (dG @ v) @ v
        Kdot = -dGvv.T @ J - 2.0 * Gv @ K
        assert _same_bits(var(0.0, np.concatenate([x, v, J.ravel(), K.ravel()])),
                          np.concatenate([v, -Gv @ v, K.ravel(), Kdot.ravel()]))


def test_flat_shot_rejects_no_step():
    e = model_registry("euclidean", n=3)
    path = integrate_geodesic(e, np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.7, -1.1]),
                              t_max=2.0)
    assert path.steps > 0
    assert path.rejected == 0


def test_brent_returns_an_endpoint_root_as_is():
    assert _brent(lambda x: x - 2.0, 2.0, 5.0, 1e-12) == 2.0
    assert _brent(lambda x: x - 5.0, 2.0, 5.0, 1e-12) == 5.0


def test_brent_needs_a_sign_change():
    with pytest.raises(ValueError):
        _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_brent_finds_cos_root():
    for xtol in (1e-12, 1e-8):
        assert abs(_brent(math.cos, 1.0, 2.0, xtol) - 0.5 * math.pi) <= xtol
    # numpy ends still give a Python float, as conjugate times always were
    assert type(_brent(math.cos, np.float64(1.0), np.float64(2.0), 1e-8)) is float


def test_import_pulls_in_no_scipy():
    code = ("import geoconnect, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _run_python(code) == "[]"


# -- parity with scipy's RK45 and brentq, when scipy is installed --------------

def _scipy_integrate(rhs, y0, t_end, rtol, atol, max_steps, monitors=(), stop=None):
    """The event-watching loop driven by scipy's RK45, as the reference.  The
    step-end stop hook sees the stepping variable s = |t|, as ``_integrate``'s.
    A step that RK45 finds below its 10-ulp minimum ends the path with
    ChartExit at the last accepted state when the chart margin there is
    within the error scale of the position, as ``_integrate``'s does."""
    from scipy.integrate import RK45, OdeSolution
    from scipy.optimize import brentq

    sign = math.copysign(1.0, t_end)
    solver = RK45(rhs, 0.0, y0, t_end, rtol=rtol, atol=atol)
    ts, ys, interpolants = [0.0], [np.asarray(y0, dtype=float)], []
    termination, term_time = Termination.REACHED_TMAX, t_end
    while solver.status == "running":
        with np.errstate(over="ignore", invalid="ignore"):
            solver.step()
        if solver.status == "failed":
            chart = next(fn for fn, _ in monitors if isinstance(fn, geodesic._ChartMargin))
            assert len(ts) > 1 and chart.at_edge(solver.y, solver.rtol, atol)
            termination, term_time = Termination.CHART_EXIT, solver.t
            break
        dense = solver.dense_output()
        interpolants.append(dense)
        hit = None
        for fn, kind in monitors:
            if fn(solver.t, solver.y) > 0.0:
                continue
            f = lambda s: fn(s, dense(s))
            lo, hi = dense.t_min, dense.t_max
            t_star = lo if f(lo) <= 0.0 else brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16)
            if hit is None or t_star < hit[0]:
                hit = (t_star, kind)
        if hit is not None:
            term_time, termination = hit
            ts.append(term_time)
            ys.append(dense(term_time))
            break
        ts.append(solver.t)
        ys.append(solver.y.copy())
        if stop is not None:
            kind = stop(sign * solver.t_old, sign * solver.t, solver.y,
                        lambda s: dense(sign * s))
            if kind is not None:
                termination, term_time = kind, solver.t
                break
    ts = np.asarray(ts)
    attempts, extra = divmod(solver.nfev - 2, 6)
    assert extra == 0
    return (ts, np.asarray(ys), OdeSolution(ts, interpolants), termination, term_time,
            attempts - (len(ts) - 1))


@pytest.mark.parametrize("name,p,v,t_max,variational,termination", [
    ("sphere2", (0.5, 1.0), (-1.0, 0.0), 2.0, False, Termination.CHART_EXIT),
    ("clifton_pohl", (1.0, 0.5), (1.0, 1.0), 3.0, False, Termination.BLOW_UP),
    ("hyperbolic2", (0.3, 1.0), (1.0, 0.4), 3.0, False, Termination.REACHED_TMAX),
    ("hyperbolic2", (0.3, 1.0), (1.0, 0.4), -3.0, False, Termination.REACHED_TMAX),
    ("desitter", (0.2, 0.3), (0.4, 1.1), 3.0, True, Termination.REACHED_TMAX),
    ("clifton_pohl", (1.0, 0.5), (1.0, 1.0), 3.0, True, Termination.BLOW_UP),
    # meridians into the poles: the steps underflow at the chart edge
    ("sphere2", (0.5, 1.0), (-1.0, 0.0), 2.0, True, Termination.CHART_EXIT),
    ("sphere2", (2.5, 1.0), (1.0, 0.0), 2.0, True, Termination.CHART_EXIT),
])
def test_integrator_matches_scipy_rk45(monkeypatch, name, p, v, t_max, variational,
                                       termination):
    pytest.importorskip("scipy")
    model = model_registry(name)

    def run():
        if variational:
            return integrate_variational(model, np.array(p), np.array(v), t_max=t_max)
        return integrate_geodesic(model, np.array(p), np.array(v), t_max=t_max)

    ours = run()
    monkeypatch.setattr(geodesic, "_integrate", _scipy_integrate)
    monkeypatch.setattr(jacobi, "_integrate", _scipy_integrate)
    ref = run()
    assert ours.termination is ref.termination is termination
    assert ours.term_time == ref.term_time
    np.testing.assert_array_equal(ours.ts, ref.ts)
    assert (ours.steps, ours.rejected, ours.rhs_evals) == (ref.steps, ref.rejected,
                                                           ref.rhs_evals)
    if not variational:
        np.testing.assert_array_equal(ours.states, ref.states)
    else:
        # a blow-up read off the growth law is located on the same interpolants
        assert ours.witness == ref.witness
        assert (ours.witness is not None) == (termination is Termination.BLOW_UP)
    samples = np.linspace(0.0, ref.term_time, 7)
    np.testing.assert_array_equal(ours.sol(samples), ref.sol(samples))
    for t in [*samples, *ref.ts]:
        np.testing.assert_array_equal(ours.sol(t), ref.sol(t))


def test_conjugate_scan_matches_scipy_rk45(monkeypatch):
    """The conjugate monitor ends the scan where RK45 and brentq end it, bit for bit."""
    pytest.importorskip("scipy")
    s = model_registry("sphere2")
    p = np.array([1.4, 0.7])
    u = jacobi.normalize_direction(s, p, np.array([0.3, 1.0]))

    def scan():
        return jacobi._first_conjugate_scan(s, p, u, 4.0, None)

    t_star, ours = scan()
    monkeypatch.setattr(jacobi, "_integrate", _scipy_integrate)
    ref_star, ref = scan()
    assert ours.termination is ref.termination is Termination.CONJUGATE_POINT
    assert t_star == ours.term_time == ref.term_time == ref_star
    np.testing.assert_array_equal(ours.ts, ref.ts)
    assert (ours.steps, ours.rejected, ours.rhs_evals) == (ref.steps, ref.rejected,
                                                           ref.rhs_evals)


_BRACKETS = [
    (math.cos, 1.0, 2.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 2.0, 0.0, 1.0),
    (lambda x: math.atan(x - 0.3), -1.0, 4.0),
    (lambda x: x * math.exp(x) - 1.0, 0.0, 1.0),
    (lambda x: (x - 1.0) ** 5 + 1e-3 * (x - 1.0), 0.0, 3.2),
    (lambda x: math.tanh(50.0 * (x - 0.123)), -2.0, 1.0),
    (lambda x: x ** 9 - 1e-3, 0.0, 2.0),
    (lambda x: math.exp(10.0 * x) - 5.0, -1.0, 2.0),
    (lambda x: math.copysign(abs(x - 0.7) ** 0.1, x - 0.7), 0.0, 2.0),
    (lambda x: x - 0.4 + 0.3 * math.sin(15.0 * x), -1.0, 2.0),
    (math.log, 0.01, 10.0),
]


@pytest.mark.parametrize("xtol", [1e-12, 1e-8])
def test_brent_matches_scipy_brentq(xtol):
    optimize = pytest.importorskip("scipy.optimize")
    for f, a, b in _BRACKETS:
        assert _brent(f, a, b, xtol) == optimize.brentq(f, a, b, xtol=xtol)
        assert (_brent(f, a, b, xtol, rtol=8.9e-16)
                == optimize.brentq(f, a, b, xtol=xtol, rtol=8.9e-16))
    # a triple root defeats both within 100 iterations at xtol 1e-12
    cube = lambda x: (x - 1.0) ** 3
    for solve in (lambda: _brent(cube, 0.0, 3.2, 1e-12),
                  lambda: optimize.brentq(cube, 0.0, 3.2, xtol=1e-12)):
        with pytest.raises(RuntimeError):
            solve()
