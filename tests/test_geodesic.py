"""Geodesic integration: typed termination, conservation, oracle agreement."""
import warnings

import numpy as np
import pytest

from geoconnect import (
    DomainEscape, IntegratorConfig, NoOracle, StepSizeUnderflow, Termination,
    energy, energy_drift, exp, integrate_geodesic, model_registry,
    oracle_geodesic, oracle_geodesic_embedding,
)
from geoconnect.errors import OutOfChart


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
    s = model_registry("sphere2")
    p = np.array([1.0, 0.5])
    path = integrate_geodesic(s, p, np.zeros(2), t_max=3.0)
    assert path.termination is Termination.REACHED_TMAX
    assert np.array_equal(path.endpoint, p)
    assert np.array_equal(exp(s, p, np.zeros(2)), p)


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


def test_integrator_config_with():
    cfg = IntegratorConfig()
    cfg2 = cfg.with_(rtol=1e-6)
    assert cfg2.rtol == 1e-6 and cfg.rtol == 1e-10
    assert cfg2.atol == cfg.atol
