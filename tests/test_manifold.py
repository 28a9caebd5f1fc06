"""Metric/connection evaluation, tangent-space helpers, auxiliary metric."""
import dataclasses
import warnings

import numpy as np
import pytest

from geoconnect import (
    ChartDomain, DegenerateMetric, ManifoldModel, NotTimelike, OutOfChart,
    ScalarField, Tangent, VectorField, auxiliary_riemannian, causal_class,
    christoffel_eval, dexp_matrix, inner, integrate_geodesic, integrate_variational, manifold,
    metric_eval, model_from_config_text, model_registry, orthonormal_frame,
)
from geoconnect.manifold import connection, embedding_point, fd_christoffel
from geoconnect.models import BUILTIN_MODELS


def _interior_point(model, rng):
    lo = np.where(np.isfinite(model.domain.lower), model.domain.lower + 0.3, -1.5)
    hi = np.where(np.isfinite(model.domain.upper), model.domain.upper - 0.3, 1.5)
    while True:
        x = rng.uniform(lo, hi)
        if model.domain.margin(x) > 0.2:
            return x


ALL_MODELS = ["euclidean", "minkowski", "sphere2", "hyperbolic2",
              "desitter", "paraboloid", "clifton_pohl"]


@pytest.mark.parametrize("name", ALL_MODELS)
def test_metric_eval_signature(name):
    model = model_registry(name)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = _interior_point(model, rng)
        g = metric_eval(model, x)
        eig = np.linalg.eigvalsh(g)
        assert sorted(np.sign(eig)) == sorted(model.signature)


def test_metric_eval_rejects_out_of_chart():
    s = model_registry("sphere2")
    with pytest.raises(OutOfChart):
        metric_eval(s, np.array([-0.1, 0.0]))
    with pytest.raises(OutOfChart):
        metric_eval(s, np.array([np.pi, 0.0]))


def test_metric_eval_rejects_degenerate():
    bad = ManifoldModel(
        name="degenerate", dim=2, signature=(1, 1),
        domain=ChartDomain.unbounded(2),
        metric=lambda x: np.array([[1.0, 1.0], [1.0, 1.0]]),
    )
    with pytest.raises(DegenerateMetric):
        metric_eval(bad, np.zeros(2))


@pytest.mark.parametrize("name, n, x", [
    ("sphere2", None, [1e-170, 0.3]),
    ("desitter", 3, [1e-170, 0.3, 0.1]),
])
def test_vanishing_sine_squared_is_a_degenerate_metric(name, n, x):
    """Inside the chart sin^2(theta_0) underflows to 0, where g is singular in floats:
    the connection's derivative and d(exp) refuse with DegenerateMetric, warning-free."""
    model = model_registry(name) if n is None else model_registry(name, n=n)
    x = np.array(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetric):
            connection(model)[1](x)
        with pytest.raises(DegenerateMetric):
            dexp_matrix(model, x, np.full(model.dim, 0.1))


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2", "desitter",
                                  "clifton_pohl"])
def test_analytic_christoffels_match_fd(name):
    """Closed-form Gamma agrees with the finite-difference fallback."""
    model = model_registry(name)
    rng = np.random.default_rng(23)
    for _ in range(15):
        x = _interior_point(model, rng)
        analytic = christoffel_eval(model, x)
        numeric = fd_christoffel(model, x)
        assert np.allclose(analytic, numeric, atol=5e-7), (name, x)


def test_christoffel_symmetry_lower_indices():
    rng = np.random.default_rng(3)
    for name in ALL_MODELS:
        model = model_registry(name)
        x = _interior_point(model, rng)
        gamma = christoffel_eval(model, x)
        assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-10)


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2", "desitter",
                                  "clifton_pohl"])
def test_analytic_christoffel_derivs_match_fd(name):
    model = model_registry(name)
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = _interior_point(model, rng)
        analytic = connection(model)[1](x)
        n = model.dim
        fd = np.empty_like(analytic)
        for l in range(n):
            h = 1e-5 * max(1.0, abs(x[l]))
            xp = x.copy(); xp[l] += h
            xm = x.copy(); xm[l] -= h
            fd[l] = (christoffel_eval(model, xp) - christoffel_eval(model, xm)) / (2 * h)
        assert np.allclose(analytic, fd, atol=1e-5), (name, x)


def test_christoffel_deriv_of_a_gamma_only_model_is_a_central_difference():
    """Without an analytic dGamma, ``connection`` differences the analytic
    Gamma; dexp built on it matches the analytic one."""
    h = model_registry("hyperbolic2")
    bare = dataclasses.replace(h, christoffel_deriv=None)
    for x in ([0.2, 1.0], [-0.7, 0.5], [1.3, 2.0], [0.0, 0.3]):
        x = np.array(x)
        analytic = connection(h)[1](x)
        error = np.abs(connection(bare)[1](x) - analytic).max()
        assert error <= 1e-9 * np.abs(analytic).max()
    p, v = np.array([0.2, 1.0]), np.array([0.7, -0.4])
    assert np.allclose(dexp_matrix(bare, p, v).matrix, dexp_matrix(h, p, v).matrix,
                       rtol=0.0, atol=1e-10)


def test_connection_reads_the_callbacks_of_the_model_it_is_given(monkeypatch):
    """A copy of a metric-only model with another metric, as the traced
    benchmark builds one, gets Gamma and dGamma from that metric; Gamma looks
    ``fd_christoffel`` up in the module when it runs."""
    base = model_registry("paraboloid")
    assert base.christoffel is None and base.christoffel_deriv is None
    calls = []

    def counting_metric(x):
        calls.append(x)
        return base.metric(x)

    gamma, dgamma = connection(dataclasses.replace(base, metric=counting_metric))
    x = np.array([0.4, -0.6])
    gamma(x)
    assert len(calls) == 1 + 2 * 2          # g and a central difference per axis
    dgamma(x)
    assert len(calls) == 5 + 1 + 2 * 2 * 2  # one stencil of 1 + 2 n^2 metric calls
    seen = []

    def traced_fd_christoffel(model, y):
        seen.append(model)
        return fd_christoffel(model, y)

    monkeypatch.setattr(manifold, "fd_christoffel", traced_fd_christoffel)
    gamma(x)
    assert len(seen) == 1 and seen[0].metric is counting_metric


def test_causal_class_minkowski():
    m = model_registry("minkowski", n=2)
    x = np.zeros(2)
    assert causal_class(m, x, np.array([1.0, 0.0])) == "spacelike"
    assert causal_class(m, x, np.array([0.0, 1.0])) == "timelike"
    assert causal_class(m, x, np.array([1.0, 1.0])) == "null"
    assert inner(m, x, np.array([2.0, 1.0]), np.array([1.0, 3.0])) == -1.0


def test_orthonormal_frame_diagonalizes():
    rng = np.random.default_rng(9)
    for name in ALL_MODELS:
        model = model_registry(name)
        x = _interior_point(model, rng)
        E, signs = orthonormal_frame(model, x)
        g = np.asarray(model.metric(x), dtype=float)
        assert np.allclose(E.T @ g @ E, np.diag(signs), atol=1e-10)
        assert sorted(signs) == sorted(model.signature)
        # spacelike columns first
        assert list(signs) == sorted(signs, reverse=True)


def test_auxiliary_riemannian_identities():
    """h(V,X) = -g(V,X) with V normalized, and h(V,V) = 1."""
    m = model_registry("minkowski", n=4)
    V = VectorField(lambda x: np.array([0.0, 0.0, 0.0, 1.0]), "dt")
    aux = auxiliary_riemannian(m, V)
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.uniform(-3, 3, 4)
        g = np.asarray(m.metric(x))
        h = np.asarray(aux.metric(x))
        Vx = V.eval(x)
        for _ in range(5):
            X = rng.standard_normal(4)
            assert abs(Vx @ h @ X + Vx @ g @ X) < 1e-12
        assert abs(Vx @ h @ Vx - 1.0) < 1e-12
        assert np.all(np.linalg.eigvalsh(h) > 0)


def test_auxiliary_riemannian_rejects_spacelike_field():
    m = model_registry("minkowski", n=2)
    V = VectorField(lambda x: np.array([1.0, 0.0]), "dx")
    aux = auxiliary_riemannian(m, V)
    with pytest.raises(NotTimelike):
        aux.metric(np.zeros(2))


def test_auxiliary_riemannian_rescales_field():
    """An unnormalized timelike field gives the same h as its rescaling."""
    m = model_registry("minkowski", n=3)
    V1 = VectorField(lambda x: np.array([0.0, 0.0, 2.5]), "2.5dt")
    V2 = VectorField(lambda x: np.array([0.0, 0.0, 1.0]), "dt")
    h1 = auxiliary_riemannian(m, V1).metric(np.zeros(3))
    h2 = auxiliary_riemannian(m, V2).metric(np.zeros(3))
    assert np.allclose(h1, h2, atol=1e-14)


def test_chart_domain_margin():
    dom = ChartDomain(np.array([0.0, -np.inf]), np.array([np.pi, np.inf]))
    assert dom.margin(np.array([0.5, 100.0])) == pytest.approx(0.5)
    assert dom.contains(np.array([1.0, -5.0]))
    assert not dom.contains(np.array([-0.1, 0.0]))
    assert dom.margin(np.array([0.2, 0.0])) <= 0.3
    assert ChartDomain.unbounded(3).is_trivial


@pytest.mark.parametrize("x", [(np.nan, 0.3), (1.0, np.nan), (1.0, np.inf), (-np.inf, 0.0)])
def test_chart_domain_rejects_non_finite_points(x):
    assert not model_registry("sphere2").domain.contains(np.array(x))
    assert not ChartDomain.unbounded(2).contains(np.array(x))


def _margin_reference(dom, x):
    """ChartDomain.margin as first written: finite-bound masks taken on every call."""
    m = np.inf
    finite_lo = np.isfinite(dom.lower)
    finite_hi = np.isfinite(dom.upper)
    if finite_lo.any():
        m = min(m, float(np.min(x[finite_lo] - dom.lower[finite_lo])))
    if finite_hi.any():
        m = min(m, float(np.min(dom.upper[finite_hi] - x[finite_hi])))
    if dom.interior_fn is not None:
        m = min(m, float(dom.interior_fn(x)))
    return m


def test_chart_domain_margin_matches_reference():
    domains = [
        ChartDomain(np.array([0.0, -1.0, 0.5]), np.array([np.pi, 2.0, 3.0])),
        ChartDomain(np.array([-np.inf, 0.0, 0.0]), np.array([np.inf, np.inf, np.pi])),
        ChartDomain.unbounded(3),
        ChartDomain(np.full(3, -np.inf), np.full(3, np.inf),
                    interior_fn=lambda x: float(x @ x) - 0.25),
        ChartDomain(np.array([0.0, -np.inf, -2.0]), np.full(3, np.inf),
                    interior_fn=lambda x: 1.0 - float(x[1] ** 2)),
    ]
    rng = np.random.default_rng(5)
    points = [rng.uniform(-4, 4, 3) for _ in range(50)]
    points += [np.array([np.nan, 0.5, 1.0]), np.array([np.inf, -np.inf, 0.0])]
    for dom in domains:
        for x in points:
            want = _margin_reference(dom, x)
            got = dom.margin(x)
            assert got == want or (np.isnan(got) and np.isnan(want)), (dom, x)


def test_chart_domain_margin_ignores_a_bound_group_holding_nan():
    """A NaN anywhere in a bound group drops that whole group, as np.min's NaN
    does under min(m, nan); the other group still counts, and a zero margin
    keeps its sign."""
    dom = ChartDomain(np.array([0.0, -1.0, 0.5]), np.array([np.pi, 2.0, 3.0]))
    for k in range(3):
        x = np.array([0.25, 1.5, 2.75])
        x[k] = np.nan
        want = _margin_reference(dom, x)
        assert dom.margin(x) == want == np.inf
    x = np.array([0.25, 1.5, np.nan])
    one_sided = ChartDomain(np.array([0.0, -1.0, -np.inf]), np.array([np.pi, 2.0, 3.0]))
    assert one_sided.margin(x) == _margin_reference(one_sided, x) == 0.25
    assert isinstance(dom.margin(np.array([0.25, 1.5, 2.75])), float)
    # a tie of 0.0 and -0.0 keeps the sign np.min gives it
    zeros = ChartDomain(np.array([0.0, 0.0, -np.inf]), np.full(3, np.inf))
    for x in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]):
        want = _margin_reference(zeros, np.array(x))
        assert np.copysign(1.0, zeros.margin(np.array(x))) == np.copysign(1.0, want)


@pytest.mark.parametrize("n", [3, 4])
def test_desitter_connection_matches_fd(n):
    model = model_registry("desitter", n=n)
    bare = dataclasses.replace(model, christoffel=None, christoffel_deriv=None)
    rng = np.random.default_rng(50 + n)
    for _ in range(10):
        x = np.concatenate([rng.uniform(0.3, np.pi - 0.3, n - 2),
                            rng.uniform(-3.0, 3.0, 1), rng.uniform(-1.0, 1.0, 1)])
        assert np.allclose(model.christoffel(x), fd_christoffel(bare, x), atol=1e-8)
        dgamma = np.empty((n, n, n, n))
        for l in range(n):
            h = 1e-5
            xp = x.copy(); xp[l] += h
            xm = x.copy(); xm[l] -= h
            dgamma[l] = (model.christoffel(xp) - model.christoffel(xm)) / (2 * h)
        assert np.allclose(model.christoffel_deriv(x), dgamma, atol=1e-7)


def test_desitter2_connection_is_bitwise_closed_form():
    model = model_registry("desitter", n=2)
    for x in ([0.3, -0.7], [-2.0, 0.0], [1.0, 1.9]):
        tau = np.asarray(x)[1]
        th, cs = np.tanh(tau), np.cosh(tau) * np.sinh(tau)
        sech2, c2 = 1.0 / np.cosh(tau) ** 2, np.cosh(2.0 * tau)
        gamma = np.zeros((2, 2, 2))
        gamma[0, 0, 1] = gamma[0, 1, 0] = th
        gamma[1, 0, 0] = cs
        dgamma = np.zeros((2, 2, 2, 2))
        dgamma[1, 0, 0, 1] = dgamma[1, 0, 1, 0] = sech2
        dgamma[1, 1, 0, 0] = c2
        assert np.array_equal(model.christoffel(np.asarray(x)), gamma)
        assert np.array_equal(model.christoffel_deriv(np.asarray(x)), dgamma)


def test_sphere2_is_bitwise_the_polar_chart():
    """sphere(2) keeps the closed forms of the polar chart (theta, phi) bit for bit;
    only its chart inverse moved from arccos to arctan2, within 1e-13."""
    model = model_registry("sphere2")
    rng = np.random.default_rng(71)
    for th, ph in rng.uniform([0.01, -4.0], [np.pi - 0.01, 4.0], (2000, 2)):
        x = np.array([th, ph])
        metric = np.diag([1.0, np.sin(th) ** 2])
        gamma = np.zeros((2, 2, 2))
        gamma[0, 1, 1] = -np.sin(th) * np.cos(th)
        gamma[1, 0, 1] = gamma[1, 1, 0] = np.cos(th) / np.sin(th)
        dgamma = np.zeros((2, 2, 2, 2))
        dgamma[0, 0, 1, 1] = -np.cos(2.0 * th)
        dgamma[0, 1, 0, 1] = dgamma[0, 1, 1, 0] = -1.0 / np.sin(th) ** 2
        embed = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        jac = np.array([
            [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)],
            [np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph)],
            [-np.sin(th), 0.0],
        ])
        assert np.array_equal(model.metric(x), metric)
        assert np.array_equal(model.christoffel(x), gamma)
        assert np.array_equal(model.christoffel_deriv(x), dgamma)
        assert np.array_equal(model.embedding(x), embed)
        assert np.array_equal(model.embedding_jac(x), jac)
        v = rng.uniform(-1.0, 1.0, 2)
        X = model.oracle.point_embedding(x, v, 0.7)
        chart = np.array([np.arccos(np.clip(X[2], -1.0, 1.0)), np.arctan2(X[1], X[0])])
        assert np.abs(model.oracle.point(x, v, 0.7) - chart).max() <= 1e-13


def _sphere_point(n, rng):
    return np.concatenate([rng.uniform(0.3, np.pi - 0.3, n - 1), rng.uniform(-3.0, 3.0, 1)])


@pytest.mark.parametrize("n", [3, 4])
def test_sphere_connection_matches_fd(n):
    model = model_registry("sphere", n=n)
    bare = dataclasses.replace(model, christoffel=None, christoffel_deriv=None)
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        x = _sphere_point(n, rng)
        assert np.allclose(model.christoffel(x), fd_christoffel(bare, x), atol=1e-8)
        dgamma = np.empty((n, n, n, n))
        for l in range(n):
            h = 1e-5
            xp = x.copy(); xp[l] += h
            xm = x.copy(); xm[l] -= h
            dgamma[l] = (model.christoffel(xp) - model.christoffel(xm)) / (2 * h)
        assert np.allclose(model.christoffel_deriv(x), dgamma, atol=1e-7)


@pytest.mark.parametrize("n", [3, 4])
def test_sphere_embedding_jacobian_matches_fd(n):
    model = model_registry("sphere", n=n)
    rng = np.random.default_rng(70 + n)
    for _ in range(10):
        x = _sphere_point(n, rng)
        assert np.linalg.norm(model.embedding(x)) == pytest.approx(1.0, abs=1e-15)
        fd = np.empty((n + 1, n))
        for i in range(n):
            h = 1e-6
            xp = x.copy(); xp[i] += h
            xm = x.copy(); xm[i] -= h
            fd[:, i] = (model.embedding(xp) - model.embedding(xm)) / (2 * h)
        assert np.allclose(model.embedding_jac(x), fd, atol=1e-8)


@pytest.mark.parametrize("n", [3, 4])
def test_sphere_embedding_metric_pullback(n):
    model = model_registry("sphere", n=n)
    rng = np.random.default_rng(80 + n)
    for _ in range(10):
        x = _sphere_point(n, rng)
        J = model.embedding_jac(x)
        assert np.allclose(J.T @ J, model.metric(x), atol=1e-10)


GUARDED_MODELS = [
    (lambda: model_registry("euclidean"), (0.1, 0.2, 0.3)),
    (lambda: model_registry("minkowski"), (0.1, 0.2)),
    (lambda: model_registry("sphere2"), (1.2, 0.3)),
    (lambda: model_registry("sphere", n=3), (1.2, 1.4, 0.3)),
    (lambda: model_registry("hyperbolic2"), (0.0, 1.0)),
    (lambda: model_registry("desitter", n=2), (0.3, -0.2)),
    (lambda: model_registry("desitter", n=3), (1.2, 0.3, 0.1)),
    (lambda: model_registry("desitter", n=4), (1.2, 1.4, 0.3, 0.1)),
    (lambda: model_registry("clifton_pohl"), (1.0, 0.5)),
    (lambda: model_from_config_text(
        "[manifold]\ntype = dsl\ndim = 2\ng_1_1 = 1/x2^2\ng_2_2 = 1/x2^2\n"
        "lower = -inf, 0\n"), (0.0, 1.0)),
    (lambda: model_from_config_text(
        "[manifold]\ntype = dsl\ndim = 2\n"
        "g_1_1 = 1+4*x1^2\ng_1_2 = 4*x1*x2\ng_2_2 = 1+4*x2^2\n"), (0.2, -0.1)),
]


def test_only_the_paraboloid_finite_differences(monkeypatch):
    """Every builtin but the paraboloid, and every DSL model, has an exact connection."""
    calls = []
    original = manifold.fd_christoffel
    monkeypatch.setattr(manifold, "fd_christoffel",
                        lambda *a: calls.append(1) or original(*a))
    builtins = {name for name in BUILTIN_MODELS if name != "paraboloid"}
    assert builtins <= {build().name.split("(")[0] for build, _ in GUARDED_MODELS}
    for build, p in GUARDED_MODELS:
        model = build()
        assert model.christoffel is not None and model.christoffel_deriv is not None
        v = np.full(model.dim, 0.3)
        integrate_geodesic(model, p, v, t_max=0.5)
        integrate_variational(model, p, v, t_max=0.5)
        assert not calls, model.name
    integrate_geodesic(model_registry("paraboloid"), (0.2, -0.1), (0.3, 0.3), t_max=0.1)
    assert calls


def test_embedding_jacobian_matches_fd():
    for name in ["sphere2", "desitter"]:
        model = model_registry(name)
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = _interior_point(model, rng)
            J = model.embedding_jac(x)
            fd = np.empty_like(J)
            for i in range(model.dim):
                h = 1e-6
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                fd[:, i] = (embedding_point(model, xp)
                            - embedding_point(model, xm)) / (2 * h)
            assert np.allclose(J, fd, atol=1e-8), name


def test_embedding_metric_pullback():
    """For the sphere the chart metric is the pullback of the ambient one."""
    s = model_registry("sphere2")
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = _interior_point(s, rng)
        J = s.embedding_jac(x)
        assert np.allclose(J.T @ J, s.metric(x), atol=1e-10)


def test_desitter_embedding_pullback():
    d = model_registry("desitter", n=2)
    eta = np.diag([1.0, 1.0, -1.0])
    rng = np.random.default_rng(43)
    for _ in range(10):
        x = _interior_point(d, rng)
        J = d.embedding_jac(x)
        assert np.allclose(J.T @ eta @ J, d.metric(x), atol=1e-10)


def test_tangent_and_fields():
    t = Tangent.of([1, 2], [3, 4])
    assert t.base == (1.0, 2.0)
    assert np.array_equal(t.vec_array, np.array([3.0, 4.0]))
    f = ScalarField(lambda x: float(x @ x), "normsq")
    assert f.eval(np.array([3.0, 4.0])) == 25.0
