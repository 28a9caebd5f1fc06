"""Built-in manifold models and the model registry.

Closed-form geodesic oracles are provided for the round sphere S^n
(hyperspherical chart; ``sphere2`` is its polar chart at n = 2) and de Sitter
space (hyperboloid chart); both work in embedding coordinates and convert
back to the chart.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateMetric, StepSizeUnderflow, UnknownModel
from .manifold import ChartDomain, ManifoldModel, causal_sign

__all__ = ["model_registry", "list_models", "BUILTIN_MODELS"]


# ---------------------------------------------------------------------------
# flat models

def _flat(name: str, n: int, timelike: int) -> ManifoldModel:
    """R^n with the metric diag(1, .., 1, -1, .., -1), the ``timelike`` -1 entries last."""
    signature = (1,) * (n - timelike) + (-1,) * timelike
    g = np.diag(np.array(signature, dtype=float))
    zeros = np.zeros((n, n, n))
    dzeros = np.zeros((n, n, n, n))
    return ManifoldModel(
        name=f"{name}({n})",
        dim=n,
        signature=signature,
        domain=ChartDomain.unbounded(n),
        metric=lambda x: g,
        christoffel=lambda x: zeros,
        christoffel_deriv=lambda x: dzeros,
    )


def _euclidean(n: int = 3) -> ManifoldModel:
    return _flat("euclidean", n, 0)


def _minkowski(n: int = 2) -> ManifoldModel:
    return _flat("minkowski", n, 1)


class _QuadricOracle:
    """Geodesics of a unit quadric {<X, X>_eta = 1}: the sphere or de Sitter space.

    With P the embedded base point and U = d(embed)_p v, the geodesic is
    cos(ct) P + sin(ct) U/c, cosh(ct) P + sinh(ct) U/c or P + tU as
    q = <U, U>_eta is positive (q = c^2), negative (q = -c^2) or null.  By
    isometry q = g_p(v, v), classed by ``causal_sign``.  A timelike point
    beyond float range raises StepSizeUnderflow, as the numeric integrator
    does on the same ray.

    P, d(embed)_p and g_p depend on p alone, and a caller varies v at a fixed
    p, so they are kept, read-only, for the last p seen (keyed by its bytes).
    """

    def __init__(self, metric, embed, embed_jac, chart):
        self._metric = metric
        self._embed = embed
        self._embed_jac = embed_jac
        self._chart = chart
        self._base = (None, ())     # (p.tobytes(), (P, d(embed)_p, g_p)), set as one

    def point_embedding(self, p: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        key, base = p.tobytes(), self._base
        if base[0] != key:
            data = (self._embed(p), self._embed_jac(p), self._metric(p))
            for a in data:
                a.flags.writeable = False
            base = self._base = (key, data)
        P, A, g = base[1]
        U = A @ v
        q = float(v @ g @ v)
        sign = causal_sign(q, v)
        if sign > 0:
            c = math.sqrt(q)
            return math.cos(c * t) * P + (math.sin(c * t) / c) * U
        if sign < 0:
            c = math.sqrt(-q)
            try:
                ch, sh = math.cosh(c * t), math.sinh(c * t)
            except OverflowError:
                raise StepSizeUnderflow(t, "closed-form geodesic overflows") from None
            # bound on |X| in Python floats, which overflow to inf without a warning
            if not ch * (math.hypot(*P.tolist()) + math.hypot(*U.tolist()) / c) < 1e308:
                raise StepSizeUnderflow(t, "closed-form geodesic overflows")
            return ch * P + (sh / c) * U
        return P + t * U

    def point(self, p: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        return self._chart(self.point_embedding(p, v, t))


# ---------------------------------------------------------------------------
# hyperbolic plane, upper half-plane chart

def _hyperbolic_metric(x: np.ndarray) -> np.ndarray:
    y = x[1]
    return np.diag([1.0 / y**2, 1.0 / y**2])


def _hyperbolic_christoffel(x: np.ndarray) -> np.ndarray:
    y = x[1]
    g = np.zeros((2, 2, 2))
    g[0, 0, 1] = -1.0 / y
    g[0, 1, 0] = -1.0 / y
    g[1, 0, 0] = 1.0 / y
    g[1, 1, 1] = -1.0 / y
    return g


def _hyperbolic_christoffel_deriv(x: np.ndarray) -> np.ndarray:
    y = x[1]
    d = np.zeros((2, 2, 2, 2))
    d[1, 0, 0, 1] = 1.0 / y**2
    d[1, 0, 1, 0] = 1.0 / y**2
    d[1, 1, 0, 0] = -1.0 / y**2
    d[1, 1, 1, 1] = 1.0 / y**2
    return d


def _hyperbolic2() -> ManifoldModel:
    return ManifoldModel(
        name="hyperbolic2",
        dim=2,
        signature=(1, 1),
        domain=ChartDomain(np.array([-np.inf, 0.0]), np.array([np.inf, np.inf])),
        metric=_hyperbolic_metric,
        christoffel=_hyperbolic_christoffel,
        christoffel_deriv=_hyperbolic_christoffel_deriv,
    )


# ---------------------------------------------------------------------------
# the unit sphere S^m in hyperspherical angles (theta_0..theta_{m-1}):
#   Omega = (cos theta_0, sin theta_0 cos theta_1, ..., sin theta_0 ... sin theta_{m-1}),
# with metric diag(s_0..s_{m-1}), s_0 = 1 and s_i = prod_{j<i} sin^2(theta_j).
# The nonzero Christoffel symbols are
#   Gamma^k_ii = -(s_i/s_k) cot(theta_k),     Gamma^i_{ik} = cot(theta_k)   (k < i),
# with s_i/s_k cot(theta_k) written as sin cos(theta_k) prod_{k<j<i} sin^2(theta_j)
# so that it stays finite at the poles.  theta_{m-1} never enters the metric.
# S^n and de Sitter space dS^n, whose angular block is S^{n-1} warped by
# cosh^2(tau), share these pieces.

def _hypersphere_coords(angles: list) -> list:
    """Omega(theta) as m + 1 floats."""
    out = []
    s = 1.0
    for a in angles:
        out.append(s * math.cos(a))
        s *= math.sin(a)
    out.append(s)
    return out


def _hypersphere_chart(omega: np.ndarray) -> np.ndarray:
    m = len(omega) - 1
    angles = np.empty(m)
    for i in range(m - 1):
        angles[i] = np.arctan2(np.linalg.norm(omega[i + 1:]), omega[i])
    if m > 0:
        angles[m - 1] = np.arctan2(omega[m], omega[m - 1])
    return angles


def _hypersphere_metric_diag(angles: list) -> list:
    """s_0..s_{m-1}."""
    diag = [1.0]
    for a in angles[:-1]:
        diag.append(diag[-1] * math.sin(a) ** 2)
    return diag


def _hypersphere_jac_rows(angles: list) -> list:
    """d Omega / d theta as m + 1 rows, products expanded to stay exact at the poles."""
    m = len(angles)
    sin = [math.sin(a) for a in angles]
    cos = [math.cos(a) for a in angles]
    rows = [[0.0] * m for _ in range(m + 1)]
    head = 1.0                      # prod_{j<i} sin(theta_j)
    for i in range(m):
        # d/d theta_i of row k is the product over j < k with the theta_i factor
        # differentiated, times cos(theta_k) for k < m
        rows[i][i] = head * -sin[i]
        prod = head * cos[i]
        for k in range(i + 1, m):
            rows[k][i] = prod * cos[k]
            prod *= sin[k]
        rows[m][i] = prod
        head *= sin[i]
    return rows


def _sin2_prod(sin2: list, lo: int, hi: int, skip: int = -1) -> float:
    """Product of sin2[j] over lo <= j < hi, j != skip."""
    p = 1.0
    for j in range(lo, hi):
        if j != skip:
            p *= sin2[j]
    return p


def _hypersphere_christoffel(g: np.ndarray, angles: list, count: int) -> list:
    """Write Gamma^k_ii and Gamma^i_ik = Gamma^i_ki (k < i) into g from the angles
    that enter the metric, theta_0..theta_{m-2} = angles[:count]; return their sin^2.

    k runs down, so sin^2(theta_j) for j > k is known when row k needs it."""
    sin2 = [0.0] * count
    k = count
    while k:
        k -= 1
        k1 = k + 1
        sin, cos = math.sin(angles[k]), math.cos(angles[k])
        sin2[k] = sin * sin
        gk, cot = -sin * cos, cos / sin
        g[k, k1, k1] = gk
        g[k1, k1, k] = g[k1, k, k1] = cot
        for i in range(k1 + 1, count + 1):
            gk *= sin2[i - 1]
            g[k, i, i] = gk
            g[i, i, k] = g[i, k, i] = cot
    return sin2


def _hypersphere_christoffel_deriv(d: np.ndarray, angles: list, count: int) -> list:
    """Write the theta-derivatives of the symbols above into d, d[l, k, i, j] =
    d Gamma^k_ij / d x_l, from the same angles; return their sin^2."""
    sin2 = [0.0] * count
    k = count
    while k:
        k -= 1
        k1 = k + 1
        a = angles[k]
        sin2[k] = s2 = math.sin(a) ** 2
        # Gamma^k_ii = -sin(2 theta_k)/2 prod_{k<j<i} sin^2(theta_j), Gamma^i_ik = cot(theta_k)
        dgk, dcot = -math.cos(2.0 * a), -1.0 / s2
        d[k, k, k1, k1] = dgk
        d[k, k1, k1, k] = d[k, k1, k, k1] = dcot
        p = 1.0
        for i in range(k1 + 1, count + 1):
            p *= sin2[i - 1]
            d[k, k, i, i] = dgk * p
            d[k, i, i, k] = d[k, i, k, i] = dcot
            for l in range(k1, i):
                d[l, k, i, i] = (-0.5 * math.sin(2.0 * a) * math.sin(2.0 * angles[l])
                                 * _sin2_prod(sin2, k1, i, l))
    return sin2


# ---------------------------------------------------------------------------
# round sphere S^n, embedded as Omega with the cos(theta_0) coordinate last, so
# that sphere(2) is the polar chart (theta, phi) about the third axis

def _sphere(n: int = 2) -> ManifoldModel:
    if n < 2:
        raise UnknownModel(f"sphere({n})")
    shape3, shape4 = (n, n, n), (n, n, n, n)

    def metric(x: np.ndarray) -> np.ndarray:
        g = np.zeros((n, n))
        g.ravel()[::n + 1] = _hypersphere_metric_diag(x.tolist())     # the diagonal
        return g

    def christoffel(x: np.ndarray) -> np.ndarray:
        g = np.zeros(shape3)
        _hypersphere_christoffel(g, x.tolist(), n - 1)
        return g

    def christoffel_deriv(x: np.ndarray) -> np.ndarray:
        d = np.zeros(shape4)
        try:
            _hypersphere_christoffel_deriv(d, x.tolist(), n - 1)
        except ZeroDivisionError:   # sin^2(theta_k) underflowed to 0: g is singular there
            raise DegenerateMetric(x, 0.0) from None
        return d

    def embed(x: np.ndarray) -> np.ndarray:
        omega = _hypersphere_coords(x.tolist())
        return np.array(omega[1:] + omega[:1])

    def embed_jac(x: np.ndarray) -> np.ndarray:
        rows = _hypersphere_jac_rows(x.tolist())
        return np.array(rows[1:] + rows[:1])

    def chart(X: np.ndarray) -> np.ndarray:
        return _hypersphere_chart(np.concatenate([X[-1:], X[:-1]]))

    return ManifoldModel(
        name="sphere2" if n == 2 else f"sphere({n})",
        dim=n,
        signature=(1,) * n,
        domain=ChartDomain(np.concatenate([np.zeros(n - 1), [-np.inf]]),
                           np.concatenate([np.full(n - 1, np.pi), [np.inf]])),
        metric=metric,
        christoffel=christoffel,
        christoffel_deriv=christoffel_deriv,
        oracle=_QuadricOracle(metric, embed, embed_jac, chart),
        embedding=embed,
        embedding_jac=embed_jac,
        metadata={"periodic": {n - 1: 2.0 * np.pi}},
    )


# ---------------------------------------------------------------------------
# de Sitter space: hyperboloid sum(x_i^2) - x_{n+1}^2 = 1 in Minkowski(n+1).
# Chart coordinates (theta_0..theta_{m-1}, tau), m = n - 1, with
#   X_{1..n} = cosh(tau) * Omega(theta),   X_{n+1} = sinh(tau),
# and metric -dtau^2 + cosh^2(tau) g_{S^m}.  Besides the angular symbols of
# S^m above, the nonzero Christoffel symbols are
#   Gamma^tau_ii = cosh(tau) sinh(tau) s_i,   Gamma^i_{i tau} = tanh(tau).

def _desitter(n: int = 2) -> ManifoldModel:
    if n < 2:
        raise UnknownModel(f"desitter({n})")
    m = n - 1
    shape3, shape4 = (n, n, n), (n, n, n, n)
    # the tau entries of the first angle, i = 0, where s_0 = 1
    ii_tau, i_tau_i, tau_ii = (0, 0, m), (0, m, 0), (m, 0, 0)
    d_ii_tau, d_i_tau_i, d_tau_ii = (m,) + ii_tau, (m,) + i_tau_i, (m,) + tau_ii

    def metric(x: np.ndarray) -> np.ndarray:
        diag = np.empty(n)
        diag[:-1] = np.cosh(x[m]) ** 2 * np.array(_hypersphere_metric_diag(x[:m].tolist()))
        diag[-1] = -1.0
        return np.diag(diag)

    def christoffel(x: np.ndarray) -> np.ndarray:
        tau = x[m]
        g = np.zeros(shape3)
        th = np.tanh(tau)
        cs = np.cosh(tau) * np.sinh(tau)
        g[ii_tau] = g[i_tau_i] = th
        g[tau_ii] = cs
        if m > 1:
            sin2 = _hypersphere_christoffel(g, x.tolist(), m - 1)
            for i in range(1, m):
                g[i, i, m] = g[i, m, i] = th
                g[m, i, i] = cs * _sin2_prod(sin2, 0, i)
        return g

    def christoffel_deriv(x: np.ndarray) -> np.ndarray:
        tau = x[m]
        d = np.zeros(shape4)
        sech2 = 1.0 / np.cosh(tau) ** 2
        c2 = np.cosh(2.0 * tau)
        d[d_ii_tau] = d[d_i_tau_i] = sech2
        d[d_tau_ii] = c2
        if m > 1:
            cs = np.cosh(tau) * np.sinh(tau)
            angles = x.tolist()
            try:
                sin2 = _hypersphere_christoffel_deriv(d, angles, m - 1)
            except ZeroDivisionError:   # as in sphere(n)
                raise DegenerateMetric(x, 0.0) from None
            for i in range(1, m):
                d[m, i, i, m] = d[m, i, m, i] = sech2
                d[m, m, i, i] = c2 * _sin2_prod(sin2, 0, i)
                for k in range(i):
                    d[k, m, i, i] = cs * math.sin(2.0 * angles[k]) * _sin2_prod(sin2, 0, i, k)
        return d

    def embed(x: np.ndarray) -> np.ndarray:
        omega = np.array(_hypersphere_coords(x[:m].tolist()))
        return np.concatenate([np.cosh(x[m]) * omega, [np.sinh(x[m])]])

    def embed_jac(x: np.ndarray) -> np.ndarray:
        tau, angles = x[m], x[:m].tolist()
        out = np.zeros((n + 1, n))
        out[:-1, :-1] = np.cosh(tau) * np.array(_hypersphere_jac_rows(angles))
        out[:-1, -1] = np.sinh(tau) * np.array(_hypersphere_coords(angles))
        out[-1, -1] = np.cosh(tau)
        return out

    def chart(X: np.ndarray) -> np.ndarray:
        tau = np.arcsinh(X[-1])
        return np.concatenate([_hypersphere_chart(X[:-1] / np.cosh(tau)), [tau]])

    return ManifoldModel(
        name=f"desitter({n})",
        dim=n,
        signature=(1,) * m + (-1,),
        domain=ChartDomain(np.concatenate([np.zeros(n - 2), [-np.inf, -np.inf]]),
                           np.concatenate([np.full(n - 2, np.pi), [np.inf, np.inf]])),
        metric=metric,
        christoffel=christoffel,
        christoffel_deriv=christoffel_deriv,
        oracle=_QuadricOracle(metric, embed, embed_jac, chart),
        embedding=embed,
        embedding_jac=embed_jac,
        metadata={"periodic": {n - 2: 2.0 * np.pi}},
    )


# ---------------------------------------------------------------------------
# paraboloid z = x^2 + y^2 (finite-difference Christoffels on purpose)

def _paraboloid_metric(x: np.ndarray) -> np.ndarray:
    a, b = x
    return np.array([[1.0 + 4.0 * a * a, 4.0 * a * b],
                     [4.0 * a * b, 1.0 + 4.0 * b * b]])


def _paraboloid() -> ManifoldModel:
    return ManifoldModel(
        name="paraboloid",
        dim=2,
        signature=(1, 1),
        domain=ChartDomain.unbounded(2),
        metric=_paraboloid_metric,
        embedding=lambda x: np.array([x[0], x[1], x[0] ** 2 + x[1] ** 2]),
    )


# ---------------------------------------------------------------------------
# Clifton-Pohl torus covering chart: ds^2 = 2 du dv / (u^2 + v^2), (u,v) != 0

def _clifton_pohl_metric(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (x[0] ** 2 + x[1] ** 2)
    return np.array([[0.0, s], [s, 0.0]])


def _clifton_pohl_christoffel(x: np.ndarray) -> np.ndarray:
    u, v = x
    r2 = u * u + v * v
    g = np.zeros((2, 2, 2))
    g[0, 0, 0] = -2.0 * u / r2
    g[1, 1, 1] = -2.0 * v / r2
    return g


def _clifton_pohl_christoffel_deriv(x: np.ndarray) -> np.ndarray:
    u, v = x
    r2 = u * u + v * v
    d = np.zeros((2, 2, 2, 2))
    d[0, 0, 0, 0] = (-2.0 * r2 + 4.0 * u * u) / r2**2
    d[1, 0, 0, 0] = 4.0 * u * v / r2**2
    d[0, 1, 1, 1] = 4.0 * u * v / r2**2
    d[1, 1, 1, 1] = (-2.0 * r2 + 4.0 * v * v) / r2**2
    return d


def _clifton_pohl() -> ManifoldModel:
    return ManifoldModel(
        name="clifton_pohl",
        dim=2,
        signature=(1, -1),
        domain=ChartDomain(
            np.full(2, -np.inf), np.full(2, np.inf),
            interior_fn=lambda x: float(x[0] ** 2 + x[1] ** 2) - 1e-10,
        ),
        metric=_clifton_pohl_metric,
        christoffel=_clifton_pohl_christoffel,
        christoffel_deriv=_clifton_pohl_christoffel_deriv,
        metadata={
            "torus_identification": "(u, v) ~ (2u, 2v); geodesics integrated in the covering chart",
        },
    )


BUILTIN_MODELS = {
    "euclidean": (_euclidean, "flat R^n", True),
    "minkowski": (_minkowski, "flat Lorentzian R^n, signature (+..+,-)", True),
    "sphere2": (lambda: _sphere(2), "unit sphere, polar chart; sphere with n = 2", False),
    "sphere": (_sphere, "unit sphere S^n, hyperspherical chart", True),
    "hyperbolic2": (_hyperbolic2, "hyperbolic plane, upper half-plane chart", False),
    "desitter": (_desitter, "de Sitter hyperboloid in Minkowski(n+1)", True),
    "paraboloid": (_paraboloid, "paraboloid z = x^2 + y^2", False),
    "clifton_pohl": (_clifton_pohl, "Clifton-Pohl torus covering chart", False),
}


def model_registry(name: str, **params) -> ManifoldModel:
    """Construct a built-in model by name; dimension via n= or dim= where applicable."""
    if name not in BUILTIN_MODELS:
        raise UnknownModel(name)
    builder, _, takes_dim = BUILTIN_MODELS[name]
    n = params.pop("n", params.pop("dim", None))
    if params:
        raise UnknownModel(f"{name} (unknown parameters {sorted(params)})")
    if takes_dim:
        return builder(int(n)) if n is not None else builder()
    if n is not None and int(n) != builder().dim:
        raise UnknownModel(f"{name} has fixed dimension")
    return builder()


def list_models() -> list[dict]:
    out = []
    for name, (builder, doc, takes_dim) in BUILTIN_MODELS.items():
        m = builder()
        out.append({
            "name": name,
            "description": doc,
            "dim": m.dim if not takes_dim else f"{m.dim} (default; parameterizable)",
            "signature": list(m.signature),
            "has_oracle": m.oracle is not None,
        })
    return out
