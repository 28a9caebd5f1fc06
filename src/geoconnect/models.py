"""Built-in manifold models and the model registry.

Closed-form geodesic oracles are provided for the round sphere (polar
chart) and de Sitter space (hyperboloid chart); both work in embedding
coordinates and convert back to the chart.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import StepSizeUnderflow, UnknownModel
from .manifold import ChartDomain, ManifoldModel, causal_sign

__all__ = ["model_registry", "list_models", "BUILTIN_MODELS"]


# ---------------------------------------------------------------------------
# flat models

def _euclidean(n: int = 3) -> ManifoldModel:
    eye = np.eye(n)
    zeros = np.zeros((n, n, n))
    dzeros = np.zeros((n, n, n, n))
    return ManifoldModel(
        name=f"euclidean({n})",
        dim=n,
        signature=(1,) * n,
        domain=ChartDomain.unbounded(n),
        metric=lambda x: eye,
        christoffel=lambda x: zeros,
        christoffel_deriv=lambda x: dzeros,
    )


def _minkowski(n: int = 2) -> ManifoldModel:
    g = np.diag([1.0] * (n - 1) + [-1.0])
    zeros = np.zeros((n, n, n))
    dzeros = np.zeros((n, n, n, n))
    return ManifoldModel(
        name=f"minkowski({n})",
        dim=n,
        signature=(1,) * (n - 1) + (-1,),
        domain=ChartDomain.unbounded(n),
        metric=lambda x: g,
        christoffel=lambda x: zeros,
        christoffel_deriv=lambda x: dzeros,
    )


# ---------------------------------------------------------------------------
# round sphere, polar chart (theta, phi), theta in (0, pi)

def _sphere_metric(x: np.ndarray) -> np.ndarray:
    return np.diag([1.0, np.sin(x[0]) ** 2])


def _sphere_christoffel(x: np.ndarray) -> np.ndarray:
    th = x[0]
    g = np.zeros((2, 2, 2))
    g[0, 1, 1] = -np.sin(th) * np.cos(th)
    cot = np.cos(th) / np.sin(th)
    g[1, 0, 1] = cot
    g[1, 1, 0] = cot
    return g


def _sphere_christoffel_deriv(x: np.ndarray) -> np.ndarray:
    th = x[0]
    d = np.zeros((2, 2, 2, 2))
    d[0, 0, 1, 1] = -np.cos(2.0 * th)
    s2 = -1.0 / np.sin(th) ** 2
    d[0, 1, 0, 1] = s2
    d[0, 1, 1, 0] = s2
    return d


def _sphere_embed(x: np.ndarray) -> np.ndarray:
    th, ph = x
    return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


def _sphere_chart(X: np.ndarray) -> np.ndarray:
    th = np.arccos(np.clip(X[2], -1.0, 1.0))
    ph = np.arctan2(X[1], X[0])
    return np.array([th, ph])


def _sphere_embed_jac(x: np.ndarray) -> np.ndarray:
    th, ph = x
    return np.array([
        [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)],
        [np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph)],
        [-np.sin(th), 0.0],
    ])


class _QuadricOracle:
    """Geodesics of a unit quadric {<X, X>_eta = 1}: the sphere or de Sitter space.

    With P the embedded base point and U = d(embed)_p v, the geodesic is
    cos(ct) P + sin(ct) U/c, cosh(ct) P + sinh(ct) U/c or P + tU as
    q = <U, U>_eta is positive (q = c^2), negative (q = -c^2) or null.  By
    isometry q = g_p(v, v), classed by ``causal_sign``.  A timelike point
    beyond float range raises StepSizeUnderflow, as the numeric integrator
    does on the same ray.
    """

    def __init__(self, metric, embed, embed_jac, chart):
        self._metric = metric
        self._embed = embed
        self._embed_jac = embed_jac
        self._chart = chart

    def point_embedding(self, p: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        P = self._embed(p)
        U = self._embed_jac(p) @ v
        q = float(v @ self._metric(p) @ v)
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


def _sphere2() -> ManifoldModel:
    return ManifoldModel(
        name="sphere2",
        dim=2,
        signature=(1, 1),
        domain=ChartDomain(np.array([0.0, -np.inf]), np.array([np.pi, np.inf])),
        metric=_sphere_metric,
        christoffel=_sphere_christoffel,
        christoffel_deriv=_sphere_christoffel_deriv,
        oracle=_QuadricOracle(_sphere_metric, _sphere_embed, _sphere_embed_jac,
                              _sphere_chart),
        embedding=_sphere_embed,
        embedding_jac=_sphere_embed_jac,
        metadata={"periodic": {1: 2.0 * np.pi}},
    )


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
# de Sitter space: hyperboloid sum(x_i^2) - x_{n+1}^2 = 1 in Minkowski(n+1).
# Chart coordinates (theta_1..theta_{n-1}, tau) with
#   X_{1..n} = cosh(tau) * Omega(theta),   X_{n+1} = sinh(tau),
# where Omega is the hyperspherical embedding of S^{n-1}.

def _hypersphere_embed(angles: np.ndarray) -> np.ndarray:
    m = len(angles)
    out = np.empty(m + 1)
    s = 1.0
    for i in range(m):
        out[i] = s * np.cos(angles[i])
        s *= np.sin(angles[i])
    out[m] = s
    return out


def _hypersphere_chart(omega: np.ndarray) -> np.ndarray:
    m = len(omega) - 1
    angles = np.empty(m)
    for i in range(m - 1):
        angles[i] = np.arctan2(np.linalg.norm(omega[i + 1:]), omega[i])
    if m > 0:
        angles[m - 1] = np.arctan2(omega[m], omega[m - 1])
    return angles


def _hypersphere_metric_diag(angles: np.ndarray) -> np.ndarray:
    m = len(angles)
    diag = np.empty(m)
    s = 1.0
    for i in range(m):
        diag[i] = s
        s *= np.sin(angles[i]) ** 2
    return diag


def _desitter_metric(n: int):
    def metric(x: np.ndarray) -> np.ndarray:
        tau = x[-1]
        diag = np.empty(n)
        diag[:-1] = np.cosh(tau) ** 2 * _hypersphere_metric_diag(x[:-1])
        diag[-1] = -1.0
        return np.diag(diag)
    return metric


# Christoffel symbols of the warped product -dtau^2 + cosh^2(tau) g_{S^{n-1}} in the
# chart x = (theta_0..theta_{m-1}, tau), m = n - 1, with g_ii = cosh^2(tau) s_i,
# s_0 = 1 and s_i = prod_{j<i} sin^2(theta_j).  The nonzero symbols are
#   Gamma^tau_ii = cosh(tau) sinh(tau) s_i,   Gamma^i_{i tau} = tanh(tau),
#   Gamma^k_ii = -(s_i/s_k) cot(theta_k),     Gamma^i_{ik} = cot(theta_k)   (k < i),
# with s_i/s_k cot(theta_k) written as sin cos(theta_k) prod_{k<j<i} sin^2(theta_j)
# so that it stays finite at the poles.  theta_{m-1} never enters the metric.

def _desitter_christoffel(n: int):
    m = n - 1
    shape = (n, n, n)
    ii_tau, i_tau_i, tau_ii = (0, 0, m), (0, m, 0), (m, 0, 0)      # i = 0

    def christoffel(x: np.ndarray) -> np.ndarray:
        tau = x[m]
        g = np.zeros(shape)
        th = np.tanh(tau)
        cs = np.cosh(tau) * np.sinh(tau)
        # i = 0: s_0 = 1 and no k < i
        g[ii_tau] = g[i_tau_i] = th
        g[tau_ii] = cs
        if m > 1:
            s = 1.0
            gk = []             # Gamma^k_ii for k < i
            cot = []            # cot(theta_k) for k < i
            for i, a in enumerate(x[:m - 1].tolist(), start=1):
                sin, cos = math.sin(a), math.cos(a)     # theta_{i-1}
                sin2 = sin * sin
                s *= sin2
                gk = [v * sin2 for v in gk] + [-sin * cos]
                cot.append(cos / sin)
                g[i, i, m] = g[i, m, i] = th
                g[m, i, i] = cs * s
                for k in range(i):
                    g[k, i, i] = gk[k]
                    g[i, i, k] = g[i, k, i] = cot[k]
        return g

    return christoffel


def _desitter_christoffel_deriv(n: int):
    m = n - 1
    shape = (n, n, n, n)
    ii_tau, i_tau_i, tau_ii = (m, 0, 0, m), (m, 0, m, 0), (m, m, 0, 0)     # d_tau, i = 0

    def christoffel_deriv(x: np.ndarray) -> np.ndarray:
        """d[l, k, i, j] = d Gamma^k_ij / d x_l, the entries above differentiated."""
        tau = x[m]
        d = np.zeros(shape)
        sech2 = 1.0 / np.cosh(tau) ** 2
        c2 = np.cosh(2.0 * tau)
        d[ii_tau] = d[i_tau_i] = sech2
        d[tau_ii] = c2
        if m > 1:
            cs = np.cosh(tau) * np.sinh(tau)
            angles = x[:m - 1].tolist()
            sin2 = [math.sin(a) ** 2 for a in angles]
            dsin2 = [math.sin(2.0 * a) for a in angles]     # d sin^2 / d theta

            def prod(lo: int, hi: int, skip: int = -1) -> float:
                """Product of sin^2(theta_j) over lo <= j < hi, j != skip."""
                p = 1.0
                for j in range(lo, hi):
                    if j != skip:
                        p *= sin2[j]
                return p

            for i in range(1, m):
                d[m, i, i, m] = d[m, i, m, i] = sech2
                d[m, m, i, i] = c2 * prod(0, i)
                for k in range(i):
                    # Gamma^tau_ii = cosh sinh(tau) s_i
                    d[k, m, i, i] = cs * dsin2[k] * prod(0, i, k)
                    # Gamma^k_ii = -sin(2 theta_k)/2 prod_{k<j<i} sin^2(theta_j)
                    d[k, k, i, i] = -math.cos(2.0 * angles[k]) * prod(k + 1, i)
                    for l in range(k + 1, i):
                        d[l, k, i, i] = -0.5 * dsin2[k] * dsin2[l] * prod(k + 1, i, l)
                    # Gamma^i_ik = cot(theta_k)
                    d[k, i, i, k] = d[k, i, k, i] = -1.0 / sin2[k]
        return d

    return christoffel_deriv


def _desitter_embed(n: int):
    def embed(x: np.ndarray) -> np.ndarray:
        tau = x[-1]
        omega = _hypersphere_embed(x[:-1])
        return np.concatenate([np.cosh(tau) * omega, [np.sinh(tau)]])
    return embed


def _hypersphere_embed_jac(angles: np.ndarray) -> np.ndarray:
    """d Omega / d theta, products expanded to stay exact at the poles."""
    m = len(angles)
    sin = np.sin(angles)
    cos = np.cos(angles)
    jac = np.zeros((m + 1, m))
    for i in range(m):
        for k in range(i, m + 1):
            # product over j < k with the theta_i factor differentiated
            prod = 1.0
            for j in range(min(k, m)):
                if j == i:
                    prod *= cos[i]
                else:
                    prod *= sin[j]
            if k < m:
                jac[k, i] = prod * (-sin[k] if k == i else cos[k])
            else:
                jac[k, i] = prod
    return jac


def _desitter_embed_jac(n: int):
    def jac(x: np.ndarray) -> np.ndarray:
        tau = x[-1]
        omega = _hypersphere_embed(x[:-1])
        domega = _hypersphere_embed_jac(x[:-1])
        out = np.zeros((n + 1, n))
        out[:-1, :-1] = np.cosh(tau) * domega
        out[:-1, -1] = np.sinh(tau) * omega
        out[-1, -1] = np.cosh(tau)
        return out
    return jac


def _desitter_chart(n: int):
    def chart(X: np.ndarray) -> np.ndarray:
        tau = np.arcsinh(X[-1])
        omega = X[:-1] / np.cosh(tau)
        return np.concatenate([_hypersphere_chart(omega), [tau]])
    return chart


def _desitter(n: int = 2) -> ManifoldModel:
    if n < 2:
        raise UnknownModel(f"desitter({n})")
    lower = np.concatenate([np.zeros(n - 2), [-np.inf, -np.inf]])
    upper = np.concatenate([np.full(n - 2, np.pi), [np.inf, np.inf]])
    metric, embed = _desitter_metric(n), _desitter_embed(n)
    embed_jac, chart = _desitter_embed_jac(n), _desitter_chart(n)
    return ManifoldModel(
        name=f"desitter({n})",
        dim=n,
        signature=(1,) * (n - 1) + (-1,),
        domain=ChartDomain(lower, upper),
        metric=metric,
        christoffel=_desitter_christoffel(n),
        christoffel_deriv=_desitter_christoffel_deriv(n),
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
    "sphere2": (_sphere2, "unit sphere, polar chart", False),
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
