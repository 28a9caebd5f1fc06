"""Chart-based manifold models: metric, connection, and tangent-space helpers.

A model is a single chart (an open box, optionally refined by a smooth
interior function) together with a metric evaluator.  Christoffel symbols
come from the model's own evaluator: closed form for the builtins, exact
symbolic metric derivatives for DSL models.  Central differences of the
metric are the fallback only for models that supply a bare metric;
``connection`` is the one place that chooses between the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import DegenerateMetric, NotTimelike, OutOfChart

__all__ = [
    "ChartDomain", "ManifoldModel", "Tangent", "ScalarField", "VectorField",
    "metric_eval", "connection", "christoffel_eval", "inner", "causal_class",
    "christoffel_from_metric", "christoffel_deriv_from_metric",
    "auxiliary_riemannian", "embedding_point", "orthonormal_frame",
    "central_difference", "check_tangent", "causal_sign", "DEGENERACY_TOL", "NULL_TOL",
]

DEGENERACY_TOL = 1e-12
NULL_TOL = 1e-12   # |g(u, u)| at or below NULL_TOL * (u . u) counts as null


@dataclass(frozen=True)
class ChartDomain:
    """Open box, optionally intersected with {interior_fn > 0}."""

    lower: np.ndarray
    upper: np.ndarray
    interior_fn: Optional[Callable[[np.ndarray], float]] = None

    @staticmethod
    def unbounded(dim: int) -> "ChartDomain":
        return ChartDomain(np.full(dim, -np.inf), np.full(dim, np.inf))

    def __post_init__(self):
        # margin runs once per accepted integrator step: pair the finite
        # bounds with their indices here, as Python numbers, rather than on
        # every call
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "_lo", tuple(
            (int(i), float(lower[i])) for i in np.flatnonzero(np.isfinite(lower))))
        object.__setattr__(self, "_hi", tuple(
            (int(i), float(upper[i])) for i in np.flatnonzero(np.isfinite(upper))))

    def margin(self, x: np.ndarray) -> float:
        """Signed distance-like margin; positive strictly inside.

        A bound group (lower or upper) with a NaN distance is ignored, as
        ``min(m, nan)`` keeps m.  Within a group the last of equal minima
        wins, as in ``np.min`` on a short array, so the sign of a zero margin
        is kept bitwise."""
        m = np.inf
        if self._lo or self._hi:
            xs = x.tolist()
            for group in ([xs[i] - b for i, b in self._lo], [b - xs[i] for i, b in self._hi]):
                if group and not any(map(math.isnan, group)):
                    m = min(m, min(reversed(group)))
        if self.interior_fn is not None:
            m = min(m, float(self.interior_fn(x)))
        return m

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)   # a non-finite coordinate is never inside
        return bool(np.isfinite(x).all()) and self.margin(x) > 0.0

    @property
    def is_trivial(self) -> bool:
        return self.interior_fn is None and not self._lo and not self._hi


class GeodesicOracle(Protocol):
    """Closed-form geodesic map in chart and embedding coordinates."""

    def point(self, p: np.ndarray, v: np.ndarray, t: float) -> np.ndarray: ...

    def point_embedding(self, p: np.ndarray, v: np.ndarray, t: float) -> np.ndarray: ...


@dataclass(frozen=True)
class ManifoldModel:
    name: str
    dim: int
    signature: tuple[int, ...]
    domain: ChartDomain
    metric: Callable[[np.ndarray], np.ndarray]
    christoffel: Optional[Callable[[np.ndarray], np.ndarray]] = None
    christoffel_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    oracle: Optional[GeodesicOracle] = None
    embedding: Optional[Callable[[np.ndarray], np.ndarray]] = None
    embedding_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    metadata: dict = field(default_factory=dict)

    @property
    def is_riemannian(self) -> bool:
        return all(s == 1 for s in self.signature)

    def __repr__(self) -> str:  # keep frozen dataclass repr short
        return f"ManifoldModel({self.name}, dim={self.dim}, signature={self.signature})"


@dataclass(frozen=True)
class Tangent:
    base: tuple[float, ...]
    vec: tuple[float, ...]

    @staticmethod
    def of(base, vec) -> "Tangent":
        return Tangent(tuple(map(float, base)), tuple(map(float, vec)))

    @property
    def base_array(self) -> np.ndarray:
        return np.asarray(self.base, dtype=float)

    @property
    def vec_array(self) -> np.ndarray:
        return np.asarray(self.vec, dtype=float)


@dataclass(frozen=True)
class ScalarField:
    eval: Callable[[np.ndarray], float]
    name: str = "f"


@dataclass(frozen=True)
class VectorField:
    eval: Callable[[np.ndarray], np.ndarray]
    name: str = "V"


def _check_chart(model: ManifoldModel, x: np.ndarray) -> np.ndarray:
    """x as a float array.  Raises OutOfChart unless x is a finite point with
    dim coordinates inside the chart."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise OutOfChart(x, f"expected {model.dim} coordinates")
    if not np.isfinite(x).all():
        raise OutOfChart(x, "point not finite")
    if not model.domain.margin(x) > 0.0:
        raise OutOfChart(x)
    return x


def check_tangent(model: ManifoldModel, p, v) -> tuple[np.ndarray, np.ndarray]:
    """(p, v) as float arrays.  Raises OutOfChart unless p is a finite point
    inside the chart, and ValueError unless v is finite with dim components."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.dim,):
        raise ValueError(f"tangent vector needs {model.dim} components: {v}")
    if not np.isfinite(v).all():
        raise ValueError(f"tangent vector not finite: {v}")
    return _check_chart(model, p), v


def metric_eval(model: ManifoldModel, x) -> np.ndarray:
    """Validated metric matrix g(x): symmetric, nondegenerate, signature-true."""
    x = _check_chart(model, x)
    g = np.asarray(model.metric(x), dtype=float)
    if not np.array_equal(g, g.T):
        raise DegenerateMetric(x, float(np.max(np.abs(g - g.T))))
    eig = np.linalg.eigvalsh(g)
    small = np.abs(eig).min()
    if small < DEGENERACY_TOL:
        raise DegenerateMetric(x, float(small))
    signs = tuple(int(s) for s in np.sign(np.sort(eig)))
    if signs != tuple(sorted(model.signature)):
        raise DegenerateMetric(x, float(small))
    return g


def central_difference(f: Callable, x: np.ndarray, rel_step: float,
                       delta: Optional[Callable] = None) -> np.ndarray:
    """out[l] = d f / d x_l by central differences, step rel_step * max(1, |x_l|);
    ``delta`` maps each difference f(x + h e_l) - f(x - h e_l) before the division."""
    out = []
    for l in range(len(x)):
        h = rel_step * max(1.0, abs(x[l]))
        xp = x.copy(); xp[l] += h
        xm = x.copy(); xm[l] -= h
        diff = np.asarray(f(xp)) - np.asarray(f(xm))
        out.append((diff if delta is None else delta(diff)) / (2.0 * h))
    return np.array(out)


def _inverse(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise DegenerateMetric(x, 0.0) from None


def _bracket(dg: np.ndarray) -> np.ndarray:
    """bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij from dg[l, i, j] = d_l g_ij."""
    return dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg


def christoffel_from_metric(x: np.ndarray, g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), dg[l, i, j] = d_l g_ij.

    Raises DegenerateMetric when g(x) is singular.
    """
    return 0.5 * np.einsum("kl,lij->kij", _inverse(x, g), _bracket(dg))


def christoffel_deriv_from_metric(x: np.ndarray, g: np.ndarray, dg: np.ndarray,
                                  ddg: np.ndarray) -> np.ndarray:
    """dGamma[m, k, i, j] = d_m Gamma^k_ij from ddg[m, l, i, j] = d_m d_l g_ij.

    Differentiates g Gamma = B/2, with B the bracket above:
    d_m Gamma = g^{-1} (d_m B / 2 - d_m g Gamma).
    """
    ginv = _inverse(x, g)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, _bracket(dg))
    d_bracket = ddg.transpose(0, 3, 1, 2) + ddg.transpose(0, 3, 2, 1) - ddg
    rhs = 0.5 * d_bracket - np.einsum("mlk,kij->mlij", dg, gamma)
    return np.einsum("kl,mlij->mkij", ginv, rhs)


def fd_christoffel(model: ManifoldModel, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols from the metric, its derivatives by central differences."""
    g = np.asarray(model.metric(x), dtype=float)
    return christoffel_from_metric(x, g, central_difference(model.metric, x, 1e-5))


def _metric_stencil(model: ManifoldModel, x: np.ndarray, rel_step: float):
    """(g, dg, ddg) at x from one stencil of 1 + 2 n^2 metric calls, step
    rel_step * max(1, |x_l|): central first differences, central second
    differences on the diagonal and four-point mixed differences off it."""
    n = len(x)
    h = rel_step * np.maximum(1.0, np.abs(x))

    def g_at(*shifts):
        y = x.copy()
        for l, s in shifts:
            y[l] += s * h[l]
        return np.asarray(model.metric(y), dtype=float)

    g = g_at()
    dg = np.empty((n, n, n))
    ddg = np.empty((n, n, n, n))
    for l in range(n):
        gp, gm = g_at((l, 1)), g_at((l, -1))
        dg[l] = (gp - gm) / (2.0 * h[l])
        ddg[l, l] = (gp - 2.0 * g + gm) / (h[l] * h[l])
        for m in range(l):
            ddg[l, m] = ddg[m, l] = (g_at((l, 1), (m, 1)) - g_at((l, 1), (m, -1))
                                     - g_at((l, -1), (m, 1)) + g_at((l, -1), (m, -1))
                                     ) / (4.0 * h[l] * h[m])
    return g, dg, ddg


def connection(model: ManifoldModel) -> tuple[Callable, Callable]:
    """(gamma, dgamma), the model's connection at unvalidated chart points:
    gamma(x)[k, i, j] = Gamma^k_ij and dgamma(x)[l, k, i, j] = d_l Gamma^k_ij.

    Each is the model's own callback where it has one.  Otherwise Gamma
    comes from ``fd_christoffel``, and dGamma is a central difference of
    Gamma on a model that gives Gamma alone, or the Levi-Civita formula on
    one finite-difference stencil of the metric on a metric-only model.
    The choice is made on each call, from the model's fields then, and the
    fallback looks ``fd_christoffel`` up when it runs: a copy of a model
    with other callbacks gets its own."""
    gamma, dgamma = model.christoffel, model.christoffel_deriv
    if gamma is None:
        gamma = lambda x: fd_christoffel(model, x)
        if dgamma is None:
            dgamma = lambda x: christoffel_deriv_from_metric(x, *_metric_stencil(model, x, 1e-4))
    elif dgamma is None:
        dgamma = lambda x: central_difference(gamma, x, 1e-6)
    return gamma, dgamma


def christoffel_eval(model: ManifoldModel, x) -> np.ndarray:
    """Validated Christoffel symbols Gamma^k_ij at a chart point."""
    x = _check_chart(model, x)
    return np.asarray(connection(model)[0](x), dtype=float)


def inner(model: ManifoldModel, x, u, w) -> float:
    """Metric inner product u^T g(x) w."""
    x = _check_chart(model, x)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(u @ np.asarray(model.metric(x), dtype=float) @ w)


def causal_sign(q: float, u: np.ndarray) -> int:
    """1, -1 or 0 as q = g(u, u) is spacelike, timelike or null, judged against
    the chart norm of u; a NaN q counts as null."""
    tol = NULL_TOL * float(u @ u)
    if q > tol:
        return 1
    if q < -tol:
        return -1
    return 0


def causal_class(model: ManifoldModel, x, u) -> str:
    """Classify a tangent vector as spacelike, timelike, or null."""
    u = np.asarray(u, dtype=float)
    sign = causal_sign(inner(model, x, u, u), u)
    return "spacelike" if sign > 0 else "timelike" if sign < 0 else "null"


def auxiliary_riemannian(model: ManifoldModel, V: VectorField) -> ManifoldModel:
    """Riemannian metric h(X,Y) = 2 g(V,X) g(V,Y) + g(X,Y) from a timelike V.

    V is rescaled pointwise to g(V,V) = -1; a non-timelike sample raises
    NotTimelike with the offending point.
    """

    def h_metric(x: np.ndarray) -> np.ndarray:
        g = np.asarray(model.metric(x), dtype=float)
        Vx = np.asarray(V.eval(x), dtype=float)
        q = float(Vx @ g @ Vx)
        if q >= 0.0:
            raise NotTimelike(x, q)
        w = (g @ Vx) / np.sqrt(-q)
        return 2.0 * np.outer(w, w) + g

    return ManifoldModel(
        name=f"{model.name}+aux({V.name})",
        dim=model.dim,
        signature=(1,) * model.dim,
        domain=model.domain,
        metric=h_metric,
        embedding=model.embedding,
        metadata={"auxiliary_of": model.name},
    )


def embedding_point(model: ManifoldModel, x) -> np.ndarray:
    """Point in ambient space if the model embeds; chart coordinates otherwise."""
    x = np.asarray(x, dtype=float)
    if model.embedding is None:
        return x
    return np.asarray(model.embedding(x), dtype=float)


def orthonormal_frame(model: ManifoldModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Frame E with E^T g(x) E = diag(signs); returns (E, signs).

    Columns are ordered spacelike first (+1) then timelike (-1).
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(model.metric(x), dtype=float)
    eig, vec = np.linalg.eigh(g)
    order = np.argsort(-eig)  # positive eigenvalues first
    eig = eig[order]
    vec = vec[:, order]
    if np.abs(eig).min() < DEGENERACY_TOL:
        raise DegenerateMetric(x, float(np.abs(eig).min()))
    E = vec / np.sqrt(np.abs(eig))
    signs = np.sign(eig).astype(int)
    return E, signs
