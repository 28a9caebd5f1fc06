"""Differential of the exponential map via the linearized geodesic equation.

The n columns of d(exp_p)_v are end values of variational solutions seeded
with (dx, dv)(0) = (0, e_i) along the base geodesic; along a ray t -> t*u
the same solution gives d(exp_p)_{t u} = J(t)/t, so one integration covers
the whole ray when scanning for conjugate points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import OdeSolution
from scipy.optimize import brentq

from .errors import DomainEscape, LinearizationFailure, OutOfChart
from .geodesic import IntegratorConfig, Termination, _integrate, chart_margin_fn
from .manifold import (
    ManifoldModel, Tangent, christoffel_deriv_raw, christoffel_raw,
    embedding_point, orthonormal_frame,
)

__all__ = [
    "DifferentialFrame", "ConjugateLocusSample", "VariationalPath",
    "dexp_matrix", "integrate_variational", "first_conjugate_time",
    "conjugate_locus_sample", "normalize_direction", "direction_grid",
    "complement_grid", "component_of_point",
    "SINGULAR_TOL", "VARIATIONAL_BOUND",
]

SINGULAR_TOL = 1e-9
VARIATIONAL_BOUND = 1e12
CLUSTER_RADIUS = 1e-3

_LOCUS_CAVEAT = (
    "sampled evidence only: a finite direction grid cannot distinguish the "
    "conjugate locus from its closure, and flood-fill connectivity of the "
    "sampled complement is not a proof"
)


@dataclass
class DifferentialFrame:
    base: Tangent
    matrix: np.ndarray
    det: float
    min_singular_value: float
    endpoint: np.ndarray          # exp_p(v), from the same integration
    end_velocity: np.ndarray
    path: Optional[VariationalPath] = None  # the integration, if any, behind the frame


@dataclass
class VariationalPath:
    """Base geodesic plus the matrix Jacobi solution J with J(0)=0, J'(0)=I."""

    model: ManifoldModel
    ts: np.ndarray
    sol: OdeSolution
    termination: Termination
    term_time: float

    @property
    def dim(self) -> int:
        return self.model.dim

    def split(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.dim
        y = self.sol(t)
        return y[:n], y[n:2 * n], y[2 * n:2 * n + n * n].reshape(n, n)

    def jacobi_matrix(self, t: float) -> np.ndarray:
        return self.split(t)[2]

    def dexp_at(self, t: float) -> np.ndarray:
        """d(exp_p)_{t v0} along the ray of the initial velocity."""
        if t == 0.0:
            return np.eye(self.dim)
        return self.jacobi_matrix(t) / t

    def ray_det(self, t: float) -> float:
        return float(np.linalg.det(self.dexp_at(t)))


def _variational_rhs(model: ManifoldModel):
    n = model.dim

    def rhs(t: float, y: np.ndarray):
        x = y[:n]
        v = y[n:2 * n]
        J = y[2 * n:2 * n + n * n].reshape(n, n)
        K = y[2 * n + n * n:].reshape(n, n)
        G = christoffel_raw(model, x)
        dG = christoffel_deriv_raw(model, x)
        Gv = G @ v                      # Gv[k, i] = Gamma^k_ij v^j
        acc = -Gv @ v
        dGvv = (dG @ v) @ v             # dGvv[l, k] = d_l Gamma^k_ij v^i v^j
        Kdot = -dGvv.T @ J - 2.0 * Gv @ K
        return np.concatenate([v, acc, K.ravel(), Kdot.ravel()])

    return rhs


def integrate_variational(
    model: ManifoldModel,
    p,
    v,
    t_max: float = 1.0,
    cfg: IntegratorConfig | None = None,
) -> VariationalPath:
    cfg = cfg or IntegratorConfig()
    n = model.dim
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not model.domain.contains(p):
        raise OutOfChart(p)
    y0 = np.concatenate([p, v, np.zeros(n * n), np.eye(n).ravel()])
    base_blow = cfg.blowup_norm

    def blow_fn(y):
        m = base_blow - float(np.max(np.abs(y[:2 * n])))
        var = float(np.max(np.abs(y[2 * n:])))
        return min(m, VARIATIONAL_BOUND - var)

    ts, ys, sol, term, t_term = _integrate(
        _variational_rhs(model), y0, t_max, cfg.rtol, cfg.atol, cfg.max_steps,
        margin_fn=chart_margin_fn(model),
        blowup_fn=blow_fn,
    )
    return VariationalPath(model, ts, sol, term, t_term)


def _wrap_near(model: ManifoldModel, x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Map x, in place, to its periodic representative nearest ref."""
    for idx, per in model.metadata.get("periodic", {}).items():
        x[idx] = ref[idx] + (x[idx] - ref[idx] + 0.5 * per) % per - 0.5 * per
    return x


def _wrap_delta(model: ManifoldModel, delta: np.ndarray) -> np.ndarray:
    """Map a chart difference into the nearest periodic representative."""
    return _wrap_near(model, delta, np.zeros_like(delta))


def _oracle_frame(model: ManifoldModel, p: np.ndarray, v: np.ndarray,
                  base: Tangent) -> DifferentialFrame:
    """Differential frame from the closed-form geodesic map, by central fd.

    Finite differences are taken modulo any periodic chart coordinate, since
    the closed-form chart map may wrap across the seam.  The end velocity is
    J v, because gamma'(1) = d(exp_p)_v(v).
    """
    n = model.dim
    x1 = np.asarray(model.oracle.point(p, v, 1.0), dtype=float)
    J = np.empty((n, n))
    for i in range(n):
        h = 1e-6 * max(1.0, abs(v[i]))
        dv = np.zeros(n); dv[i] = h
        diff = (np.asarray(model.oracle.point(p, v + dv, 1.0))
                - np.asarray(model.oracle.point(p, v - dv, 1.0)))
        J[:, i] = _wrap_delta(model, diff) / (2.0 * h)
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(J))):
        raise LinearizationFailure(1.0, float("inf"))
    svals = np.linalg.svd(J, compute_uv=False)
    return DifferentialFrame(base, J, float(np.linalg.det(J)), float(svals[-1]), x1, J @ v)


def dexp_matrix(
    model: ManifoldModel, p, v, cfg: IntegratorConfig | None = None
) -> DifferentialFrame:
    """d(exp_p)_v in chart bases: columns are time-1 Jacobi fields J_i, J_i'(0)=e_i."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    n = model.dim
    base = Tangent.of(p, v)
    if not np.any(v):
        eye = np.eye(n)
        return DifferentialFrame(base, eye, 1.0, 1.0, p.copy(), v.copy())
    if cfg is not None and cfg.prefer_oracle and model.oracle is not None:
        return _oracle_frame(model, p, v, base)
    var = integrate_variational(model, p, v, t_max=1.0, cfg=cfg)
    if var.termination is not Termination.REACHED_TMAX:
        raise DomainEscape(var.termination, var.term_time)
    x1, v1, J = var.split(1.0)
    svals = np.linalg.svd(J, compute_uv=False)
    return DifferentialFrame(
        base, J, float(np.linalg.det(J)), float(svals[-1]), x1, v1, var
    )


def normalize_direction(model: ManifoldModel, p, u) -> np.ndarray:
    """Unit g-norm for non-null directions; flat-chart unit norm for null ones."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    q = float(u @ np.asarray(model.metric(p), dtype=float) @ u)
    if abs(q) > 1e-12 * float(u @ u):
        return u / np.sqrt(abs(q))
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("zero direction")
    return u / nrm


def _first_zero(var: VariationalPath, t_hi: float, singular_tol: float,
                coarse_step: float) -> Optional[float]:
    """First t in (0, t_hi] where the ray determinant crosses zero or dips below tol."""
    ts = np.arange(coarse_step, t_hi + 0.5 * coarse_step, coarse_step)
    ts = ts[ts <= t_hi]
    if len(ts) == 0:
        return None
    dets = np.array([var.ray_det(t) for t in ts])
    prev_t, prev_d = ts[0] * 1e-3, var.ray_det(ts[0] * 1e-3)
    for t, d in zip(ts, dets):
        if np.sign(d) != np.sign(prev_d) and prev_d != 0.0:
            return float(brentq(var.ray_det, prev_t, t, xtol=1e-8))
        if abs(d) < singular_tol:
            # tangential dip: refine to 1e-6 by local scan for the first sub-tol t
            lo, hi = prev_t, t
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if abs(var.ray_det(mid)) < singular_tol:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-7:
                    break
            return float(hi)
        prev_t, prev_d = t, d
    return None


def _first_conjugate_scan(
    model: ManifoldModel,
    p,
    u,
    t_max: float,
    cfg: IntegratorConfig | None,
    singular_tol: float,
) -> tuple[Optional[float], VariationalPath]:
    u = np.asarray(u, dtype=float)
    var = integrate_variational(model, p, u, t_max=t_max, cfg=cfg)
    t_hi = var.term_time if var.termination is not Termination.REACHED_TMAX else t_max
    coarse = min(2e-2, t_hi / 60.0) if t_hi > 0 else 1e-2
    t_star = _first_zero(var, t_hi, singular_tol, coarse)
    if t_star is not None:
        return t_star, var
    if var.termination is not Termination.REACHED_TMAX:
        raise DomainEscape(var.termination, var.term_time)
    return None, var


def first_conjugate_time(
    model: ManifoldModel,
    p,
    u,
    t_max: float,
    cfg: IntegratorConfig | None = None,
    singular_tol: float = SINGULAR_TOL,
) -> Optional[float]:
    """Smallest t* in (0, t_max] with d(exp_p)_{t* u} singular, or None.

    Raises DomainEscape if the ray leaves the domain before any singularity.
    """
    return _first_conjugate_scan(model, p, u, t_max, cfg, singular_tol)[0]


def direction_grid(model: ManifoldModel, p, count: int, offset: float = 0.5,
                   boost_range: float = 3.0) -> list[dict]:
    """Direction sample at p, stratified by causal class on indefinite models.

    Returns rows {'u': components, 'causal_class': str}.  For surfaces the
    grid is an even angle/boost sweep (offset avoids axis-aligned rays);
    in higher dimension directions are drawn from a seeded generator.
    """
    p = np.asarray(p, dtype=float)
    E, signs = orthonormal_frame(model, p)
    n = model.dim
    rows: list[dict] = []
    if model.is_riemannian:
        if n == 2:
            angles = (np.arange(count) + offset) * 2.0 * np.pi / count
            for a in angles:
                u = np.cos(a) * E[:, 0] + np.sin(a) * E[:, 1]
                rows.append({"u": u, "causal_class": "spacelike"})
        else:
            rng = np.random.default_rng(20240501)
            for _ in range(count):
                z = rng.standard_normal(n)
                u = E @ (z / np.linalg.norm(z))
                rows.append({"u": u, "causal_class": "spacelike"})
        return rows
    # indefinite surface: one boost parameter per causal family
    space_cols = np.flatnonzero(signs == 1)
    time_cols = np.flatnonzero(signs == -1)
    es = E[:, space_cols[0]]
    et = E[:, time_cols[0]]
    per = max(count // 4, 1)
    chis = np.linspace(-boost_range, boost_range, per)
    for chi in chis:
        for sgn in (1.0, -1.0):
            rows.append({
                "u": sgn * (np.cosh(chi) * es + np.sinh(chi) * et),
                "causal_class": "spacelike",
            })
            rows.append({
                "u": sgn * (np.sinh(chi) * es + np.cosh(chi) * et),
                "causal_class": "timelike",
            })
    for su, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        rows.append({
            "u": (su * es + sv * et) / np.sqrt(2.0),
            "causal_class": "null",
        })
    return rows


@dataclass
class ConjugateLocusSample:
    p: np.ndarray
    rays: list[dict]
    clusters: list[np.ndarray]
    diagnostics: dict = field(default_factory=dict)


def _cluster(points: list[np.ndarray], radius: float) -> list[np.ndarray]:
    clusters: list[list[np.ndarray]] = []
    for pt in points:
        for cl in clusters:
            if np.linalg.norm(pt - cl[0]) <= radius:
                cl.append(pt)
                break
        else:
            clusters.append([pt])
    return [np.mean(cl, axis=0) for cl in clusters]


def _locus_rays(model: ManifoldModel, p, grid: list[dict], t_max: float,
                cfg: IntegratorConfig | None) -> tuple[list[dict], list[np.ndarray]]:
    rows = []
    pts = []
    for i, entry in enumerate(grid):
        u = normalize_direction(model, p, entry["u"])
        row = {"index": i, "u": u, "causal_class": entry.get("causal_class", "")}
        try:
            t_star, var = _first_conjugate_scan(model, p, u, t_max, cfg, SINGULAR_TOL)
        except DomainEscape as esc:
            row.update(t_star=None, point=None, status=f"escape:{esc.termination.value}")
        except LinearizationFailure:
            row.update(t_star=None, point=None, status="escape:LinearizationFailure")
        else:
            if t_star is None:
                row.update(t_star=None, point=None, status="none")
            else:
                cp = var.sol(t_star)[: model.dim]
                row.update(t_star=float(t_star), point=cp, status="conjugate")
                pts.append(embedding_point(model, cp))
        rows.append(row)
    return rows, pts


def complement_grid(model: ManifoldModel, p, cluster_pts: list[np.ndarray],
                    grid_n: int = 24, pad: float = 2.0):
    """Chart sample box minus locus balls, flood-filled into labeled components.

    Returns (xs, ys, labels) with labels -1 on blocked cells and component
    ids 0..k elsewhere; None for non-surface models (not sampled).
    """
    if model.dim != 2:
        return None
    p = np.asarray(p, dtype=float)
    lo = np.maximum(p - pad * np.pi, model.domain.lower + 1e-3)
    hi = np.minimum(p + pad * np.pi, model.domain.upper - 1e-3)
    xs = np.linspace(lo[0], hi[0], grid_n)
    ys = np.linspace(lo[1], hi[1], grid_n)
    cell = max(xs[1] - xs[0], ys[1] - ys[0])
    radius = max(CLUSTER_RADIUS, 1.5 * cell)
    labels = np.full((grid_n, grid_n), -1, dtype=int)
    open_mask = np.ones((grid_n, grid_n), dtype=bool)
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            pt = np.array([xv, yv])
            if not model.domain.contains(pt):
                open_mask[i, j] = False
                continue
            emb = embedding_point(model, pt)
            for c in cluster_pts:
                if np.linalg.norm(emb - c) < radius:
                    open_mask[i, j] = False
                    break
    comps = 0
    for i in range(grid_n):
        for j in range(grid_n):
            if not open_mask[i, j] or labels[i, j] >= 0:
                continue
            stack = [(i, j)]
            labels[i, j] = comps
            while stack:
                a, b = stack.pop()
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    a2, b2 = a + da, b + db
                    if 0 <= a2 < grid_n and 0 <= b2 < grid_n \
                            and open_mask[a2, b2] and labels[a2, b2] < 0:
                        labels[a2, b2] = comps
                        stack.append((a2, b2))
            comps += 1
    return xs, ys, labels


def _complement_components(model: ManifoldModel, p,
                           cluster_pts: list[np.ndarray]) -> int:
    grid = complement_grid(model, p, cluster_pts)
    if grid is None:
        return -1
    return int(grid[2].max()) + 1


def component_of_point(model: ManifoldModel, sample: "ConjugateLocusSample",
                       q) -> int | None:
    """Label of the sampled complement component containing q (surfaces only)."""
    grid = complement_grid(model, sample.p, sample.clusters)
    if grid is None:
        return None
    xs, ys, labels = grid
    q = np.asarray(q, dtype=float)
    i = int(np.argmin(np.abs(xs - q[0])))
    j = int(np.argmin(np.abs(ys - q[1])))
    lab = int(labels[i, j])
    return lab if lab >= 0 else None


def conjugate_locus_sample(
    model: ManifoldModel,
    p,
    grid: list[dict] | None = None,
    t_max: float = 2.0 * np.pi,
    cfg: IntegratorConfig | None = None,
    count: int = 64,
    refine: int = 1,
) -> ConjugateLocusSample:
    """Per-direction first conjugate times plus sampled weak-Wiedersehen diagnostics."""
    p = np.asarray(p, dtype=float)
    if cfg is None:
        # t* is only needed to ~1e-6; the default shooting tolerance is overkill
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    if grid is None:
        grid = direction_grid(model, p, count)
    rows, pts = _locus_rays(model, p, grid, t_max, cfg)
    clusters = _cluster(pts, CLUSTER_RADIUS)
    diagnostics = {"caveat": _LOCUS_CAVEAT}
    if refine > 0:
        fine = direction_grid(model, p, len(grid) * (2 ** refine))
        _, fine_pts = _locus_rays(model, p, fine, t_max, cfg)
        fine_clusters = _cluster(fine_pts, CLUSTER_RADIUS)
        diagnostics["cluster_count"] = len(clusters)
        diagnostics["refined_cluster_count"] = len(fine_clusters)
        diagnostics["cluster_count_stable"] = len(fine_clusters) == len(clusters)
    diagnostics["complement_components"] = _complement_components(model, p, clusters)
    return ConjugateLocusSample(p, rows, clusters, diagnostics)
