"""Differential of the exponential map via the linearized geodesic equation.

The n columns of d(exp_p)_v are end values of variational solutions seeded
with (dx, dv)(0) = (0, e_i) along the base geodesic; along a ray t -> t*u
the same solution gives d(exp_p)_{t u} = J(t)/t, so one integration covers
the whole ray when scanning for conjugate points.  The scan watches
det(J(t)/t) as a terminal monitor of that integration, beside the chart
margin and the blow-up of (x, v) that end every ray (``ray_monitors``), so it
stops at the first conjugate point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainEscape, LinearizationFailure
from .geodesic import (
    GeodesicPath, IntegratorConfig, Monitor, Termination, _brent, _integrate, _NormRecords,
    _straight, ray_monitors,
)
from .manifold import (
    ManifoldModel, causal_sign, central_difference, check_tangent, connection,
    embedding_point, orthonormal_frame,
)

__all__ = [
    "DifferentialFrame", "ConjugateLocusSample", "VariationalPath",
    "dexp_matrix", "integrate_variational", "first_conjugate_time",
    "conjugate_locus_sample", "normalize_direction", "direction_grid",
    "complement_grid", "component_of_point",
    "SINGULAR_TOL", "BLOW_UP_AGREEMENT",
]

SINGULAR_TOL = 1e-9
BLOW_UP_AGREEMENT = 1e-5    # two consecutive blow-up time estimates from the chart
                            # position's doubling times that agree to this relative
                            # tolerance end a variational path with BLOW_UP
BLOW_UP_START = 8.0         # first doubling level of |x|_inf, or twice |x(0)|_inf
CLUSTER_RADIUS = 1e-3
DIRECTION_OFFSET = 0.5      # surface direction grid: angle offset, in grid spacings
BOOST_RANGE = 3.0           # indefinite direction grid: largest |boost parameter|
COMPLEMENT_GRID_N = 24      # complement sample: cells per chart axis
COMPLEMENT_PAD = 2.0        # complement sample: half-width around p, in units of pi

_LOCUS_CAVEAT = (
    "sampled evidence only: a finite direction grid cannot distinguish the "
    "conjugate locus from its closure, and flood-fill connectivity of the "
    "sampled complement is not a proof"
)


@dataclass
class DifferentialFrame:
    """d(exp_p)_v with its smallest singular value, exp_p(v) and its ray.

    ``ray(t)`` is d(exp_p)_{tv} for t in (0, 1], and ``ray(1.0)`` is
    ``matrix``; a 1-D array of k times gives a (k, n, n) stack, one dense
    output call for a variational frame.  ``dexp_matrix`` computes all four
    from one integration (or one oracle stencil).  A frame returned by the
    connector's Newton solve is different: its ``matrix``, singular value
    and ``ray`` belong to the last frame Newton computed, which may lie at an
    earlier iterate and come from the coarse integrator, while its
    ``endpoint`` is exp_p(v) at the returned v.
    """
    matrix: np.ndarray
    min_singular_value: float
    endpoint: np.ndarray
    ray: Callable[[float | np.ndarray], np.ndarray]


@dataclass
class VariationalPath(GeodesicPath):
    """Base geodesic plus the matrix Jacobi solution J with J(0)=0, J'(0)=I; each
    state is (x, v, J, J') with J and J' flattened row-major.  ``witness`` holds
    the growth records of a BlowUp read off the position's growth law (see
    ``integrate_variational``), None for any other ending."""

    witness: Optional[dict] = None

    def split(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.dim
        y = self.sol(t)
        return y[:n], y[n:2 * n], y[2 * n:2 * n + n * n].reshape(n, n)

    def dexp_at(self, t: float | np.ndarray) -> np.ndarray:
        """d(exp_p)_{t v0} along the ray of the initial velocity: (n, n) for a
        scalar t, a (k, n, n) stack for a 1-D array of k times in (0, t_max],
        (0, n, n) for an empty one."""
        n = self.dim
        if np.ndim(t):
            ts = np.asarray(t, dtype=float)
            return self.sol(ts)[2 * n:2 * n + n * n].T.reshape(-1, n, n) / ts[:, None, None]
        if t == 0.0:
            return np.eye(n)
        return self.split(t)[2] / t


def _variational_rhs(model: ManifoldModel):
    """(x, v, J, J')' = (v, -Gv v, J', -dGvv^T J - 2 Gv J') with Gv = Gamma v and
    dGvv = dGamma v v; Gamma and dGamma are read from ``connection`` once, here.  The
    contractions are 2-D products over flattened leading axes, bitwise equal
    to the stacked ``@`` forms; ``ndarray.dot`` on the 3-D and 4-D arrays
    themselves can differ from them in the last bit."""
    n = model.dim
    nn = n * n
    christoffel, christoffel_deriv = connection(model)

    def rhs(t: float, y: np.ndarray):
        x = y[:n]
        v = y[n:2 * n]
        J = y[2 * n:2 * n + nn].reshape(n, n)
        K = y[2 * n + nn:]                 # J', flattened
        G = np.asarray(christoffel(x), dtype=float)
        dG = np.asarray(christoffel_deriv(x), dtype=float)
        Gv = G.reshape(nn, n).dot(v).reshape(n, n)      # Gv[k, i] = Gamma^k_ij v^j
        # dGvv[l, k] = d_l Gamma^k_ij v^i v^j
        dGvv = dG.reshape(nn * n, n).dot(v).reshape(nn, n).dot(v).reshape(n, n)
        Kdot = (-dGvv.T).dot(J) - (2.0 * Gv).dot(K.reshape(n, n))
        return np.concatenate((v, (-Gv).dot(v), K, Kdot.ravel()))

    return rhs


def _conjugate_monitor(n: int, singular_tol: float) -> Monitor:
    """det(J(t)/t) - singular_tol; 1 - singular_tol for t <= 0, since J(t)/t -> I
    at t = 0 and a conjugate point counts only in (0, t_max]."""
    def monitor(t: float, y: np.ndarray) -> float:
        if t <= 0.0:
            return 1.0 - singular_tol
        J = y[2 * n:2 * n + n * n].reshape(n, n)
        return float(np.linalg.det(J / t)) - singular_tol

    return monitor


class _BlowUpWatch:
    """Step-end stop hook that ends a variational integration with BLOW_UP once
    the chart position's growth law fixes a finite blow-up time.

    The time at which |x|_inf first reaches each level L, 2L, 4L, ... is
    located on the step's interpolant by Brent, L = max(BLOW_UP_START,
    2 |x(0)|_inf).  The last three record times, with gaps g1, g2 and ratio
    r = g2 / g1, estimate the blow-up time as the geometric tail
    T = t + g2 r / (1 - r); a ratio outside (0, 1) clears the estimates.  Two
    consecutive estimates that agree to BLOW_UP_AGREEMENT, with T at most the
    horizon, end the path, and ``witness`` then holds the records, r and T.
    Times are in the integrator's stepping variable s = |t| until reported.
    """

    def __init__(self, n: int, x0: np.ndarray, t_max: float):
        self.n = n
        self.sign = math.copysign(1.0, t_max)
        self.horizon = abs(t_max)
        self.records = _NormRecords(max(BLOW_UP_START, 2.0 * float(np.abs(x0).max())))
        self.estimate: Optional[float] = None
        self.witness: Optional[dict] = None

    def __call__(self, s_old: float, s: float, y: np.ndarray,
                 segment: Callable) -> Optional[Termination]:
        n = self.n
        records = self.records
        x_norm = lambda z: max(map(abs, z[:n].tolist()))   # cheaper than np.abs at small n
        norm = x_norm(y)
        lo = s_old      # |x| is below the next level here: the step start or the last crossing
        while norm >= records.level and math.isfinite(norm):
            level = records.level
            # at s, |x| is read off the accepted state, which is at or above the level
            lo = _brent(lambda u: level - (norm if u == s else x_norm(segment(u))),
                        lo, s, xtol=1e-12, rtol=8.9e-16)
            records.add(lo, level)
            gaps = records.gaps(2)
            if gaps is None:
                continue
            g1, g2 = gaps
            r = g2 / g1 if g1 > 0.0 else 0.0
            if not 0.0 < r < 1.0:
                self.estimate = None
                continue
            bound = lo + g2 * r / (1.0 - r)
            last, self.estimate = self.estimate, bound
            if (last is not None and abs(bound - last) <= BLOW_UP_AGREEMENT * bound
                    and bound <= self.horizon):
                self.witness = {
                    "norm_records": [{"t": self.sign * t, "norm": x}
                                     for t, x in records.records],
                    "gap_ratio": r,
                    "blow_up_bound": self.sign * bound,
                }
                return Termination.BLOW_UP
        return None


def integrate_variational(
    model: ManifoldModel,
    p,
    v,
    t_max: float = 1.0,
    cfg: IntegratorConfig | None = None,
    *,
    singular_tol: float | None = None,
) -> VariationalPath:
    """Base geodesic and Jacobi matrix J along the ray of v.  With ``singular_tol``
    it ends with CONJUGATE_POINT where det(J(t)/t) first falls to it in (0, t_max].

    It ends as ``integrate_geodesic`` does, with the same monitors: CHART_EXIT
    at the located zero of the chart margin, or at the last accepted state
    when the steps underflow within the integrator's error scale of the chart
    edge (J' diverges there on the polar chart); BlowUp where |(x, v)|_inf
    reaches ``IntegratorConfig.blowup_norm``.  J and J' are not bounded: near
    a chart edge they may grow without limit along a complete geodesic.  The
    growth law of the chart position |x|_inf ends it BlowUp earlier, at the
    accepted step where the blow-up time estimated from the times of its
    doublings settles (``_BlowUpWatch``): then ``term_time`` is ``ts[-1]``,
    every state is an integrated one, and ``witness`` holds the
    ``norm_records`` (t, norm) at each doubling, the last ``gap_ratio`` and
    the ``blow_up_bound`` T.  A monitor zero inside that step still wins.

    At v = 0 the path is the exact x = p, J = t I and J' = I of ``_straight``,
    ending REACHED_TMAX as ``integrate_geodesic``'s stationary path does.
    """
    cfg = cfg or IntegratorConfig()
    n = model.dim
    p, v = check_tangent(model, p, v)
    y0 = np.concatenate([p, v, np.zeros(n * n), np.eye(n).ravel()])
    if not np.any(v):
        slope = np.concatenate([np.zeros(2 * n), np.eye(n).ravel(), np.zeros(n * n)])
        ts, ys, sol = _straight(y0, slope, t_max)
        return VariationalPath(model, ts, ys, Termination.REACHED_TMAX, float(t_max), sol)
    monitors = ray_monitors(model)
    if singular_tol is not None:
        monitors.append((_conjugate_monitor(n, singular_tol), Termination.CONJUGATE_POINT))
    watch = _BlowUpWatch(n, p, t_max)
    ts, ys, sol, term, t_term, rejected = _integrate(
        _variational_rhs(model), y0, t_max, cfg.rtol, cfg.atol, cfg.max_steps, monitors,
        watch)
    return VariationalPath(model, ts, ys, term, t_term, sol, rejected, watch.witness)


def _wrap_near(model: ManifoldModel, x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Map x, in place, to its periodic representative nearest ref.  Only a
    coordinate outside [-per/2, per/2) about ref is rewritten: the modulo
    would move one inside by an ulp."""
    for idx, per in model.metadata.get("periodic", {}).items():
        d = x[idx] - ref[idx]
        if not -0.5 * per <= d < 0.5 * per:
            x[idx] = ref[idx] + (d + 0.5 * per) % per - 0.5 * per
    return x


def _wrap_delta(model: ManifoldModel, delta: np.ndarray) -> np.ndarray:
    """Map a chart difference, in place, into the nearest periodic representative.
    This is ``_wrap_near`` about 0 with the zeros left out: adding or subtracting
    0.0 there changes no bit of the result."""
    for idx, per in model.metadata.get("periodic", {}).items():
        if not -0.5 * per <= delta[idx] < 0.5 * per:
            delta[idx] = (delta[idx] + 0.5 * per) % per - 0.5 * per
    return delta


def _frame(J: np.ndarray, x1: np.ndarray,
           ray: Callable[[float], np.ndarray]) -> DifferentialFrame:
    svals = np.linalg.svd(J, compute_uv=False)
    return DifferentialFrame(J, float(svals[-1]), x1, ray)


def _oracle_dexp(model: ManifoldModel, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d(exp_p)_w from the closed-form geodesic map by central differences, taken
    modulo any periodic chart coordinate: the chart map may wrap across the seam."""
    J = central_difference(lambda x: model.oracle.point(p, x, 1.0), w, 1e-6,
                           partial(_wrap_delta, model)).T
    if not np.isfinite(J).all():
        raise LinearizationFailure(1.0, float("inf"))
    return np.ascontiguousarray(J)


def _per_sample(ray: Callable[[float], np.ndarray], n: int) -> Callable:
    """A scalar ray of (n, n) matrices that also takes a 1-D array of times,
    one call per time; an empty array gives a (0, n, n) stack."""
    def stacked(t):
        if not np.ndim(t):
            return ray(t)
        return np.stack([ray(s) for s in t]) if len(t) else np.empty((0, n, n))

    return stacked


def _oracle_frame(model: ManifoldModel, p: np.ndarray, v: np.ndarray) -> DifferentialFrame:
    """Differential frame from the closed-form geodesic map."""
    p, v = p.copy(), v.copy()     # the ray outlives the caller's arrays
    x1 = np.asarray(model.oracle.point(p, v, 1.0), dtype=float)
    J = _oracle_dexp(model, p, v)
    if not np.isfinite(x1).all():
        raise LinearizationFailure(1.0, float("inf"))
    return _frame(J, x1, _per_sample(lambda t: _oracle_dexp(model, p, t * v), model.dim))


def dexp_matrix(
    model: ManifoldModel, p, v, cfg: IntegratorConfig | None = None
) -> DifferentialFrame:
    """d(exp_p)_v in chart bases: columns are time-1 Jacobi fields J_i, J_i'(0)=e_i.
    The ray is the variational J(t)/t, or the oracle's; at v = 0 it is read off
    the stationary variational path, where J(t)/t is the identity exactly."""
    p, v = check_tangent(model, p, v)
    if cfg is not None and cfg.prefer_oracle and model.oracle is not None and np.any(v):
        return _oracle_frame(model, p, v)
    var = integrate_variational(model, p, v, t_max=1.0, cfg=cfg)
    if var.termination is not Termination.REACHED_TMAX:
        raise DomainEscape(var.termination, var.term_time, var.witness)
    x1, _, J = var.split(1.0)
    return _frame(J, x1, var.dexp_at)


def normalize_direction(model: ManifoldModel, p, u) -> np.ndarray:
    """Unit g-norm for non-null directions; flat-chart unit norm for null ones."""
    p, u = check_tangent(model, p, u)
    q = float(u @ np.asarray(model.metric(p), dtype=float) @ u)
    if causal_sign(q, u):
        return u / np.sqrt(abs(q))
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("zero direction")
    return u / nrm


def _first_conjugate_scan(
    model: ManifoldModel,
    p,
    u,
    t_max: float,
    cfg: IntegratorConfig | None,
) -> tuple[Optional[float], VariationalPath]:
    """(t* or None, the variational path); the path ends at a found t*."""
    var = integrate_variational(model, p, u, t_max=t_max, cfg=cfg,
                                singular_tol=SINGULAR_TOL)
    if var.termination is Termination.CONJUGATE_POINT:
        return var.term_time, var
    if var.termination is not Termination.REACHED_TMAX:
        raise DomainEscape(var.termination, var.term_time, var.witness)
    return None, var


def first_conjugate_time(
    model: ManifoldModel,
    p,
    u,
    t_max: float,
    cfg: IntegratorConfig | None = None,
) -> Optional[float]:
    """Smallest t* in (0, t_max] with det d(exp_p)_{t* u} <= SINGULAR_TOL, or None.

    One variational integration watches det(J(t)/t) - SINGULAR_TOL at each
    step end and stops at its first zero on that step's interpolant.  A sign
    change is always found, a dip only if it reaches a step end, so an even
    multiplicity, where det keeps its sign, can be missed.  Raises
    DomainEscape if the ray ends ChartExit or BlowUp before any singularity
    (see ``integrate_variational``); a blow-up read off the position's growth
    law carries its ``witness``.  A ray that passes near a chart edge without
    reaching it is scanned through while its chart velocity stays below
    ``IntegratorConfig.blowup_norm``: a great circle grazing the polar
    chart's pole at 1e-8 is, one at 1e-9 ends BlowUp.  For t_max <= 0 the
    interval is empty and the answer is None, without integrating.
    """
    if t_max <= 0.0:
        check_tangent(model, p, u)
        return None
    return _first_conjugate_scan(model, p, u, t_max, cfg)[0]


def _sweep_directions(E: np.ndarray, count: int, offset: float) -> np.ndarray:
    """(count, n) even sweep cos(a) E[:, 0] + sin(a) E[:, 1], a = (k + offset) 2 pi / count."""
    a = (np.arange(count) + offset) * 2.0 * np.pi / count
    return np.cos(a)[:, None] * E[:, 0] + np.sin(a)[:, None] * E[:, 1]


def _seeded_directions(E: np.ndarray, count: int, seed: int) -> np.ndarray:
    """(count, n) directions E z / |z|, z standard normal from ``default_rng(seed)``."""
    zs = np.random.default_rng(seed).standard_normal((max(count, 0), E.shape[1]))
    return np.array([E @ (z / np.linalg.norm(z)) for z in zs]).reshape(-1, E.shape[0])


def _boost(es: np.ndarray, et: np.ndarray, chi: float, timelike: bool = False) -> np.ndarray:
    """Unit boost of (es, et) by chi: spacelike cosh es + sinh et, timelike sinh es + cosh et."""
    if timelike:
        return np.sinh(chi) * es + np.cosh(chi) * et
    return np.cosh(chi) * es + np.sinh(chi) * et


def direction_grid(model: ManifoldModel, p, count: int) -> list[dict]:
    """Direction sample at p, stratified by causal class on indefinite models.

    Returns rows {'u': components, 'causal_class': str}.  For surfaces the
    grid is an even angle/boost sweep (DIRECTION_OFFSET avoids axis-aligned
    rays); in higher dimension directions are drawn from a seeded generator.
    """
    p = np.asarray(p, dtype=float)
    E, signs = orthonormal_frame(model, p)
    if model.is_riemannian:
        us = (_sweep_directions(E, count, DIRECTION_OFFSET) if model.dim == 2
              else _seeded_directions(E, count, 20240501))
        return [{"u": u, "causal_class": "spacelike"} for u in us]
    # indefinite surface: one boost parameter per causal family
    es = E[:, np.flatnonzero(signs == 1)[0]]
    et = E[:, np.flatnonzero(signs == -1)[0]]
    rows: list[dict] = []
    for chi in np.linspace(-BOOST_RANGE, BOOST_RANGE, max(count // 4, 1)):
        for sgn in (1.0, -1.0):
            rows.append({"u": sgn * _boost(es, et, chi), "causal_class": "spacelike"})
            rows.append({"u": sgn * _boost(es, et, chi, timelike=True),
                         "causal_class": "timelike"})
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
    complement: Optional[tuple]   # complement_grid(p, clusters): (xs, ys, labels) or None
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
            t_star, var = _first_conjugate_scan(model, p, u, t_max, cfg)
        except DomainEscape as esc:
            row.update(t_star=None, point=None, status=f"escape:{esc.termination.value}")
        else:
            if t_star is None:
                row.update(t_star=None, point=None, status="none")
            else:
                cp = var.endpoint
                row.update(t_star=float(t_star), point=cp, status="conjugate")
                pts.append(embedding_point(model, cp))
        rows.append(row)
    return rows, pts


def complement_grid(model: ManifoldModel, p, cluster_pts: list[np.ndarray]):
    """Chart sample box minus locus balls, flood-filled into labeled components.

    Returns (xs, ys, labels) with labels -1 on blocked cells and component
    ids 0..k elsewhere; None for non-surface models (not sampled).
    """
    if model.dim != 2:
        return None
    p = np.asarray(p, dtype=float)
    grid_n = COMPLEMENT_GRID_N
    lo = np.maximum(p - COMPLEMENT_PAD * np.pi, model.domain.lower + 1e-3)
    hi = np.minimum(p + COMPLEMENT_PAD * np.pi, model.domain.upper - 1e-3)
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


def component_of_point(sample: "ConjugateLocusSample", q) -> int | None:
    """Label of the sampled complement component containing q (surfaces only)."""
    if sample.complement is None:
        return None
    xs, ys, labels = sample.complement
    q = np.asarray(q, dtype=float)
    i = int(np.argmin(np.abs(xs - q[0])))
    j = int(np.argmin(np.abs(ys - q[1])))
    lab = int(labels[i, j])
    return lab if lab >= 0 else None


def conjugate_locus_sample(
    model: ManifoldModel,
    p,
    t_max: float = 2.0 * np.pi,
    cfg: IntegratorConfig | None = None,
    count: int = 64,
    refine: int = 1,
) -> ConjugateLocusSample:
    """Per-direction first conjugate times plus sampled weak-Wiedersehen diagnostics."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    p = np.asarray(p, dtype=float)
    if cfg is None:
        # t* is only needed to ~1e-6; the default shooting tolerance is overkill
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
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
    complement = complement_grid(model, p, clusters)
    diagnostics["complement_components"] = (
        -1 if complement is None else int(complement[2].max()) + 1)
    return ConjugateLocusSample(p, rows, clusters, complement, diagnostics)
