"""Two-point geodesic connection by lifting a target path through exp_p.

The connector solves exp_p(v) = q by continuation: a target path sigma from
a nearby regular start to q is tracked in the tangent space by a predictor
step through the inverse differential of exp_p plus a Newton corrector.
Failures are typed, never raised: a singular differential (conjugate hit,
with detour retries), unbounded lift norm (escape witness), leaving the
maximal domain, or step underflow.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainEscape, LinearizationFailure, NoConvergence, StepSizeUnderflow
from .geodesic import IntegratorConfig, Termination, integrate_geodesic
from .jacobi import (
    ConjugateLocusSample, DifferentialFrame, _wrap_delta, _wrap_near, component_of_point,
    dexp_matrix, integrate_variational,
)
from .manifold import ManifoldModel, VectorField, auxiliary_riemannian, causal_class, orthonormal_frame

__all__ = [
    "ConnectConfig", "TargetPath", "LiftOutcome",
    "local_log", "connect", "connect_report", "render_report",
]


CORRECTOR_TOL = 1e-9      # residual a lift corrector accepts
NEWTON_ITERATIONS = 8     # corrector iteration budget
FAR_RESIDUAL = 1e-5       # above it Newton steps must contract; local_log integrates coarsely
SV_FLOOR = 1e-6           # smallest singular value of a regular differential
ESCAPE_FACTOR = 1e4       # lift escape bound, in target path lengths
MAX_LIFT_STEPS = 400
MAX_RETRIES = 8           # detours after a conjugate hit
BUMP_FRACTION = 0.05      # detour amplitude, in target path lengths
RAY_SAMPLES = 32          # dexp samples along the fast path's ray


@dataclass(frozen=True)
class ConnectConfig:
    connect_tol: float = 1e-6
    path_kind: str = "segment"       # 'segment' | 'aux'
    integrator: IntegratorConfig = field(
        # step cap keeps runaway correction geodesics from stalling the lift;
        # the final residual is re-checked against connect_tol regardless
        default_factory=lambda: IntegratorConfig(rtol=1e-8, atol=1e-10, max_steps=4000)
    )


@dataclass
class TargetPath:
    point: Callable[[float], np.ndarray]
    deriv: Callable[[float], np.ndarray]
    length: float
    provenance: str  # 'ChartSegment' | 'AuxGeodesic' | 'UserPolyline'


@dataclass
class LiftOutcome:
    status: str  # Connected | ConjugateHit | EscapeWitness | DomainExit | Stalled
    v: Optional[np.ndarray]
    lift_trace: list[dict]
    witness: dict = field(default_factory=dict)

    @property
    def connected(self) -> bool:
        return self.status == "Connected"


def _newton(model: ManifoldModel, p: np.ndarray, v: np.ndarray, target: np.ndarray,
            fine: IntegratorConfig, coarse: IntegratorConfig, tol: float,
            max_iter: int, vcap: float, sv_floor: float = 0.0):
    """Full-step Newton on exp_p(v) = target, for local_log and the lift's corrector.

    Returns (flag, v, frame, residual, iterations), flag one of 'ok' (frame
    is d(exp_p)_v on ``fine``, residual below ``tol``), 'conjugate' (frame
    singular or below ``sv_floor``), 'escape' (frame is the DomainEscape) or
    'fail'.  While the residual is at or above FAR_RESIDUAL, iterates are
    integrated on ``coarse``, and the iteration fails at the first step whose
    simplified correction J_k^{-1} F(v_{k+1}) is not shorter than Delta v_k
    (Deuflhard's natural monotonicity test, *Newton Methods for Nonlinear
    Problems*, 2004).  It also fails on an iterate that is not finite or
    exceeds ``vcap``, on a differential that cannot be evaluated, and after
    ``max_iter`` steps.
    """
    frame = None
    residual = np.inf
    step = None  # (J_k, |Delta v_k|) of the last step taken from a far residual
    for it in range(max_iter):
        if not np.linalg.norm(v) <= vcap:  # also catches inf and nan
            return "fail", v, frame, residual, it
        far = residual >= FAR_RESIDUAL
        ic = coarse if far else fine
        try:
            frame = dexp_matrix(model, p, v, ic)
        except DomainEscape as esc:
            return "escape", v, esc, residual, it
        except (LinearizationFailure, StepSizeUnderflow):
            return "fail", v, None, residual, it
        r = _wrap_delta(model, frame.endpoint - target)
        residual = float(np.linalg.norm(r))
        if residual < tol and ic is fine:
            return "ok", v, frame, residual, it
        if step is not None and far and residual >= FAR_RESIDUAL:
            J_prev, dv_prev = step
            if np.linalg.norm(np.linalg.solve(J_prev, r)) >= dv_prev:
                return "fail", v, frame, residual, it
        if frame.min_singular_value < sv_floor:
            return "conjugate", v, frame, residual, it
        try:
            dv = np.linalg.solve(frame.matrix, r)
        except np.linalg.LinAlgError:
            return "conjugate", v, frame, residual, it
        step = (frame.matrix, float(np.linalg.norm(dv))) if far else None
        v = v - dv
    return "fail", v, frame, residual, max_iter


def _log_newton(model: ManifoldModel, p: np.ndarray, target: np.ndarray,
                cfg: ConnectConfig, tol: float = 1e-10, max_iter: int = 50):
    """local_log's Newton solve, returning the ``_newton`` tuple."""
    v = target - p
    # far from the root a cheap integration is enough to steer Newton
    coarse = cfg.integrator.with_(rtol=max(cfg.integrator.rtol, 1e-6),
                                  atol=max(cfg.integrator.atol, 1e-8))
    return _newton(model, p, v, target, cfg.integrator, coarse, tol, max_iter,
                   vcap=100.0 * (1.0 + np.linalg.norm(v)))


def local_log(
    model: ManifoldModel,
    p,
    target,
    cfg: ConnectConfig | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> np.ndarray:
    """Invert exp_p near p by full-step Newton iteration seeded at the chart difference.

    The iteration and its stopping rule are those of the lift's corrector:
    while the residual is above 1e-5, it stops at the first step whose
    simplified correction J_k^{-1} F(v_{k+1}) is not shorter than the step
    Delta v_k just taken (Deuflhard's natural monotonicity test).  Here that
    phase runs on a coarse integrator, and iterates are capped at
    100 * (1 + |v0|).  It also stops when exp_p or its differential cannot
    be evaluated, or after ``max_iter`` iterations.

    Raises NoConvergence in each of these cases.  That means q is not
    reachable by full-step Newton from the chart-difference seed, not that
    q is unreachable from p: ``connect`` then falls back to path lifting.
    """
    flag, v, _, residual, it = _log_newton(
        model, np.asarray(p, dtype=float), np.asarray(target, dtype=float),
        cfg or ConnectConfig(), tol, max_iter)
    if flag != "ok":
        raise NoConvergence(it, residual)
    return v


def _segment_path(p: np.ndarray, q: np.ndarray) -> TargetPath:
    delta = q - p
    length = float(np.linalg.norm(delta))
    direction = delta / length

    return TargetPath(
        point=lambda t: p + t * direction,
        deriv=lambda t: direction,
        length=length,
        provenance="ChartSegment",
    )


def _default_timelike_field(model: ManifoldModel) -> VectorField:
    def eval_v(x: np.ndarray) -> np.ndarray:
        E, signs = orthonormal_frame(model, x)
        col = E[:, np.flatnonzero(signs == -1)[0]]
        # fix the eigenvector sign for continuity across evaluations
        k = int(np.argmax(np.abs(col)))
        return col if col[k] > 0 else -col
    return VectorField(eval_v, name="frame-timelike")


def _aux_path(model: ManifoldModel, p: np.ndarray, q: np.ndarray,
              cfg: ConnectConfig) -> TargetPath:
    """Geodesic of an auxiliary complete Riemannian metric from p to q."""
    if model.is_riemannian:
        # flat chart metric: its geodesics are chart segments
        return replace(_segment_path(p, q), provenance="AuxGeodesic")
    aux = auxiliary_riemannian(model, _default_timelike_field(model))
    sub = replace(cfg, path_kind="segment")
    outcome = connect(aux, p, q, sub)
    if not outcome.connected:
        # fall back to the chart segment rather than failing outright
        return _segment_path(p, q)
    path = integrate_geodesic(aux, p, outcome.v, sub.integrator, t_max=1.0)
    return TargetPath(
        point=lambda t: path.point(min(max(t, 0.0), 1.0)),
        deriv=lambda t: path.velocity(min(max(t, 0.0), 1.0)),
        length=1.0,
        provenance="AuxGeodesic",
    )


def _bumped_path(base: TargetPath, p: np.ndarray, q: np.ndarray, k: int,
                 bump_fraction: float) -> TargetPath:
    """Detour k: sinusoidal bump transverse to the chord, rotated/scaled per retry."""
    n = len(p)
    chord = q - p
    chord = chord / np.linalg.norm(chord)
    basis = np.linalg.qr(np.column_stack([chord, np.eye(n)]))[0][:, 1:n]
    if n >= 3:
        ang = 2.0 * np.pi * k / 8.0
        d = np.cos(ang) * basis[:, 0] + np.sin(ang) * basis[:, 1]
        scale = 1.0 + (k // 8)
    else:
        d = basis[:, 0] * (1.0 if k % 2 == 0 else -1.0)
        scale = 1.0 + (k // 2)
    ell = base.length
    delta = bump_fraction * ell * scale

    def pt(t: float) -> np.ndarray:
        return base.point(t) + delta * np.sin(np.pi * t / ell) * d

    def dv(t: float) -> np.ndarray:
        return base.deriv(t) + delta * (np.pi / ell) * np.cos(np.pi * t / ell) * d

    return TargetPath(pt, dv, ell, base.provenance)


def _lift(model: ManifoldModel, p: np.ndarray, q: np.ndarray, sigma: TargetPath,
          cfg: ConnectConfig) -> LiftOutcome:
    ell = sigma.length
    escape_bound = ESCAPE_FACTOR * ell
    t = 0.0
    v = np.zeros_like(p)
    dt = ell / 16.0
    dt_min = ell * 1e-7
    trace: list[dict] = []
    frame = dexp_matrix(model, p, v, cfg.integrator)  # the identity at v = 0
    steps = 0
    fails = 0
    while t < ell:
        if steps >= MAX_LIFT_STEPS:
            return LiftOutcome("Stalled", None, trace,
                               {"reason": "max lift steps", "t": t})
        steps += 1
        dt = min(dt, ell - t)
        target = sigma.point(t + dt)
        try:
            dv = np.linalg.solve(frame.matrix,
                                 -_wrap_delta(model, frame.endpoint - target))
        except np.linalg.LinAlgError:
            return LiftOutcome("ConjugateHit", None, trace,
                               {"t_hit": t, "min_singular_value": frame.min_singular_value})
        flag, v_new, frame_new, res, _ = _newton(
            model, p, v + dv, target, cfg.integrator, cfg.integrator, CORRECTOR_TOL,
            NEWTON_ITERATIONS, vcap=2.0 * escape_bound, sv_floor=SV_FLOOR)
        if flag == "escape":
            return LiftOutcome("DomainExit", None, trace, {
                "t": frame_new.t, "termination": frame_new.termination.value})
        if flag == "conjugate":
            return LiftOutcome("ConjugateHit", None, trace, {
                "t_hit": t + dt,
                "v_at_hit": v_new.tolist(),
                "min_singular_value": frame_new.min_singular_value,
            })
        if flag == "fail":
            dt *= 0.5
            fails += 1
            if dt < dt_min or fails > 12:
                return LiftOutcome("Stalled", None, trace,
                                   {"reason": "corrector step underflow", "t": t})
            continue
        fails = 0
        t += dt
        v = v_new
        frame = frame_new
        trace.append({
            "t": t,
            "v": v.tolist(),
            "residual": res,
            "min_singular_value": frame.min_singular_value,
        })
        if float(np.linalg.norm(v)) > escape_bound:
            norms = [float(np.linalg.norm(row["v"])) for row in trace]
            return LiftOutcome("EscapeWitness", None, trace, {
                "escape_bound": escape_bound,
                "lift_norms": norms,
                "residuals": [row["residual"] for row in trace],
            })
        dt = min(dt * 1.4, ell / 8.0)
    # sigma ends at q only up to its own accuracy: check q against the
    # endpoint of the last accepted frame
    residual = float(np.linalg.norm(_wrap_delta(model, frame.endpoint - q)))
    if residual > cfg.connect_tol:
        return LiftOutcome("Stalled", None, trace,
                           {"reason": "final residual above connect_tol",
                            "residual": residual})
    return LiftOutcome("Connected", v, trace, {})


def _ray_is_regular(model: ManifoldModel, frame: DifferentialFrame,
                    cfg: ConnectConfig) -> bool:
    """Check min singular value of dexp along the straight ray to the frame's v,
    reusing the frame's own variational integration when it has one."""
    v = frame.base.vec_array
    if not np.any(v):
        return True
    var = frame.path
    if var is None:
        try:
            var = integrate_variational(model, frame.base.base_array, v, t_max=1.0,
                                        cfg=cfg.integrator)
        except (LinearizationFailure, StepSizeUnderflow):
            return False
    if var.termination is not Termination.REACHED_TMAX:
        return False
    prev_det = 1.0
    for t in np.linspace(1.0 / RAY_SAMPLES, 1.0, RAY_SAMPLES):
        J = var.dexp_at(t)
        det = float(np.linalg.det(J))
        # a determinant sign flip between samples means a singularity was
        # crossed even if no sample landed inside the (narrow) sv dip
        if det * prev_det < 0.0:
            return False
        if np.linalg.svd(J, compute_uv=False)[-1] < SV_FLOOR:
            return False
        prev_det = det
    return True


def connect(model: ManifoldModel, p, q, cfg: ConnectConfig | None = None) -> LiftOutcome:
    """Find v with exp_p(v) = q by path lifting; typed failure otherwise."""
    cfg = cfg or ConnectConfig()
    p = np.asarray(p, dtype=float)
    # periodic chart coordinates: lift to the representative nearest p, else
    # the target path may force the lift around a chart seam with no
    # continuous preimage
    q = _wrap_near(model, np.array(q, dtype=float), p)
    if np.allclose(p, q, atol=cfg.connect_tol * 1e-3):
        return LiftOutcome("Connected", np.zeros_like(p), [], {})
    # fast path: q inside the normal neighborhood of p
    flag, v, frame, _, _ = _log_newton(model, p, q, cfg)
    if flag == "ok" and _ray_is_regular(model, frame, cfg):
        return LiftOutcome("Connected", v, [{
            "t": float(np.linalg.norm(q - p)),
            "v": v.tolist(),
            "residual": 0.0,
            "min_singular_value": frame.min_singular_value,
        }], {"method": "local_log"})
    base = _aux_path(model, p, q, cfg) if cfg.path_kind == "aux" else _segment_path(p, q)
    attempts: list[dict] = []
    outcome = None
    for k in range(MAX_RETRIES + 1):
        sigma = base if k == 0 else _bumped_path(base, p, q, k - 1, BUMP_FRACTION)
        outcome = _lift(model, p, q, sigma, cfg)
        if outcome.status != "ConjugateHit":
            break
        attempts.append({"retry": k, **outcome.witness})
    if outcome.status == "ConjugateHit":
        outcome.witness["attempted_detours"] = attempts
        outcome.witness["note"] = (
            "detour schedule exhausted: either the sampled conjugate locus "
            "disconnects the target from p, or the detour schedule is inadequate; "
            "the two cases are not distinguishable from this run"
        )
    return outcome


def connect_report(
    model: ManifoldModel,
    outcome: LiftOutcome,
    p,
    q,
    locus: ConjugateLocusSample | None = None,
) -> dict:
    """Machine-readable summary of a connection attempt."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    report: dict = {
        "status": outcome.status,
        "lift_steps": len(outcome.lift_trace),
        "witness": outcome.witness,
    }
    if outcome.lift_trace:
        report["max_residual"] = max(
            row["residual"] for row in outcome.lift_trace
            if np.isfinite(row["residual"])
        )
    if outcome.connected:
        v = outcome.v
        g = np.asarray(model.metric(p), dtype=float)
        report["v"] = v.tolist()
        report["geodesic_length"] = float(np.sqrt(abs(v @ g @ v)))
        report["energy_class"] = causal_class(model, p, v)
    if locus is not None:
        report["target_component"] = component_of_point(model, locus, q)
        report["locus_caveat"] = locus.diagnostics.get("caveat", "")
    return report


def render_report(report: dict) -> str:
    """Human-readable rendering of a connect report."""
    lines = [f"status: {report['status']}", f"lift steps: {report['lift_steps']}"]
    if "v" in report:
        lines.append("v: " + ", ".join(f"{c:.17g}" for c in report["v"]))
        lines.append(f"geodesic length: {report['geodesic_length']:.17g}"
                     f" ({report['energy_class']})")
    if "max_residual" in report:
        lines.append(f"max residual: {report['max_residual']:.3e}")
    if report.get("witness"):
        lines.append(f"witness: {report['witness']}")
    if "target_component" in report:
        lines.append(f"target in sampled complement component: "
                     f"{report['target_component']}")
        lines.append(f"caveat: {report['locus_caveat']}")
    return "\n".join(lines)
