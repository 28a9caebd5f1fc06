"""Two-point geodesic connection by lifting the chart segment through exp_p.

``connect`` first tries ``local_log``, full-step Newton from the inverse of
exp_p's Taylor series at the chart difference q - p.  Otherwise it lifts one
target path, the chart segment sigma from p to q, into the tangent space by
continuation from v = 0: a predictor step through the inverse differential
of exp_p plus a Newton corrector.  Failures are typed, never raised: a singular differential
(conjugate hit), a lift norm that diverges before the target path ends
(escape witness), leaving the maximal domain, or step underflow.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainEscape, LinearizationFailure, NoConvergence, StepSizeUnderflow
from .geodesic import IntegratorConfig, _NormRecords, exp
from .jacobi import (
    ConjugateLocusSample, DifferentialFrame, _wrap_delta, _wrap_near, component_of_point,
    dexp_matrix,
)
from .manifold import ManifoldModel, _check_chart, causal_class, connection

__all__ = [
    "ConnectConfig", "LiftOutcome",
    "local_log", "connect", "connect_report", "render_report",
]


CORRECTOR_TOL = 1e-9      # residual the final corrector (local_log, the lift's last
                          # target) accepts
NEWTON_ITERATIONS = 8     # iteration budget of an intermediate lift corrector
LOG_ITERATIONS = 50       # iteration budget of the final corrector
FAR_RESIDUAL = 1e-5       # above it Newton integrates coarsely and its steps must shrink;
                          # the lift's intermediate points stop here
CHORD_CONTRACTION = 0.5   # below FAR_RESIDUAL, a chord step that does not shrink the
                          # residual by this factor makes Newton compute a new frame
SV_FLOOR = 1e-6           # smallest singular value of a regular differential
DIVERGENCE_START = 0.25   # first norm record at |v| >= this many target path lengths
DIVERGENCE_GAP_RATIO = 0.5  # each gap between records at most this share of the one before
DIVERGENCE_GAPS = 3       # shrinking gaps that witness a blow-up
MAX_LIFT_STEPS = 400
RAY_SAMPLES = 32          # dexp samples along the fast path's ray


@dataclass(frozen=True)
class ConnectConfig:
    # the bound every Connected result meets: CORRECTOR_TOL decides a
    # connection, at exp_p(v) on ``integrator``, and lies below it
    connect_tol: ClassVar[float] = 1e-6
    integrator: IntegratorConfig = field(
        # step cap keeps runaway correction geodesics from stalling the lift
        default_factory=lambda: IntegratorConfig(rtol=1e-8, atol=1e-10, max_steps=4000)
    )


@dataclass
class LiftOutcome:
    status: str  # Connected | ConjugateHit | EscapeWitness | DomainExit | Stalled
    v: Optional[np.ndarray]
    lift_trace: list[dict]
    witness: dict = field(default_factory=dict)

    @property
    def connected(self) -> bool:
        return self.status == "Connected"


def _coarse(integrator: IntegratorConfig) -> IntegratorConfig:
    """The integrator Newton steers with while it is far from the root; an
    oracle config keeps its oracle frames."""
    return replace(integrator, rtol=max(integrator.rtol, 1e-6),
                   atol=max(integrator.atol, 1e-8))


def _newton(model: ManifoldModel, p: np.ndarray, v: np.ndarray, target: np.ndarray,
            integrator: IntegratorConfig, seed_step: float, final: bool = True):
    """Newton on exp_p(v) = target, the connector's one corrector.

    It has two roles.  The final corrector (``local_log`` and the lift's
    last target) accepts a residual below CORRECTOR_TOL at an endpoint
    integrated on ``integrator``, within LOG_ITERATIONS steps.  The
    intermediate corrector (the lift's other targets, ``final=False``)
    accepts the first residual below FAR_RESIDUAL, within NEWTON_ITERATIONS.

    Returns (flag, v, frame, residual, iterations, frames), flag one of 'ok'
    (residual accepted), 'conjugate' (frame below SV_FLOOR), 'escape'
    (frame is the DomainEscape) or 'fail'; ``frames`` counts the
    differentials computed.  A returned frame's ``matrix``, singular value
    and ``ray`` belong to the last differential computed, its ``endpoint``
    to exp_p at the returned v.  Each differential is compared with
    SV_FLOOR where it is computed, before the residual is accepted and
    before any step solves with it; a coarse one after the residual at its
    own endpoint is measured.  So an 'ok' frame is never below SV_FLOOR.

    While the residual is at or above FAR_RESIDUAL, each iterate computes
    d(exp_p) on ``_coarse(integrator)`` and takes a full Newton step, and a
    converging iteration must have shrinking corrections (Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004).  The run fails at the first
    correction Delta v_k that is not shorter than the step before it, before
    v_{k+1} is integrated; the step before the first correction is
    ``seed_step``, the one that produced the seed v.

    Below FAR_RESIDUAL the last differential already contracts the residual
    by about its own relative error, so each iterate of the final corrector
    integrates only the geodesic, exp_p(v) on ``integrator``, and steps with
    the last differential's matrix (the simplified Newton, or chord,
    iteration).  A chord step from such an iterate that does not shrink the
    residual by CHORD_CONTRACTION makes the next iterate compute d(exp_p) on
    ``integrator`` and step with it, keeping the endpoint exp gave.

    The run fails on an iterate that is not finite, on an endpoint or
    differential that cannot be evaluated, and when its budget is spent.
    """
    coarse = _coarse(integrator)
    tol, max_iter = (CORRECTOR_TOL, LOG_ITERATIONS) if final else (FAR_RESIDUAL, NEWTON_ITERATIONS)
    frame = None
    residual = np.inf
    frames = 0
    # the step that produced v: |Delta v_k| (inf after a step taken from a
    # near residual), and whether it was a chord step from a near iterate
    dv_prev, chord = seed_step, False
    for it in range(max_iter):
        if not np.isfinite(v).all():
            return "fail", v, frame, residual, it, frames
        far = residual >= FAR_RESIDUAL
        try:
            if far:
                frame = dexp_matrix(model, p, v, coarse)
                frames += 1
                x = frame.endpoint
            else:
                x = exp(model, p, v, integrator)
                if not np.isfinite(x).all():
                    return "fail", v, None, residual, it, frames
            r = _wrap_delta(model, x - target)
            last_residual, residual = residual, float(np.linalg.norm(r))
            if far and frame.min_singular_value < SV_FLOOR:
                return "conjugate", v, frame, residual, it, frames
            if residual < tol and not (final and far):
                return "ok", v, replace(frame, endpoint=x), residual, it, frames
            refresh = chord and not far and not residual <= CHORD_CONTRACTION * last_residual
            if refresh:
                frame = dexp_matrix(model, p, v, integrator)
                frames += 1
                if frame.min_singular_value < SV_FLOOR:
                    return "conjugate", v, frame, residual, it, frames
        except DomainEscape as esc:
            return "escape", v, esc, residual, it, frames
        except (LinearizationFailure, StepSizeUnderflow):
            return "fail", v, None, residual, it, frames
        dv = np.linalg.solve(frame.matrix, r)
        dv_norm = float(np.linalg.norm(dv))
        if residual >= FAR_RESIDUAL and not dv_norm < dv_prev:
            return "fail", v, frame, residual, it, frames
        dv_prev = dv_norm if far else np.inf
        chord = not (far or refresh)
        v = v - dv
    return "fail", v, frame, residual, max_iter, frames


def _series_seed(model: ManifoldModel, p: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The inverse of exp_p's Taylor series at the chart difference delta,
    cut at its smallest term.

    With Gamma and dGamma taken at p, the geodesic equation
    x'' = -Gamma(x)(x', x') gives

        exp_p(v) - p = v - Gamma(v, v) / 2
                       + (2 Gamma(v, Gamma(v, v)) - dGamma(v, v, v)) / 6 + O(|v|^4),

    whose inverse at delta = q - p is

        v = delta + Gamma(delta, delta) / 2
            + (Gamma(delta, Gamma(delta, delta)) + dGamma(delta, delta, delta)) / 6
            + O(|delta|^4),

    the expansion behind normal coordinates (Eisenhart, *Riemannian
    Geometry*, 1926).  Gamma(a, b)^k = Gamma^k_ij a^i b^j is symmetric in a
    and b, and dGamma(a, b, c)^k = d_l Gamma^k_ij a^l b^i c^j.

    A term is kept only while it is shorter than the term before it, delta
    being the first; a non-finite term is not shorter.  Otherwise the seed
    is the partial sum before that term, as an asymptotic series is cut at
    its smallest term.  dGamma is evaluated only when the second-order term
    is kept.
    """
    n = len(p)
    nn = n * n
    gamma, dgamma = connection(model)
    with np.errstate(over="ignore", invalid="ignore"):
        # Gd[k, i] = Gamma^k_ij delta^j
        Gd = np.asarray(gamma(p), dtype=float).reshape(nn, n).dot(delta).reshape(n, n)
        gdd = Gd.dot(delta)
        second = 0.5 * gdd
        step = float(np.linalg.norm(second))
        if not step < float(np.linalg.norm(delta)):
            return delta
        # dGddd[k] = d_l Gamma^k_ij delta^l delta^i delta^j
        dGddd = (delta.dot(np.asarray(dgamma(p), dtype=float).reshape(n, nn * n))
                 .reshape(nn, n).dot(delta).reshape(n, n).dot(delta))
        third = (Gd.dot(gdd) + dGddd) / 6.0
        if not float(np.linalg.norm(third)) < step:
            return delta + second
        return delta + second + third


def _log_newton(model: ManifoldModel, p: np.ndarray, target: np.ndarray,
                cfg: ConnectConfig):
    """local_log's Newton solve from the series seed, returning the
    ``_newton`` tuple; the seed's own step, from v = 0, is |v|."""
    v = _series_seed(model, p, target - p)
    return _newton(model, p, v, target, cfg.integrator, seed_step=float(np.linalg.norm(v)))


def local_log(
    model: ManifoldModel,
    p,
    target,
    cfg: ConnectConfig | None = None,
) -> np.ndarray:
    """Invert exp_p near p by full-step Newton iteration from the series seed.

    The seed is the inverse of exp_p's Taylor series at the chart difference
    q - p, to third order, cut before its first term that is not shorter
    than the one before it.  This is the final corrector, the one the lift
    runs on its last target.  While the residual is at or above 1e-5, each
    iterate computes d(exp_p) on a coarse integrator, and the run stops at
    the first correction that is not shorter than the step before it, before
    that correction's iterate is integrated.  The seed's own step, from
    v = 0, is the seed's length, so a first correction longer than that ends
    the fast path after one frame.  It also stops on a differential whose
    smallest singular value is below SV_FLOOR, on an iterate that is not
    finite, when exp_p or its differential cannot be evaluated, or after
    LOG_ITERATIONS iterations.  Below 1e-5, iterates integrate only the geodesic on ``cfg.integrator``
    and step with the last differential (chord steps); one whose step does
    not halve the residual computes a fine differential first.  The returned
    v meets CORRECTOR_TOL at ``exp(model, p, v, cfg.integrator)`` itself.

    Raises NoConvergence in each of these cases.  That means q is not
    reachable by full-step Newton from the series seed, not that q is
    unreachable from p: ``connect`` then falls back to path lifting.
    """
    flag, v, _, residual, it, _ = _log_newton(
        model, np.asarray(p, dtype=float), np.asarray(target, dtype=float),
        cfg or ConnectConfig())
    if flag != "ok":
        raise NoConvergence(it, residual)
    return v


def _lift(model: ManifoldModel, p: np.ndarray, q: np.ndarray,
          cfg: ConnectConfig) -> LiftOutcome:
    """Track the chart segment sigma(t) = p + t (q - p) / ell, of length
    ell = |q - p|, through exp_p from v = 0; every witness, Connected
    included, carries its cost: accepted ``lift_steps``, predictor-corrector
    ``attempts``, the corrector's summed ``newton_iterations`` and
    ``dexp_calls``, every d(exp_p) computed, the identity frame at v = 0
    included.

    Each target is predicted through the last accepted frame and corrected by
    ``_newton``, seeded with the predictor's step.  An intermediate point
    only has to lie in the next corrector's Newton basin, so every target
    before the last gets the intermediate corrector: coarse differentials
    to FAR_RESIDUAL, and its accepted frame is the coarse differential at
    the accepted v.  The last target is q itself, and only it gets the final
    corrector, the one ``local_log`` runs: coarse while far, then chord steps
    on ``cfg.integrator`` to CORRECTOR_TOL, within LOG_ITERATIONS, since it
    starts from a coarse point (Allgower & Georg, *Introduction to Numerical
    Continuation Methods*, 2003).  Its acceptance alone decides Connected.
    The corrector judges every frame it computes against SV_FLOOR, so the
    predictor only solves with regular frames; a frame below SV_FLOOR ends
    the lift with the corrector's ConjugateHit, whose witness holds
    ``t_hit``, ``v_at_hit`` and ``min_singular_value``.  A corrector that
    fails halves the step; once the step is below 1e-7 * ell the lift ends
    Stalled.

    Divergence is read off the accepted norms.  |v| is recorded at the first
    step with |v| >= DIVERGENCE_START * ell and again whenever it doubles
    the last record.  When the last DIVERGENCE_GAPS gaps between record
    times each shrink by DIVERGENCE_GAP_RATIO, the later gaps sum to at most
    the last one, g, so the norm blows up by t + g; if that is before sigma
    ends, the lift refuses with EscapeWitness.
    """
    delta = q - p
    ell = float(np.linalg.norm(delta))
    direction = delta / ell
    t = 0.0
    v = np.zeros_like(p)
    dt = ell / 16.0
    dt_min = ell * 1e-7
    trace: list[dict] = []
    records = _NormRecords(DIVERGENCE_START * ell)  # accepted |v|
    frame = dexp_matrix(model, p, v, cfg.integrator)  # the identity, exactly, at v = 0
    attempts = 0
    newton_iterations = 0
    dexp_calls = 1

    def cost(witness: dict) -> dict:
        witness.update(lift_steps=len(trace), attempts=attempts,
                       newton_iterations=newton_iterations, dexp_calls=dexp_calls)
        return witness

    def refuse(status: str, witness: dict) -> LiftOutcome:
        return LiftOutcome(status, None, trace, cost(witness))

    while t < ell:
        if attempts >= MAX_LIFT_STEPS:
            return refuse("Stalled", {"reason": "max lift steps", "t": t})
        attempts += 1
        dt = min(dt, ell - t)
        last = t + dt >= ell
        target = q if last else p + (t + dt) * direction
        dv = np.linalg.solve(frame.matrix, -_wrap_delta(model, frame.endpoint - target))
        flag, v_new, frame_new, res, it, frames = _newton(
            model, p, v + dv, target, cfg.integrator, float(np.linalg.norm(dv)), final=last)
        newton_iterations += it
        dexp_calls += frames
        if flag == "escape":
            return refuse("DomainExit", {
                "t": frame_new.t, "termination": frame_new.termination.value})
        if flag == "conjugate":
            return refuse("ConjugateHit", {
                "t_hit": t + dt,
                "v_at_hit": v_new.tolist(),
                "min_singular_value": frame_new.min_singular_value,
            })
        if flag == "fail":
            dt *= 0.5
            if dt < dt_min:
                return refuse("Stalled", {"reason": "corrector step underflow", "t": t})
            continue
        t += dt
        v = v_new
        frame = frame_new
        trace.append({
            "t": t,
            "v": v.tolist(),
            "residual": res,
            "min_singular_value": frame.min_singular_value,
        })
        norm = float(np.linalg.norm(v))
        if norm >= records.level:
            records.add(t, norm)
            gaps = records.gaps(DIVERGENCE_GAPS)
            if (gaps is not None
                    and all(g2 <= DIVERGENCE_GAP_RATIO * g1 for g1, g2 in zip(gaps, gaps[1:]))
                    and t + gaps[-1] < ell):
                return refuse("EscapeWitness", {
                    "norm_records": [{"t": tr, "lift_norm": nr} for tr, nr in records.records],
                    "blow_up_bound": t + gaps[-1], "target_path_length": ell,
                    "lift_norms": [float(np.linalg.norm(row["v"])) for row in trace],
                    "residuals": [row["residual"] for row in trace]})
        dt = min(dt * 1.4, ell / 8.0)
    return LiftOutcome("Connected", v, trace, cost({}))


def _ray_is_regular(frame: DifferentialFrame) -> bool:
    """Check dexp along the straight ray to the frame's v, read from the
    frame's own ray as one stack of RAY_SAMPLES matrices: a negative first
    determinant, a sign flip between samples or a smallest singular value
    below SV_FLOOR means the ray is not regular."""
    Js = frame.ray(np.linspace(1.0 / RAY_SAMPLES, 1.0, RAY_SAMPLES))
    dets = np.linalg.det(Js)
    # a determinant sign flip between samples means a singularity was
    # crossed even if no sample landed inside the (narrow) sv dip
    if dets[0] < 0.0 or np.any(dets[:-1] * dets[1:] < 0.0):
        return False
    return not np.any(np.linalg.svd(Js, compute_uv=False)[:, -1] < SV_FLOOR)


def connect(model: ManifoldModel, p, q, cfg: ConnectConfig | None = None) -> LiftOutcome:
    """Find v with exp_p(v) = q: ``local_log`` from the series seed, else one
    lift along the chart segment from p to q, whose outcome is returned with
    the fast path's ``newton_iterations`` and ``dexp_calls`` added to its
    witness.  Both end in the same final corrector, with one tolerance,
    CORRECTOR_TOL.  A q within CORRECTOR_TOL of p, an absolute distance in
    the chart, is connected with v = 0.

    A ConjugateHit means the segment's lift reached a singular frame; it
    does not show that q is unreachable, since another target path may
    avoid that frame.  OutOfChart unless p and q are points inside the
    chart."""
    cfg = cfg or ConnectConfig()
    p = _check_chart(model, p)
    q = _check_chart(model, np.array(q, dtype=float))   # a copy: _wrap_near writes in place
    # periodic chart coordinates: lift to the representative nearest p, else
    # the target path may force the lift around a chart seam with no
    # continuous preimage
    q = _wrap_near(model, q, p)
    if np.allclose(p, q, rtol=0.0, atol=CORRECTOR_TOL):
        return LiftOutcome("Connected", np.zeros_like(p), [],
                           {"newton_iterations": 0, "dexp_calls": 0})
    # fast path: q inside the normal neighborhood of p
    flag, v, frame, residual, it, frames = _log_newton(model, p, q, cfg)
    if flag == "ok" and _ray_is_regular(frame):
        return LiftOutcome("Connected", v, [{
            "t": float(np.linalg.norm(q - p)),
            "v": v.tolist(),
            "residual": residual,
            "min_singular_value": frame.min_singular_value,
        }], {"method": "local_log", "newton_iterations": it, "dexp_calls": frames})
    out = _lift(model, p, q, cfg)
    out.witness["newton_iterations"] += it
    out.witness["dexp_calls"] += frames
    return out


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
        report["target_component"] = component_of_point(locus, q)
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
