"""Empirical probes: weak properness, disprisonment, pseudoconvexity,
convexity certificates, and the polar-map (Gauss lemma) identities.

All verdicts are sampled evidence at a finite horizon, never proofs; each
report says so explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import DomainEscape, StepSizeUnderflow
from .geodesic import IntegratorConfig, Termination, exp, integrate_geodesic
from .jacobi import _boost, _seeded_directions, _sweep_directions, integrate_variational
from .manifold import (
    ManifoldModel, ScalarField, Tangent, check_tangent, embedding_point, orthonormal_frame,
)

__all__ = [
    "ProbeConfig", "ProbeCurve", "ProbeCurveFamily", "ProbeVerdict",
    "radial_ray_family", "spiral_family", "hyperboloid_sweep_family",
    "polyline_family", "weak_properness_probe", "disprisonment_probe",
    "pseudoconvexity_probe", "convex_check", "gauss_lemma_check",
]

SAMPLED_EVIDENCE = "sampled evidence at a finite horizon, not a proof"
CAUCHY_TAIL = 5  # trailing images whose spread judges a weak-properness limit
RADIAL_SAMPLES = 60     # schedule points per radial ray
SPIRAL_SAMPLES = 80     # schedule points per spiral
SWEEP_SAMPLES = 60      # schedule points per hyperboloid sweep
CONVEX_INTERVAL = (0.0, 1.0)   # geodesic parameter range convex_check samples
CONVEX_STEP = 1e-3             # its second-difference step
NORM_CAP = 1e3          # default tangent norm at which an escaping curve stops


@dataclass(frozen=True)
class ProbeConfig:
    norm_cap: float = NORM_CAP
    cauchy_tol: ClassVar[float] = 1e-6   # tail spread below which images converge
    integrator: ClassVar[IntegratorConfig] = IntegratorConfig(prefer_oracle=True)


@dataclass
class ProbeCurve:
    curve_id: str
    alpha: Callable[[float], np.ndarray]  # tangent-space curve, alpha(0) = 0
    schedule: np.ndarray                  # increasing parameter samples


@dataclass
class ProbeCurveFamily:
    name: str
    curves: list[ProbeCurve]


@dataclass
class ProbeVerdict:
    rows: list[dict]
    summary: str           # ConsistentWithWeakProperness | Violation | Undecided
    witness_curve: Optional[str] = None
    caveat: ClassVar[str] = SAMPLED_EVIDENCE


def radial_ray_family(model: ManifoldModel, p, count: int = 16,
                      norm_cap: float = NORM_CAP) -> ProbeCurveFamily:
    """Rays t -> t*u escaping to the norm cap."""
    E, _ = orthonormal_frame(model, p)
    us = (_sweep_directions(E, count, 0.5) if model.dim == 2
          else _seeded_directions(E, count, 711))
    schedule = np.geomspace(1e-2, 1.05 * norm_cap, RADIAL_SAMPLES)
    return ProbeCurveFamily("radial", [
        ProbeCurve(f"ray-{i}", lambda t, u=u: t * u, schedule.copy())
        for i, u in enumerate(us)])


def spiral_family(model: ManifoldModel, p, count: int = 8,
                  norm_cap: float = NORM_CAP) -> ProbeCurveFamily:
    """Slowly rotating escaping spirals (surfaces only)."""
    E, _ = orthonormal_frame(model, p)
    schedule = np.geomspace(1e-2, 1.05 * norm_cap, SPIRAL_SAMPLES)
    curves = []
    for i in range(count):
        phase = 2.0 * np.pi * i / count

        def alpha(t, phase=phase):
            return t * (np.cos(np.log1p(t) + phase) * E[:, 0]
                        + np.sin(np.log1p(t) + phase) * E[:, 1])

        curves.append(ProbeCurve(f"spiral-{i}", alpha, schedule.copy()))
    return ProbeCurveFamily("spiral", curves)


def hyperboloid_sweep_family(model: ManifoldModel, p, gnorm: float,
                             causal: str = "spacelike",
                             norm_cap: float = NORM_CAP) -> ProbeCurveFamily:
    """Constant-g-norm sweep over boosted directions (indefinite models).

    The curve alpha(chi) = c * (cosh(chi) e_s + sinh(chi) e_t) keeps
    |alpha|_g = c while its chart norm grows without bound.  Raises ValueError
    unless the model is indefinite and 0 < gnorm < inf.
    """
    if 1 not in model.signature or -1 not in model.signature:
        raise ValueError(f"the hyperboloid sweep needs an indefinite model, not {model.name}")
    if not 0.0 < gnorm < np.inf:
        raise ValueError(f"gnorm must be positive and finite, not {gnorm}")
    if causal not in ("spacelike", "timelike"):
        raise ValueError("causal must be 'spacelike' or 'timelike'")
    E, signs = orthonormal_frame(model, p)
    es = E[:, np.flatnonzero(signs == 1)[0]]
    et = E[:, np.flatnonzero(signs == -1)[0]]
    chi_max = np.arccosh(max(1.05 * norm_cap / (gnorm * max(np.linalg.norm(es), 1e-12)), 2.0))
    schedule = np.linspace(0.0, chi_max, SWEEP_SAMPLES)

    def alpha(chi):
        return gnorm * _boost(es, et, chi, causal == "timelike")

    return ProbeCurveFamily(
        f"hyperboloid-{causal}-{gnorm:g}",
        [ProbeCurve(f"sweep-{causal}-{gnorm:g}", alpha, schedule)],
    )


def polyline_family(points: Sequence[Sequence[float]],
                    name: str = "user") -> ProbeCurveFamily:
    """Piecewise-linear tangent-space curve through user waypoints (from 0)."""
    pts = [np.zeros(len(points[0]))] + [np.asarray(q, dtype=float) for q in points]

    def alpha(t: float) -> np.ndarray:
        k = min(int(t), len(pts) - 2)
        frac = t - k
        return (1.0 - frac) * pts[k] + frac * pts[k + 1]

    schedule = np.linspace(0.0, len(pts) - 1.0, 20 * (len(pts) - 1))[1:]
    return ProbeCurveFamily(name, [ProbeCurve(f"{name}-polyline", alpha, schedule)])


def weak_properness_probe(model: ManifoldModel, p, family: ProbeCurveFamily,
                          cfg: ProbeConfig | None = None) -> ProbeVerdict:
    """Image-convergence vs lift-boundedness test for exp_p along each curve.

    The summary is Violation with a witness curve whose images converge while
    its lift is unbounded; else ConsistentWithWeakProperness when some row has
    its image tail evaluated (``image_convergent`` set), and Undecided, with
    no witness curve, when none has."""
    cfg = cfg or ProbeConfig()
    p = np.asarray(p, dtype=float)
    rows = []
    witness = None
    for curve in family.curves:
        images = []
        norms = []
        status = "ok"
        for s in curve.schedule:
            a = curve.alpha(float(s))
            nrm = float(np.linalg.norm(a))
            try:
                x = exp(model, p, a, cfg.integrator)
            except (DomainEscape, StepSizeUnderflow):
                status = "domain_escape"
                break
            images.append(embedding_point(model, x))
            norms.append(nrm)
            if nrm > cfg.norm_cap:
                break
        row = {"curve": curve.curve_id, "status": status}
        if status == "domain_escape" or len(images) < CAUCHY_TAIL + 1:
            row.update(image_convergent=None, lift_bounded=None)
            rows.append(row)
            continue
        tail = images[-CAUCHY_TAIL:]
        # math.dist scales internally, so far-out images do not overflow
        spread = max(math.dist(a, b) for i, a in enumerate(tail) for b in tail[i + 1:])
        convergent = spread < cfg.cauchy_tol
        bounded = max(norms) <= cfg.norm_cap
        row.update(
            image_convergent=bool(convergent),
            lift_bounded=bool(bounded),
            tail_spread=spread,
            final_lift_norm=max(norms),
        )
        if convergent:
            row["image_limit"] = tail[-1].tolist()
        else:
            row["divergence_stat"] = spread
        if convergent and not bounded:
            row["status"] = "violation"
            witness = curve.curve_id
        rows.append(row)
    if witness:
        summary = "Violation"
    elif any(row["image_convergent"] is not None for row in rows):
        summary = "ConsistentWithWeakProperness"
    else:
        summary = "Undecided"
    return ProbeVerdict(rows, summary, witness)


def disprisonment_probe(model: ManifoldModel, seeds: Sequence[Tangent],
                        horizon: float = 20.0,
                        cfg: IntegratorConfig | None = None) -> dict:
    """Integrate maximal geodesics both ways; report exhaustion-box escape.

    Raises OutOfChart or ValueError, before any integration, for a seed that
    is not a tangent vector at a point inside the chart."""
    cfg = cfg or IntegratorConfig()
    tangents = [check_tangent(model, seed.base_array, seed.vec_array) for seed in seeds]
    rows = []
    for k, (p, v) in enumerate(tangents):
        extents = {}
        terms = {}
        center = embedding_point(model, p)
        for label, vv in (("forward", v), ("backward", -v)):
            try:
                path = integrate_geodesic(model, p, vv, cfg, t_max=horizon)
            except StepSizeUnderflow:
                terms[label] = "StepSizeUnderflow"
                extents[label] = (np.inf, np.inf)
                continue
            terms[label] = path.termination.value
            # one embedding call per node: callbacks take a single point
            n = model.dim
            d = np.linalg.norm(
                np.array([embedding_point(model, s[:n]) for s in path.states]) - center, axis=1)
            extents[label] = (float(np.max(d[path.ts <= horizon / 2.0], initial=0.0)),
                              float(np.max(d, initial=0.0)))
        finite_escape = any(
            terms[l] in (Termination.BLOW_UP.value, "StepSizeUnderflow", Termination.CHART_EXIT.value)
            for l in terms
        )
        growing = any(
            np.isfinite(extents[l][1]) and extents[l][1] > 1.05 * extents[l][0] + 1e-9
            for l in extents
        )
        if finite_escape:
            verdict = "escapes_in_finite_parameter"
        elif growing:
            verdict = "disprisoned_sampled"
        else:
            verdict = "imprisoned_up_to_horizon"
        rows.append({
            "seed": k,
            "base": p.tolist(),
            "vec": v.tolist(),
            "terminations": terms,
            "extent_half": {l: extents[l][0] for l in extents},
            "extent_full": {l: extents[l][1] for l in extents},
            "verdict": verdict,
        })
    return {
        "kind": "disprison",
        "model": model.name,
        "params": {"horizon": horizon},
        "rows": rows,
        "verdict": "sampled",
        "caveat": SAMPLED_EVIDENCE,
    }


def pseudoconvexity_probe(model: ManifoldModel, box: tuple, sample_count: int = 64,
                          horizon: float = 10.0, seed: int = 2024,
                          cfg: IntegratorConfig | None = None) -> dict:
    """Bounding box K* of geodesic segments with both endpoints in K.

    One seeded run of 2 * sample_count draws; the first row is K* after the
    first sample_count of them, the second after all.  Raises ValueError
    unless lo < hi in every coordinate of box = (lo, hi), and when no draw
    lies inside the chart."""
    cfg = cfg or IntegratorConfig()
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if not np.all(lo < hi):
        raise ValueError(f"box needs lo < hi in every coordinate, not {lo} and {hi}")
    rng = np.random.default_rng(seed)
    bb_lo = lo.copy()
    bb_hi = hi.copy()
    segments = 0
    drawn_inside = 0
    scale = float(np.max(hi - lo))
    rows = []
    diagonals = []
    for samples in (sample_count, 2 * sample_count):
        for _ in range(sample_count):
            p = rng.uniform(lo, hi)
            if not model.domain.contains(p):
                continue
            drawn_inside += 1
            u = rng.standard_normal(model.dim)
            v = scale * u / np.linalg.norm(u)
            try:
                path = integrate_geodesic(model, p, v, cfg, t_max=horizon)
            except StepSizeUnderflow:
                continue
            ts = np.linspace(0.0, path.term_time, 400)
            pts = path.sol(ts)[: model.dim].T
            inside = np.all((pts >= lo) & (pts <= hi), axis=1)
            returns = np.flatnonzero(inside[1:])
            if len(returns) == 0:
                continue
            t_back = returns[-1] + 1
            seg = pts[: t_back + 1]
            bb_lo = np.minimum(bb_lo, seg.min(axis=0))
            bb_hi = np.maximum(bb_hi, seg.max(axis=0))
            segments += 1
        rows.append({"samples": samples, "segments": segments,
                     "Kstar_lower": bb_lo.tolist(), "Kstar_upper": bb_hi.tolist()})
        diagonals.append(float(np.linalg.norm(bb_hi - bb_lo)))
    if not drawn_inside:
        raise ValueError(f"box {lo.tolist()} to {hi.tolist()}: none of its "
                         f"{2 * sample_count} draws lies inside the chart")
    unbounded = diagonals[1] > 1.2 * diagonals[0]
    return {
        "kind": "pseudoconvex",
        "model": model.name,
        "params": {"K_lower": lo.tolist(), "K_upper": hi.tolist(),
                   "sample_count": sample_count, "horizon": horizon},
        "rows": rows,
        "verdict": "Unbounded" if unbounded else "BoundedAtSampleScale",
        "caveat": SAMPLED_EVIDENCE,
    }


def convex_check(model: ManifoldModel, f: ScalarField, samples: Sequence[Tangent],
                 cfg: IntegratorConfig | None = None) -> dict:
    """Second-difference convexity and endpoint-max bound along sampled geodesics,
    on CONVEX_INTERVAL with step CONVEX_STEP."""
    cfg = cfg or IntegratorConfig()
    a, b = CONVEX_INTERVAL
    step = CONVEX_STEP
    rows = []
    worst = None
    for k, seed in enumerate(samples):
        p = seed.base_array
        v = seed.vec_array
        try:
            path = integrate_geodesic(model, p, v, cfg, t_max=b)
        except StepSizeUnderflow:
            rows.append({"sample": k, "status": "integration_failed"})
            continue
        if path.termination is not Termination.REACHED_TMAX:
            rows.append({"sample": k, "status": f"escape:{path.termination.value}"})
            continue
        ts = np.arange(a, b + 0.5 * step, step)
        pts = path.sol(ts)[: model.dim].T
        try:
            fvals = np.array([f.eval(x) for x in pts])
        except Exception as err:  # DSL EvalError or user failure, per sample
            rows.append({"sample": k, "status": f"eval_error:{err}"})
            continue
        scale = max(1.0, float(np.max(np.abs(fvals))))
        tol = 1e-8 * scale
        second = (fvals[2:] - 2.0 * fvals[1:-1] + fvals[:-2]) / step**2
        min_second = float(second.min()) if len(second) else 0.0
        convex_ok = min_second >= -tol
        bound_ok = True
        if float(fvals.min()) >= -tol:
            bound_ok = float(fvals.max()) <= max(fvals[0], fvals[-1]) + tol
        row = {
            "sample": k,
            "status": "ok",
            "min_second_difference": min_second,
            "argmin_t": float(ts[1:-1][int(np.argmin(second))]) if len(second) else None,
            "convexity_pass": bool(convex_ok),
            "endpoint_bound_pass": bool(bound_ok),
        }
        rows.append(row)
        if worst is None or min_second < worst["min_second_difference"]:
            worst = row
    ok_rows = [r for r in rows if r["status"] == "ok"]
    passed = bool(ok_rows) and all(
        r["convexity_pass"] and r["endpoint_bound_pass"] for r in ok_rows
    )
    return {
        "kind": "convex",
        "model": model.name,
        "params": {"f": f.name, "interval": list(CONVEX_INTERVAL), "step": step,
                   "samples": len(samples)},
        "rows": rows,
        "worst": worst,
        "verdict": "pass" if passed else "fail",
        "caveat": SAMPLED_EVIDENCE,
    }


def gauss_lemma_check(model: ManifoldModel, p, r_values: Sequence[float],
                      direction_count: int = 32,
                      cfg: IntegratorConfig | None = None,
                      tol: float = 1e-6) -> dict:
    """Polar-map identities <d_r, d_r> = 1 and <d_r, d_s> = 0 on an (r, s) grid.

    d_r comes from the geodesic velocity, d_s from the matrix Jacobi
    solution applied to the turning direction (Riemannian models only).
    Raises ValueError unless r_values is non-empty, finite and positive: the
    rays are integrated on (0, max r_values] only; and unless direction_count
    is at least 1.  It passes only with at least one evaluated (direction,
    radius) pair, an ``ok`` row, and every such pair within tol.
    """
    if not model.is_riemannian:
        raise ValueError("gauss_lemma_check requires a Riemannian model")
    r_values = np.asarray(r_values, dtype=float)
    if not (r_values.size and np.all(np.isfinite(r_values)) and np.all(r_values > 0.0)):
        raise ValueError(f"radii must be non-empty, finite and positive, not {r_values}")
    if direction_count < 1:
        raise ValueError(f"direction_count must be at least 1, not {direction_count}")
    cfg = cfg or IntegratorConfig()
    p = np.asarray(p, dtype=float)
    E, _ = orthonormal_frame(model, p)
    r_max = float(r_values.max())
    ws = _sweep_directions(E, direction_count, 0.37)
    # the same sweep of the frame turned a quarter turn: w' is w rotated by pi/2
    wps = _sweep_directions(np.column_stack([E[:, 1], -E[:, 0]]), direction_count, 0.37)
    rows = []
    worst_radial = 0.0
    worst_ortho = 0.0
    for j, (w, wp) in enumerate(zip(ws, wps)):
        try:
            var = integrate_variational(model, p, w, t_max=r_max, cfg=cfg)
        except StepSizeUnderflow:
            rows.append({"direction": j, "status": "integration_failed"})
            continue
        for r in r_values:
            if var.termination is not Termination.REACHED_TMAX and r > var.term_time:
                rows.append({"direction": j, "r": float(r), "status": "escape"})
                continue
            x, vel, J = var.split(float(r))
            g = np.asarray(model.metric(x), dtype=float)
            dr = vel
            ds = J @ wp
            radial = float(dr @ g @ dr)
            ortho = float(dr @ g @ ds)
            worst_radial = max(worst_radial, abs(radial - 1.0))
            worst_ortho = max(worst_ortho, abs(ortho))
            rows.append({
                "direction": j, "r": float(r), "status": "ok",
                "radial_norm2": radial, "radial_cross": ortho,
            })
    passed = (any(r["status"] == "ok" for r in rows)
              and worst_radial <= tol and worst_ortho <= tol)
    return {
        "kind": "gauss",
        "model": model.name,
        "params": {"directions": direction_count, "r_count": len(r_values), "tol": tol},
        "rows": rows,
        "max_radial_deviation": worst_radial,
        "max_orthogonality_deviation": worst_ortho,
        "verdict": "pass" if passed else "fail",
        "caveat": SAMPLED_EVIDENCE,
    }
