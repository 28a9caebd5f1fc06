"""Geodesic ODE integration, exponential map, and closed-form oracle access.

The integrator is the embedded Dormand-Prince 5(4) pair with Shampine's
quartic continuous extension (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, II.4-II.6), driven step by step; the dense output
is kept per accepted step.  Termination is typed: reaching the horizon, or
the first zero of a monitor of the state -- leaving the chart, blow-up in
finite parameter, or (on a variational integration) a conjugate point --
located by Brent's root finder on the step's interpolant, or steps that
underflow at the chart's edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import DomainEscape, NoOracle, StepSizeUnderflow
from .manifold import ManifoldModel, check_tangent, connection

__all__ = [
    "IntegratorConfig", "Termination", "GeodesicPath", "DenseSolution",
    "integrate_geodesic", "exp", "oracle_geodesic", "oracle_geodesic_embedding",
    "energy", "energy_drift",
]

# Dormand-Prince 5(4): nodes C, stage coefficients A, 5th-order weights B,
# error weights E (5th minus embedded 4th order, over the 6 stages and the
# first-same-as-last slope), and the dense-output matrix P for Shampine's
# optimal c_6 (Math. Comp. 46, 1986).
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_STAGES = [(s, _A[s, :s], _C[s]) for s in range(1, 6)]

_SAFETY = 0.9
_MIN_FACTOR = 0.2          # largest shrink of a rejected step
_MAX_FACTOR = 10.0         # largest growth after an accepted step
_ERROR_EXPONENT = -1 / 5   # the local error estimate is O(h^5)
_RTOL_FLOOR = 100 * math.ulp(1.0)
_BRENT_RTOL = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


class _Segment:
    """Quartic interpolant of one accepted step, y_old + h Q (x, x^2, x^3, x^4)."""

    __slots__ = ("t_old", "h", "y_old", "Q")

    def __init__(self, t_old: float, h: float, y_old: np.ndarray, Q: np.ndarray):
        self.t_old = t_old
        self.h = h
        self.y_old = y_old
        self.Q = Q

    def __call__(self, t):
        """State at a scalar t, shape (n,), or at a 1-D array of k times, (n, k)."""
        x = (t - self.t_old) / self.h
        x2 = x * x
        x3 = x2 * x
        y = self.h * np.dot(self.Q, np.array((x, x2, x3, x3 * x)))
        return y + (self.y_old if y.ndim == 1 else self.y_old[:, None])


class _Line:
    """The exact line y_old + t slope, for every finite t: the one segment of
    a stationary path's dense output."""

    __slots__ = ("y_old", "slope")

    def __init__(self, y_old: np.ndarray, slope: np.ndarray):
        self.y_old = y_old
        self.slope = slope

    def __call__(self, t):
        """State at a scalar t, shape (n,), or at a 1-D array of k times, (n, k)."""
        # + 0.0 turns a -0.0 product into +0.0, as a sum with zero terms does
        y = np.multiply.outer(self.slope, t) + 0.0
        return y + (self.y_old if y.ndim == 1 else self.y_old[:, None])


class DenseSolution:
    """Continuous solution from the per-step interpolants of an integration.

    ``sol(t)`` has shape ``(n_states,)`` for a scalar t and
    ``(n_states, n_points)`` for a 1-D array of times, ``(n_states, 0)`` for
    an empty one.  At a step boundary
    the earlier step's interpolant is used; times outside the integrated
    range extrapolate the first or last step.  A backward integration
    (sign -1) stepped in s = -t, and its interpolants take s.
    """

    def __init__(self, ts: np.ndarray, segments: list[_Segment] | list[_Line],
                 sign: float = 1.0):
        self.ts = ts
        self.segments = segments
        self.sign = sign
        self._nodes = sign * ts   # increasing, in the stepping variable

    def __call__(self, t) -> np.ndarray:
        s = self.sign * np.asarray(t)
        last = len(self.segments) - 1
        if s.ndim == 0:
            i = int(self._nodes.searchsorted(s, side="left")) - 1
            return self.segments[min(max(i, 0), last)](float(s))
        if s.size == 0:
            return np.empty((self.segments[0].y_old.size, 0))
        # one evaluation per run of points in the same step, in stepping order
        order = np.argsort(s)
        s_sorted = s[order]
        seg = np.clip(self._nodes.searchsorted(s_sorted, side="left") - 1, 0, last)
        bounds = [0, *(np.flatnonzero(np.diff(seg)) + 1).tolist(), len(t)]
        ys = np.hstack([self.segments[seg[a]](s_sorted[a:b])
                        for a, b in zip(bounds[:-1], bounds[1:])])
        out = np.empty_like(ys)
        out[:, order] = ys
        return out


def _brent(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float = _BRENT_RTOL) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    f(a) and f(b) must differ in sign (ValueError otherwise); an endpoint
    where f is exactly zero is returned as is.  Each iteration takes an
    inverse quadratic or secant step when it is short enough and bisects
    otherwise; the loop stops once the bracket half-width is below
    (xtol + rtol |x|) / 2.  The step choices follow scipy's ``brentq``.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"root finder: f({x}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("root finder: f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # keep the best iterate in xcur, its bracketing partner in xblk
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)        # secant
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))            # inverse quadratic
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"root finder: no convergence after {_BRENT_MAXITER} iterations, "
                       f"at {xcur}")


class Termination(Enum):
    REACHED_TMAX = "ReachedTmax"
    CHART_EXIT = "ChartExit"
    BLOW_UP = "BlowUp"
    CONJUGATE_POINT = "ConjugatePoint"


Monitor = Callable[[float, np.ndarray], float]   # (t, state) -> margin, zero ends a path
# (s_old, s, state, step interpolant) -> a termination that ends the path at s, or None
StopHook = Callable[[float, float, np.ndarray, Callable], Optional[Termination]]


class _ChartMargin:
    """Monitor of the chart margin at the position part x = y[:n] of a state."""

    __slots__ = ("margin", "n")

    def __init__(self, model: ManifoldModel):
        self.margin = model.domain.margin
        self.n = model.dim

    def __call__(self, t: float, y: np.ndarray) -> float:
        return self.margin(y[:self.n])

    def at_edge(self, y: np.ndarray, rtol: float, atol: float) -> bool:
        """Whether the margin at y is within the integrator's error scale for
        the position, atol + rtol |x|_inf."""
        x = y[:self.n]
        return self.margin(x) <= atol + rtol * float(np.abs(x).max())


class _NormRecords:
    """Times at which a growing norm first reaches each of a doubling sequence
    of levels: ``start``, then twice the last recorded norm.

    ``records`` holds the (t, norm) pairs in order and ``level`` the norm the
    next record needs.  Both the connector's lift and the variational
    integrator's blow-up watch read a finite-parameter blow-up off the gaps
    between record times."""

    __slots__ = ("level", "records")

    def __init__(self, start: float):
        self.level = start
        self.records: list[tuple[float, float]] = []

    def add(self, t: float, norm: float) -> None:
        self.records.append((t, norm))
        self.level = 2.0 * norm

    def gaps(self, count: int) -> Optional[list[float]]:
        """The last ``count`` gaps between record times, oldest first; None
        while there are fewer."""
        if len(self.records) <= count:
            return None
        times = [t for t, _ in self.records[-count - 1:]]
        return [b - a for a, b in zip(times, times[1:])]


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 10**6
    blowup_norm: ClassVar[float] = 1e8   # |(x, v)|_inf that ends a ray with BLOW_UP
    prefer_oracle: bool = False

    def __post_init__(self):
        # NaN tolerances, or atol = 0 on a state with exact zeros, give NaN steps
        if not (math.isfinite(self.rtol) and self.rtol >= 0.0):
            raise ValueError(f"rtol must be finite and non-negative, got {self.rtol}")
        if not (math.isfinite(self.atol) and self.atol > 0.0):
            raise ValueError(f"atol must be finite and positive, got {self.atol}")


@dataclass
class GeodesicPath:
    """Integrated ray: node times, states whose first 2n entries are the chart
    position and velocity, typed termination, dense output and the
    integrator's work.

    A stationary path (zero velocity or zero horizon) is the exact solution
    of ``_straight``: it was not integrated, its dense output has the single
    node 0, and it counts no work.
    """

    model: ManifoldModel
    ts: np.ndarray            # accepted step times, strictly monotone from 0
    states: np.ndarray        # (len(ts), 2n + extra): position, velocity, extra
    termination: Termination
    term_time: float
    sol: DenseSolution
    rejected: int = 0         # rejected trial steps

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def steps(self) -> int:
        """Accepted integrator steps."""
        return len(self.sol.ts) - 1

    @property
    def rhs_evals(self) -> int:
        """Right-hand-side calls: the initial slope, the first-step probe, six per attempt."""
        return 2 + 6 * (self.steps + self.rejected) if self.steps else 0

    @property
    def nodes(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        n = self.dim
        return [(float(t), s[:n], s[n:2 * n]) for t, s in zip(self.ts, self.states)]

    def state(self, t: float) -> np.ndarray:
        return self.sol(t)

    def point(self, t: float) -> np.ndarray:
        return self.state(t)[: self.dim]

    def velocity(self, t: float) -> np.ndarray:
        return self.state(t)[self.dim:2 * self.dim]

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1, : self.dim]


def _initial_step(rhs: Callable, y0: np.ndarray, f0: np.ndarray, t_end: float,
                  rtol: float, atol: float) -> float:
    """First trial step from the local error model (Hairer, Norsett & Wanner, II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _dp_step(rhs: Callable, t: float, y: np.ndarray, f: np.ndarray, h: float,
             K: np.ndarray, stages: list, K_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Dormand-Prince trial step of size h; the 7 stage slopes land in K.

    ``stages`` holds (s, K[:s].T, A[s, :s], C[s]) for s = 1..5 and ``K_b`` is
    K[:-1].T: views of K, built once per integration."""
    K[0] = f
    for s, K_s, a, c in stages:
        K[s] = rhs(t + c * h, y + np.dot(K_s, a) * h)
    y_new = y + h * np.dot(K_b, _B)
    f_new = rhs(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _straight(y0: np.ndarray, slope: np.ndarray,
              t_end: float) -> tuple[np.ndarray, np.ndarray, DenseSolution]:
    """(ts, states, sol) of the exact path y0 + t slope, for a state no
    integrator needs to move: nodes 0 and t_end, or 0 alone for t_end = 0;
    node states bitwise y0 wherever slope is 0; one ``_Line`` that answers
    every finite t, the dense output's single node 0.  A non-finite t_end
    raises ValueError."""
    if not math.isfinite(t_end):
        raise ValueError(f"integration horizon not finite: {t_end}")
    ts = np.array([0.0, t_end]) if t_end != 0.0 else np.zeros(1)
    states = np.tile(y0, (len(ts), 1))
    moving = slope != 0.0
    states[:, moving] += ts[:, None] * slope[moving]
    return ts, states, DenseSolution(ts[:1], [_Line(y0, slope)])


def _integrate(
    rhs: Callable,
    y0: np.ndarray,
    t_end: float,
    rtol: float,
    atol: float,
    max_steps: int,
    monitors: Sequence[tuple[Monitor, Termination]] = (),
    stop: Optional[StopHook] = None,
) -> tuple[np.ndarray, np.ndarray, DenseSolution, Termination, float, int]:
    """Dormand-Prince 5(4) from t = 0 to t_end, watching the monitors.

    Steps are taken with the 5th-order solution.  A trial step is accepted
    when the RMS of its error estimate over atol + max(|y|, |y_new|) * rtol
    is below 1; the next step is scaled by 0.9 * err^(-1/5), limited to
    [0.2, 10] and to at most 1 right after a rejection.  A trial step below
    10 ulp(t) or NaN ends the path with CHART_EXIT at the last accepted
    state, so term_time == ts[-1], when a chart-margin monitor
    (``_ChartMargin``) reads at most atol + rtol |x|_inf there, the error
    scale of the position x; otherwise, and before any accepted step, it
    raises StepSizeUnderflow, as do more than max_steps accepted steps.  A
    non-finite y0 or t_end raises ValueError.  When a
    monitor's fn(t, y) is non-positive after a step, the path ends with its
    termination at fn's first zero on that step's interpolant (Brent); the
    earliest zero wins, the earlier-listed monitor on a tie.  After an
    accepted step with no monitor zero, ``stop(s_old, s, y, segment)`` may
    return a termination, which ends the path at that step end, s; it sees
    the stepping variable s = |t| and the step's interpolant in s.  rtol is
    raised to at least 100 machine epsilons.
    Overflow and invalid-operation warnings are suppressed for the whole
    integration, the monitors and their Brent root finds included.
    A negative t_end is integrated forward in s = -t, which takes the same
    steps as stepping backward in t; t_end = 0 gives the one-node path of
    ``_straight``.
    Returns (ts, ys, sol, termination, term_time, rejected trial steps).
    """
    y = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"initial state not finite: {y}")
    if not math.isfinite(t_end):
        raise ValueError(f"integration horizon not finite: {t_end}")
    if t_end == 0:
        return (*_straight(y, np.zeros_like(y), 0.0), Termination.REACHED_TMAX, 0.0, 0)
    sign = math.copysign(1.0, t_end)
    if sign < 0:
        forward = rhs
        rhs = lambda s, z: -forward(-s, z)
    t_end = abs(t_end)
    rtol = max(rtol, _RTOL_FLOOR)
    # overflow inside a trial step surfaces as a typed failure, not a warning;
    # one context for the whole loop, as numpy 2 cannot re-enter an errstate
    with np.errstate(over="ignore", invalid="ignore"):
        f = rhs(0.0, y)
        h_abs = _initial_step(rhs, y, f, t_end, rtol, atol)
        accepted = rejected = 0
        K = np.empty((7, y.size))
        K_T, K_b = K.T, K[:-1].T
        stages = [(s, K[:s].T, a, c) for s, a, c in _STAGES]
        t = 0.0
        abs_y = np.abs(y)
        ts = [t]
        ys = [y]
        segments = []
        termination = Termination.REACHED_TMAX
        term_time = t_end
        chart = next((fn for fn, _ in monitors if isinstance(fn, _ChartMargin)), None)
        while True:
            min_step = 10 * math.ulp(t)
            h_abs = max(h_abs, min_step)
            retried = False
            while h_abs >= min_step:   # False also for a NaN step
                t_new = min(t + h_abs, t_end)
                h = t_new - t
                h_abs = abs(h)
                y_new, f_new = _dp_step(rhs, t, y, f, h, K, stages, K_b)
                abs_y_new = np.abs(y_new)
                scale = atol + np.maximum(abs_y, abs_y_new) * rtol
                err = _rms(np.dot(K_T, _E) * h / scale)
                if err < 1:
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                rejected += 1
                retried = True
            else:   # the step underflowed: at a chart edge, the path ends there
                if not (accepted and chart is not None and chart.at_edge(y, rtol, atol)):
                    raise StepSizeUnderflow(sign * t)
                termination, term_time = Termination.CHART_EXIT, t
                break
            factor = _MAX_FACTOR if err == 0 else min(
                _MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            if retried:
                factor = min(1, factor)
            h_abs *= factor
            accepted += 1
            segment = _Segment(t, h, y, K_T.dot(_P))
            segments.append(segment)
            hit = None
            for fn, kind in monitors:
                if fn(sign * t_new, y_new) <= 0.0:
                    g = lambda s: fn(sign * s, segment(s))
                    if g(t) <= 0.0:
                        t_star = t
                    else:
                        t_star = _brent(g, t, t_new, xtol=1e-12, rtol=8.9e-16)
                    if hit is None or t_star < hit[0]:
                        hit = (t_star, kind)
            if hit is not None:
                term_time, termination = hit
                ts.append(term_time)
                ys.append(segment(term_time))
                break
            t_old = t
            t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
            ts.append(t)
            ys.append(y)
            if stop is not None:
                kind = stop(t_old, t, y, segment)
                if kind is not None:
                    termination, term_time = kind, t
                    break
            if accepted >= max_steps:
                raise StepSizeUnderflow(sign * t, "max_steps exceeded")
            if t >= t_end:
                break
    ts_arr = np.asarray(ts) if sign > 0 else 0.0 - np.asarray(ts)   # no -0.0 start
    return (ts_arr, np.asarray(ys), DenseSolution(ts_arr, segments, sign), termination,
            sign * term_time, rejected)


def geodesic_rhs(model: ManifoldModel) -> Callable:
    """(x, v)' = (v, -Gamma(x)(v, v)), with Gamma read from ``connection`` once, here.

    Gamma v is one 2-D product over the flattened (k, i) rows, bitwise equal
    to the stacked ``Gamma @ v``; ``Gamma.dot(v)`` on the 3-D array itself can
    differ from it in the last bit."""
    n = model.dim
    christoffel = connection(model)[0]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        v = y[n:]
        Gv = np.asarray(christoffel(y[:n]), dtype=float).reshape(n * n, n).dot(v).reshape(n, n)
        return np.concatenate((v, (-Gv).dot(v)))

    return rhs


def ray_monitors(model: ManifoldModel) -> list[tuple[Monitor, Termination]]:
    """The monitors that end every ray integration: the chart margin (none for
    full-R^n charts), then blow-up, |(x, v)|_inf reaching
    ``IntegratorConfig.blowup_norm``."""
    n = model.dim
    blowup_norm = IntegratorConfig.blowup_norm
    blow_up = (lambda t, y: blowup_norm - float(np.abs(y[:2 * n]).max()), Termination.BLOW_UP)
    if model.domain.is_trivial:
        return [blow_up]
    return [(_ChartMargin(model), Termination.CHART_EXIT), blow_up]


def integrate_geodesic(
    model: ManifoldModel,
    p0,
    v0,
    cfg: IntegratorConfig | None = None,
    t_max: float = 1.0,
) -> GeodesicPath:
    cfg = cfg or IntegratorConfig()
    t_end = float(t_max)
    p0, v0 = check_tangent(model, p0, v0)
    y0 = np.concatenate([p0, v0])
    if not np.any(v0):
        ts, states, sol = _straight(y0, np.zeros_like(y0), t_end)
        return GeodesicPath(model, ts, states, Termination.REACHED_TMAX, t_end, sol)
    ts, ys, sol, term, t_term, rejected = _integrate(
        geodesic_rhs(model), y0, t_end, cfg.rtol, cfg.atol, cfg.max_steps,
        ray_monitors(model))
    return GeodesicPath(model, ts, ys, term, t_term, sol, rejected)


def exp(model: ManifoldModel, p, v, cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Exponential map: time-1 endpoint of the geodesic with initial data (p, v)."""
    cfg = cfg or IntegratorConfig()
    p, v = check_tangent(model, p, v)
    if cfg.prefer_oracle and model.oracle is not None and np.any(v):
        return np.asarray(model.oracle.point(p, v, 1.0), dtype=float)
    path = integrate_geodesic(model, p, v, cfg, t_max=1.0)
    if path.termination is not Termination.REACHED_TMAX:
        raise DomainEscape(path.termination, path.term_time)
    return path.endpoint


def oracle_geodesic(model: ManifoldModel, p, v, t: float) -> np.ndarray:
    """Closed-form geodesic point in chart coordinates; NoOracle if unavailable."""
    if model.oracle is None:
        raise NoOracle(model.name)
    return np.asarray(model.oracle.point(*check_tangent(model, p, v), t))


def oracle_geodesic_embedding(model: ManifoldModel, p, v, t: float) -> np.ndarray:
    if model.oracle is None:
        raise NoOracle(model.name)
    return np.asarray(model.oracle.point_embedding(*check_tangent(model, p, v), t))


def energy(model: ManifoldModel, x: np.ndarray, v: np.ndarray) -> float:
    return float(v @ np.asarray(model.metric(x), dtype=float) @ v)


def energy_drift(path: GeodesicPath) -> float:
    """Max deviation of g(x', x') from its initial value over the path nodes."""
    nodes = path.nodes
    e0 = energy(path.model, *nodes[0][1:])
    return max(abs(energy(path.model, x, v) - e0) for _, x, v in nodes)
