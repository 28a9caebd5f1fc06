"""Seeded operation streams for the three workloads, with reference checks.

Every operation is one public geoconnect call.  A workload is an endless
stream of blocks; each block holds a fixed number of operations of each kind
in an order shuffled by the seed, and a run ends on a block boundary, so
every run sees the same mix.  Inputs are drawn inside each kind's range from
one seeded generator, so a seed fixes the whole stream and the library sees
only the generated numbers.

Each kind has a generator, the call, and a check against a reference that
does not come from the code path under test (closed forms, oracles, an
independent second integration, or a conserved quantity).  A check raises
``CheckFailed``; a typed refusal that the reference predicts is not a failure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

HALFPLANE_INI = """\
[manifold]
type = dsl
name = halfplane-dsl
dim = 2
signature = +,+
g_1_1 = 1/x2^2
g_2_2 = 1/x2^2
lower = -inf, 0
"""


class CheckFailed(Exception):
    """An operation's result disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


@dataclass(frozen=True)
class Kind:
    gen: Callable[[np.random.Generator], dict]
    call: Callable          # (gc, models, cfgs, **params) -> result
    check: Callable         # (gc, ref, cfgs, result, error, **params) -> None


def build_models(gc) -> dict:
    """The models every workload uses, built once during set-up."""
    return {
        "sphere2": gc.model_registry("sphere2"),
        "hyperbolic2": gc.model_registry("hyperbolic2"),
        "paraboloid": gc.model_registry("paraboloid"),
        "desitter2": gc.model_registry("desitter", n=2),
        "desitter3": gc.model_registry("desitter", n=3),
        "clifton_pohl": gc.model_registry("clifton_pohl"),
        "euclidean2": gc.model_registry("euclidean", n=2),
        "dsl": gc.model_from_config_text(HALFPLANE_INI),
    }


def build_configs(gc) -> dict:
    return {
        "shoot": gc.IntegratorConfig(),
        # conjugate times are only needed to ~1e-6
        "scan": gc.IntegratorConfig(rtol=1e-8, atol=1e-10),
        "connect": gc.ConnectConfig(),
        # closed-form frames keep the de Sitter refusals' failing lifts cheap
        "connect_ds": gc.ConnectConfig(integrator=gc.IntegratorConfig(
            rtol=1e-9, atol=1e-11, max_steps=4000, prefer_oracle=True)),
        "probe": gc.ProbeConfig(norm_cap=1e3),
    }


def warm_up(gc, models, cfgs) -> None:
    """One short call into each layer on fixed inputs, before any timed operation."""
    for key, p in (("sphere2", (1.2, 0.3)), ("hyperbolic2", (0.0, 1.0)), ("dsl", (0.0, 1.0)),
                   ("paraboloid", (0.2, -0.1)), ("desitter2", (0.3, -0.2)),
                   ("desitter3", (1.2, 0.3, 0.1)), ("clifton_pohl", (1.0, 0.5))):
        v = np.full(len(p), 0.3)
        gc.integrate_geodesic(models[key], p, v, cfgs["shoot"], t_max=0.1)
    gc.exp(models["sphere2"], (1.2, 0.3), (0.1, 0.1), cfgs["shoot"])
    gc.first_conjugate_time(models["sphere2"], (1.2, 0.3), (1.0, 0.0), 0.5, cfgs["scan"])
    gc.connect(models["sphere2"], (1.2, 0.3), (1.25, 0.35), cfgs["connect"])
    gc.connect(models["desitter2"], (0.0, 0.0), (0.1, 0.1), cfgs["connect_ds"])


def _t(a) -> tuple:
    return tuple(float(x) for x in np.ravel(a))


# -- geometry helpers (references) -----------------------------------------

def sphere_embed(x) -> np.ndarray:
    th, ph = x
    return np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])


def sphere_chart(X) -> np.ndarray:
    return np.array([math.acos(max(-1.0, min(1.0, X[2]))), math.atan2(X[1], X[0])])


def sphere_angle(p, q) -> float:
    return math.acos(max(-1.0, min(1.0, float(sphere_embed(p) @ sphere_embed(q)))))


def hyperbolic_distance(p, q) -> float:
    d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    return math.acosh(1.0 + d2 / (2.0 * p[1] * q[1]))


def desitter_eta_from_origin(q) -> float:
    """eta(P, Q) for P = (1, 0, 0), the embedding of the chart point (0, 0)."""
    return math.cosh(q[1]) * math.cos(q[0])


def _sphere_tangent(rng, speed_lo: float, speed_hi: float, clearance: float = 0.4):
    """A point and velocity whose great circle keeps ``clearance`` from the poles.

    The polar chart is singular at the poles; circles that pass close to them
    cost orders of magnitude more steps and would dominate the timing.
    """
    while True:
        th = rng.uniform(0.6, math.pi - 0.6)
        ph = rng.uniform(-math.pi, math.pi)
        b = rng.uniform(0.0, 2.0 * math.pi)
        P = sphere_embed((th, ph))
        e_th = np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)])
        e_ph = np.array([-math.sin(ph), math.cos(ph), 0.0])
        U = math.cos(b) * e_th + math.sin(b) * e_ph
        if abs(np.cross(P, U)[2]) >= math.sin(clearance):
            c = rng.uniform(speed_lo, speed_hi)
            return np.array([th, ph]), c * np.array([math.cos(b), math.sin(b) / math.sin(th)])


def _halfplane_tangent(rng, speed_lo: float, speed_hi: float):
    p = np.array([rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-0.5, 0.5))])
    b = rng.uniform(0.0, 2.0 * math.pi)
    c = rng.uniform(speed_lo, speed_hi)
    return p, c * p[1] * np.array([math.cos(b), math.sin(b)]), c


# -- shoot ------------------------------------------------------------------

def _gen_geo_sphere(rng):
    p, v = _sphere_tangent(rng, 0.5, 1.5)
    return {"p": _t(p), "v": _t(v), "t": rng.uniform(0.5, 3.0)}


def _call_geo(model_key):
    def call(gc, models, cfgs, p, v, t):
        return gc.integrate_geodesic(models[model_key], p, v, cfgs["shoot"], t_max=t)
    return call


def _check_geo_sphere(gc, ref, cfgs, path, error, p, v, t):
    require(error is None, f"raised {error!r}")
    require(path.termination.value == "ReachedTmax", f"termination {path.termination}")
    want = gc.oracle_geodesic_embedding(ref["sphere2"], p, v, t)
    err = float(np.linalg.norm(sphere_embed(path.endpoint) - want))
    require(err < 1e-7, f"sphere endpoint off the great circle by {err:.2e}")


def _gen_geo_meridian(rng):
    th = rng.uniform(0.6, math.pi - 0.6)
    sign = -1.0 if rng.uniform() < 0.5 else 1.0
    c = rng.uniform(0.5, 1.5)
    to_pole = th if sign < 0 else math.pi - th
    return {"p": (th, rng.uniform(-math.pi, math.pi)), "v": (sign * c, 0.0),
            "t": to_pole / c * rng.uniform(1.1, 1.5)}


def _check_geo_meridian(gc, ref, cfgs, path, error, p, v, t):
    require(error is None, f"raised {error!r}")
    require(path.termination.value == "ChartExit", f"termination {path.termination}")
    to_pole = p[0] if v[0] < 0 else math.pi - p[0]
    err = abs(path.term_time - to_pole / abs(v[0]))
    require(err < 1e-7, f"meridian reaches the pole {err:.2e} off the closed form")


def _gen_geo_halfplane(rng):
    p, v, _ = _halfplane_tangent(rng, 0.5, 1.5)
    return {"p": _t(p), "v": _t(v), "t": rng.uniform(0.5, 2.0)}


def _check_geo_hyperbolic(gc, ref, cfgs, path, error, p, v, t):
    require(error is None, f"raised {error!r}")
    require(path.termination.value == "ReachedTmax", f"termination {path.termination}")
    length = math.sqrt(float(np.asarray(v) @ ref["hyperbolic2"].metric(np.asarray(p)) @ np.asarray(v))) * t
    err = abs(hyperbolic_distance(p, path.endpoint) - length)
    require(err < 1e-7 * max(1.0, length), f"hyperbolic distance off the length by {err:.2e}")


def _check_geo_dsl(gc, ref, cfgs, path, error, p, v, t):
    require(error is None, f"raised {error!r}")
    want = gc.integrate_geodesic(ref["hyperbolic2"], p, v, cfgs["shoot"], t_max=t)
    require(path.termination == want.termination,
            f"DSL termination {path.termination}, builtin {want.termination}")
    err = float(np.linalg.norm(path.endpoint - want.endpoint))
    require(err < 1e-6 * max(1.0, float(np.linalg.norm(want.endpoint))),
            f"DSL endpoint off the builtin upper half-plane by {err:.2e}")


def _gen_geo_paraboloid(rng):
    p = rng.uniform(-1.0, 1.0, 2)
    b = rng.uniform(0.0, 2.0 * math.pi)
    g = np.array([[1.0 + 4.0 * p[0] ** 2, 4.0 * p[0] * p[1]],
                  [4.0 * p[0] * p[1], 1.0 + 4.0 * p[1] ** 2]])
    u = np.array([math.cos(b), math.sin(b)])
    v = rng.uniform(0.5, 1.5) * u / math.sqrt(float(u @ g @ u))
    return {"p": _t(p), "v": _t(v), "t": rng.uniform(0.5, 2.0)}


def _energy_drift(model, path, below: float = np.inf) -> float:
    """Largest change of g(x', x') over path nodes whose state stays below ``below``."""
    n = model.dim
    s0 = path.states[0]
    e0 = float(s0[n:] @ model.metric(s0[:n]) @ s0[n:])
    worst = 0.0
    for s in path.states:
        if np.max(np.abs(s)) < below:
            worst = max(worst, abs(float(s[n:] @ model.metric(s[:n]) @ s[n:]) - e0))
    return worst / max(1.0, abs(e0))


def _check_geo_paraboloid(gc, ref, cfgs, path, error, p, v, t):
    require(error is None, f"raised {error!r}")
    require(path.termination.value == "ReachedTmax", f"termination {path.termination}")
    drift = _energy_drift(ref["paraboloid"], path)
    require(drift < 1e-8, f"paraboloid energy drift {drift:.2e}")


def _gen_geo_desitter3(rng):
    p = np.array([rng.uniform(0.7, math.pi - 0.7), rng.uniform(-math.pi, math.pi),
                  rng.uniform(-0.5, 0.5)])
    v = rng.standard_normal(3)
    v *= rng.uniform(0.3, 1.0) / np.linalg.norm(v)
    return {"p": _t(p), "v": _t(v), "t": rng.uniform(0.5, 1.5)}


def _check_geo_desitter3(gc, ref, cfgs, path, error, p, v, t):
    require(error is None, f"raised {error!r}")
    require(path.termination.value in ("ReachedTmax", "ChartExit"),
            f"termination {path.termination}")
    m = ref["desitter3"]
    want = gc.oracle_geodesic_embedding(m, p, v, path.term_time)
    err = float(np.linalg.norm(m.embedding(path.endpoint) - want))
    require(err < 1e-6 * max(1.0, float(np.linalg.norm(want))),
            f"de Sitter(3) endpoint off the closed form by {err:.2e}")


def _gen_geo_clifton_pohl(rng):
    r = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.0, 2.0 * math.pi)
    b = rng.uniform(0.0, 2.0 * math.pi)
    c = rng.uniform(0.5, 1.5)
    return {"p": (r * math.cos(a), r * math.sin(a)), "v": (c * math.cos(b), c * math.sin(b)),
            "t": 5.0}


def _check_geo_clifton_pohl(gc, ref, cfgs, path, error, p, v, t):
    require(error is None, f"raised {error!r}")
    term = path.termination.value
    require(term in ("BlowUp", "ReachedTmax"), f"termination {term}")
    if term == "BlowUp":
        peak = float(np.max(np.abs(path.states[-1])))
        require(abs(peak - cfgs["shoot"].blowup_norm) < 1e-3 * cfgs["shoot"].blowup_norm,
                f"BlowUp located at state norm {peak:.3e}")
    drift = _energy_drift(ref["clifton_pohl"], path, below=1e3)
    require(drift < 1e-8, f"Clifton-Pohl energy drift {drift:.2e}")


def _gen_exp_sphere(rng):
    p, v = _sphere_tangent(rng, 0.5, 2.5)
    return {"p": _t(p), "v": _t(v)}


def _call_exp(model_key):
    def call(gc, models, cfgs, p, v):
        return gc.exp(models[model_key], p, v, cfgs["shoot"])
    return call


def _check_exp_sphere(gc, ref, cfgs, x, error, p, v):
    require(error is None, f"raised {error!r}")
    want = gc.oracle_geodesic_embedding(ref["sphere2"], p, v, 1.0)
    err = float(np.linalg.norm(sphere_embed(x) - want))
    require(err < 1e-7, f"sphere exp off the great circle by {err:.2e}")


def _gen_exp_desitter2(rng):
    p = np.array([rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5)])
    v = rng.standard_normal(2)
    v *= rng.uniform(0.3, 1.0) / np.linalg.norm(v)
    return {"p": _t(p), "v": _t(v)}


def _check_exp_desitter2(gc, ref, cfgs, x, error, p, v):
    require(error is None, f"raised {error!r}")
    m = ref["desitter2"]
    want = gc.oracle_geodesic_embedding(m, p, v, 1.0)
    err = float(np.linalg.norm(m.embedding(x) - want))
    require(err < 1e-7 * max(1.0, float(np.linalg.norm(want))),
            f"de Sitter exp off the closed form by {err:.2e}")


# -- connect ----------------------------------------------------------------

def _sphere_pair_near(rng):
    """Both points 0.7 from the poles, 0.6 to 0.9 apart: the local_log fast path.

    p50 of the workload lies among these and the hyperbolic pairs; a narrow
    distance range keeps it steady from seed to seed.
    """
    while True:
        p, v = _sphere_tangent(rng, 1.0, 1.0, clearance=0.0)
        ang = rng.uniform(0.6, 0.9)
        q = sphere_chart(np.cos(ang) * sphere_embed(p)
                         + np.sin(ang) * _sphere_unit_tangent(p, v))
        if 0.7 <= p[0] <= math.pi - 0.7 and 0.7 <= q[0] <= math.pi - 0.7:
            return {"p": _t(p), "q": _t(q)}


def _sphere_unit_tangent(p, v) -> np.ndarray:
    th, ph = p
    J = np.array([[math.cos(th) * math.cos(ph), -math.sin(th) * math.sin(ph)],
                  [math.cos(th) * math.sin(ph), math.sin(th) * math.cos(ph)],
                  [-math.sin(th), 0.0]])
    U = J @ np.asarray(v)
    return U / np.linalg.norm(U)


def _sphere_pair_far(rng):
    """Two points on one hemisphere, across the pole from each other.

    The chart difference points along the parallel, away from the short arc
    over the pole, so Newton from it does not land on a regular ray and the
    connector lifts.  The lift's cost is chaotic in the pair: random far pairs
    took 0.4 to 16 s.  One fixed geometry, turned by a random rotation and
    reflection, lifts in 0.3 to 0.5 s and keeps the throughput steady.
    """
    th0, th1, dph = 0.8, 0.9, 2.7
    if rng.uniform() < 0.5:
        th0, th1 = math.pi - th0, math.pi - th1
    if rng.uniform() < 0.5:
        dph = -dph
    ph = rng.uniform(-math.pi, math.pi)
    q_ph = (ph + dph + math.pi) % (2.0 * math.pi) - math.pi
    return {"p": (th0, ph), "q": (th1, q_ph)}


def _call_connect(model_key, cfg_key="connect"):
    def call(gc, models, cfgs, p, q):
        return gc.connect(models[model_key], p, q, cfgs[cfg_key])
    return call


def _check_round_trip(gc, model, cfg, outcome, p, q):
    require(outcome.connected, f"status {outcome.status}")
    x = gc.exp(model, p, outcome.v, cfg.integrator)
    delta = np.asarray(x) - np.asarray(q)
    for idx, per in model.metadata.get("periodic", {}).items():
        delta[idx] = (delta[idx] + 0.5 * per) % per - 0.5 * per
    err = float(np.linalg.norm(delta))
    require(err <= cfg.connect_tol, f"exp round trip misses q by {err:.2e}")


def _check_connect_sphere(gc, ref, cfgs, outcome, error, p, q):
    require(error is None, f"raised {error!r}")
    m = ref["sphere2"]
    _check_round_trip(gc, m, cfgs["connect"], outcome, p, q)
    v = outcome.v
    length = math.sqrt(float(v @ m.metric(np.asarray(p)) @ v))
    err = abs(length - sphere_angle(p, q))
    require(err < 1e-5, f"sphere geodesic length off the arc by {err:.2e}")


def _gen_hyperbolic_pair(rng):
    p, v, _ = _halfplane_tangent(rng, 1.0, 1.0)
    d = rng.uniform(0.6, 0.9)
    # closed-form geodesic of the upper half-plane through p with unit speed v
    return {"p": _t(p), "q": _t(_halfplane_geodesic(p, v, d))}


def _halfplane_geodesic(p, v, s) -> np.ndarray:
    """Point at arc length ``s`` along the unit-speed half-plane geodesic (p, v)."""
    x0, y0 = p
    vx, vy = np.asarray(v) / y0
    if abs(vx) < 1e-14:
        return np.array([x0, y0 * math.exp(math.copysign(s, vy))])
    # circle centred on the boundary: x = cx + R tanh, y = R / cosh
    cx = x0 + y0 * vy / vx
    R = math.hypot(x0 - cx, y0)
    u0 = math.atanh((x0 - cx) / R)
    u = u0 + math.copysign(s, vx)
    return np.array([cx + R * math.tanh(u), R / math.cosh(u)])


def _check_connect_hyperbolic(gc, ref, cfgs, outcome, error, p, q):
    require(error is None, f"raised {error!r}")
    m = ref["hyperbolic2"]
    _check_round_trip(gc, m, cfgs["connect"], outcome, p, q)
    v = outcome.v
    length = math.sqrt(float(v @ m.metric(np.asarray(p)) @ v))
    err = abs(length - hyperbolic_distance(p, q))
    require(err < 1e-5, f"hyperbolic geodesic length off the distance by {err:.2e}")


def _gen_desitter_reachable(rng):
    while True:
        q = (rng.uniform(-math.pi, math.pi), rng.uniform(-2.0, 2.0))
        if -0.8 <= desitter_eta_from_origin(q) <= 3.0:
            return {"p": (0.0, 0.0), "q": q}


def _gen_desitter_unreachable(rng):
    # eta in [-1.9, -1.4]: clear of the boundary, and refusals of similar cost
    while True:
        q = (rng.uniform(math.pi - 0.9, math.pi + 0.9), rng.uniform(-1.5, 1.5))
        if -1.9 <= desitter_eta_from_origin(q) <= -1.4:
            return {"p": (0.0, 0.0), "q": ((q[0] + math.pi) % (2.0 * math.pi) - math.pi, q[1])}


def _check_connect_desitter(gc, ref, cfgs, outcome, error, p, q):
    """Reachable from p = (0, 0) exactly when eta(P, Q) > -1."""
    require(error is None, f"raised {error!r}")
    m = ref["desitter2"]
    if desitter_eta_from_origin(q) > -1.0:
        require(outcome.connected, f"reachable target refused: {outcome.status}")
        x = gc.exp(m, p, outcome.v, cfgs["connect_ds"].integrator)
        err = float(np.linalg.norm(m.embedding(np.asarray(x)) - m.embedding(np.asarray(q))))
        # the embedding magnifies a chart error by at most cosh(tau) < 4 here
        require(err <= cfgs["connect_ds"].connect_tol * 10.0,
                f"exp round trip misses q by {err:.2e}")
    else:
        require(not outcome.connected, "unreachable target reported connected")
        require(outcome.v is None, "refusal carries a tangent vector")


def _gen_paraboloid_pair(rng):
    p = rng.uniform(-0.5, 0.5, 2)
    return {"p": _t(p), "q": _t(p + rng.uniform(-0.4, 0.4, 2))}


def _check_connect_paraboloid(gc, ref, cfgs, outcome, error, p, q):
    require(error is None, f"raised {error!r}")
    _check_round_trip(gc, ref["paraboloid"], cfgs["connect"], outcome, p, q)


# -- survey -----------------------------------------------------------------

def _gen_scan_sphere(rng):
    p, v = _sphere_tangent(rng, 1.0, 1.0)
    return {"p": _t(p), "u": _t(v), "t_max": rng.uniform(3.3, 4.0)}


def _call_scan(model_key):
    def call(gc, models, cfgs, p, u, t_max):
        return gc.first_conjugate_time(models[model_key], p, u, t_max, cfgs["scan"])
    return call


def _check_scan_pi(gc, ref, cfgs, t_star, error, p, u, t_max):
    require(error is None, f"raised {error!r}")
    require(t_star is not None and abs(t_star - math.pi) < 1e-4,
            f"first conjugate time {t_star}, expected pi")


def _desitter_direction(rng, causal: str):
    p = np.array([rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5)])
    # orthonormal frame of diag(cosh^2 tau, -1): e_s along theta, e_t along tau
    es = np.array([1.0 / math.cosh(p[1]), 0.0])
    et = np.array([0.0, 1.0])
    chi = rng.uniform(-1.0, 1.0)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    if causal == "spacelike":
        u = math.cosh(chi) * es + math.sinh(chi) * et
    elif causal == "timelike":
        u = math.sinh(chi) * es + math.cosh(chi) * et
    else:
        u = (es + sign * et) / math.sqrt(2.0)
    return p, sign * u


def _gen_scan_ds_space(rng):
    p, u = _desitter_direction(rng, "spacelike")
    return {"p": _t(p), "u": _t(u), "t_max": rng.uniform(3.3, 4.0)}


def _gen_scan_ds_time(rng):
    p, u = _desitter_direction(rng, "timelike")
    return {"p": _t(p), "u": _t(u), "t_max": rng.uniform(4.0, 8.0)}


def _gen_scan_ds_null(rng):
    p, u = _desitter_direction(rng, "null")
    return {"p": _t(p), "u": _t(u), "t_max": rng.uniform(4.0, 8.0)}


def _check_scan_none(gc, ref, cfgs, t_star, error, p, u, t_max):
    require(error is None, f"raised {error!r}")
    require(t_star is None, f"conjugate point at {t_star} on a timelike or null ray")


def _gen_scan_clifton_pohl(rng):
    g = _gen_geo_clifton_pohl(rng)
    return {"p": g["p"], "u": g["v"], "t_max": 5.0}


def _check_scan_clifton_pohl(gc, ref, cfgs, t_star, error, p, u, t_max):
    """Incomplete rays end in a typed DomainEscape; a conjugate time lies in range."""
    if error is not None:
        require(isinstance(error, gc.DomainEscape), f"raised {error!r}")
        require(error.termination.value in ("BlowUp", "ChartExit"),
                f"escape termination {error.termination}")
        require(0.0 < error.t <= t_max, f"escape at t = {error.t}")
    elif t_star is not None:
        require(0.0 < t_star <= t_max, f"conjugate time {t_star} out of range")


def _sphere_point(rng, colatitude: float) -> tuple:
    """A point at least ``colatitude`` from both poles."""
    return (rng.uniform(colatitude, math.pi - colatitude), rng.uniform(-math.pi, math.pi))


def _gen_locus(rng):
    # every ray through the antipode stays clear of the poles' chart singularity
    return {"p": _sphere_point(rng, 1.0)}


def _call_locus(gc, models, cfgs, p):
    return gc.conjugate_locus_sample(models["sphere2"], p, t_max=3.5, cfg=cfgs["scan"],
                                     count=4, refine=1)


def _check_locus(gc, ref, cfgs, sample, error, p):
    require(error is None, f"raised {error!r}")
    rows = sample.rays
    require(all(r["status"] == "conjugate" and abs(r["t_star"] - math.pi) < 1e-4
                for r in rows), "a ray misses t* = pi")
    require(len(sample.clusters) == 1, f"{len(sample.clusters)} clusters, expected 1")
    err = float(np.linalg.norm(sample.clusters[0] + sphere_embed(p)))
    require(err < 1e-3, f"locus cluster {err:.2e} from the antipode")
    require(sample.diagnostics.get("cluster_count_stable") is True,
            "cluster count changed under refinement")


def _gen_gauss(rng):
    if rng.uniform() < 0.5:
        return {"model": "sphere2", "p": _sphere_point(rng, 1.3), "r_max": rng.uniform(2.0, 2.8)}
    p, _, _ = _halfplane_tangent(rng, 1.0, 1.0)
    return {"model": "hyperbolic2", "p": _t(p), "r_max": rng.uniform(1.5, 2.0)}


def _call_gauss(gc, models, cfgs, model, p, r_max):
    return gc.gauss_lemma_check(models[model], p, np.linspace(r_max / 8.0, r_max, 8),
                                direction_count=8, cfg=cfgs["scan"], tol=1e-6)


def _check_gauss(gc, ref, cfgs, rep, error, model, p, r_max):
    require(error is None, f"raised {error!r}")
    require(rep["verdict"] == "pass",
            f"Gauss lemma fails: radial {rep['max_radial_deviation']:.2e}, "
            f"orthogonal {rep['max_orthogonality_deviation']:.2e}")


def _gen_disprison(rng):
    seeds = []
    for _ in range(2):
        p, v = _sphere_tangent(rng, 0.8, 1.2)
        seeds.append((_t(p), _t(v)))
    # Clifton-Pohl along an axis: u(t) = u0 / (1 - a t / u0) blows up at u0 / a
    u0 = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.5, 1.5)
    return {"sphere_seeds": tuple(seeds), "cp_seed": ((u0, 0.0), (a, 0.0)),
            "horizon": rng.uniform(14.0, 20.0)}


def _call_disprison(gc, models, cfgs, sphere_seeds, cp_seed, horizon):
    sphere = gc.disprisonment_probe(
        models["sphere2"], [gc.Tangent.of(p, v) for p, v in sphere_seeds], horizon=horizon)
    cp = gc.disprisonment_probe(
        models["clifton_pohl"], [gc.Tangent.of(*cp_seed)], horizon=horizon)
    return sphere, cp


def _check_disprison(gc, ref, cfgs, reps, error, sphere_seeds, cp_seed, horizon):
    require(error is None, f"raised {error!r}")
    sphere, cp = reps
    require(all(r["verdict"] == "imprisoned_up_to_horizon" for r in sphere["rows"]),
            "a great circle reported as escaping")
    row = cp["rows"][0]
    require(row["verdict"] == "escapes_in_finite_parameter"
            and row["terminations"]["forward"] == "BlowUp",
            f"Clifton-Pohl axis geodesic verdict {row['verdict']}, {row['terminations']}")


def _gen_properness(rng):
    return {"p": (rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5))}


def _call_properness(gc, models, cfgs, p):
    m = models["desitter2"]
    cfg = cfgs["probe"]
    sweep = gc.weak_properness_probe(m, p, gc.hyperboloid_sweep_family(
        m, p, gnorm=math.pi, causal="spacelike", norm_cap=cfg.norm_cap), cfg)
    radial = gc.weak_properness_probe(m, p, gc.radial_ray_family(
        m, p, count=8, norm_cap=cfg.norm_cap), cfg)
    return sweep, radial


def _check_properness(gc, ref, cfgs, verdicts, error, p):
    """The pi-norm boost sweep converges to -P with unbounded lift (a Violation)."""
    require(error is None, f"raised {error!r}")
    sweep, radial = verdicts
    require(sweep.summary == "Violation", f"boost sweep verdict {sweep.summary}")
    row = next(r for r in sweep.rows if r["status"] == "violation")
    antipode = -ref["desitter2"].embedding(np.asarray(p))
    err = float(np.linalg.norm(np.asarray(row["image_limit"]) - antipode))
    # the probe calls an image sequence convergent once its tail spread is
    # below cauchy_tol, so that is the precision its limit can claim
    require(err < cfgs["probe"].cauchy_tol, f"sweep image limit {err:.2e} from -P")
    require(row["final_lift_norm"] > cfgs["probe"].norm_cap, "sweep lift stayed bounded")
    require(radial.summary == "ConsistentWithWeakProperness",
            f"radial rays verdict {radial.summary}")


def _gen_pseudoconvex(rng):
    lo = rng.uniform(-1.0, 0.0, 2)
    return {"lo": _t(lo), "hi": _t(lo + rng.uniform(0.5, 1.5, 2)), "seed": int(rng.integers(1 << 30))}


def _call_pseudoconvex(gc, models, cfgs, lo, hi, seed):
    return gc.pseudoconvexity_probe(models["euclidean2"], (np.asarray(lo), np.asarray(hi)),
                                    sample_count=16, horizon=3.0, seed=seed)


def _check_pseudoconvex(gc, ref, cfgs, rep, error, lo, hi, seed):
    """Straight segments between points of a box never leave it: K* = K."""
    require(error is None, f"raised {error!r}")
    require(rep["verdict"] == "BoundedAtSampleScale", f"verdict {rep['verdict']}")
    for row in rep["rows"]:
        require(np.all(np.asarray(row["Kstar_lower"]) >= np.asarray(lo) - 1e-9)
                and np.all(np.asarray(row["Kstar_upper"]) <= np.asarray(hi) + 1e-9),
                "flat K* exceeds the box")


KINDS = {
    # shoot
    "geo_sphere": Kind(_gen_geo_sphere, _call_geo("sphere2"), _check_geo_sphere),
    "geo_meridian": Kind(_gen_geo_meridian, _call_geo("sphere2"), _check_geo_meridian),
    "geo_hyperbolic": Kind(_gen_geo_halfplane, _call_geo("hyperbolic2"), _check_geo_hyperbolic),
    "geo_dsl": Kind(_gen_geo_halfplane, _call_geo("dsl"), _check_geo_dsl),
    "geo_paraboloid": Kind(_gen_geo_paraboloid, _call_geo("paraboloid"), _check_geo_paraboloid),
    "geo_desitter3": Kind(_gen_geo_desitter3, _call_geo("desitter3"), _check_geo_desitter3),
    "geo_clifton_pohl": Kind(_gen_geo_clifton_pohl, _call_geo("clifton_pohl"),
                             _check_geo_clifton_pohl),
    "exp_sphere": Kind(_gen_exp_sphere, _call_exp("sphere2"), _check_exp_sphere),
    "exp_desitter2": Kind(_gen_exp_desitter2, _call_exp("desitter2"), _check_exp_desitter2),
    # connect
    "connect_sphere_near": Kind(_sphere_pair_near, _call_connect("sphere2"),
                                _check_connect_sphere),
    "connect_sphere_far": Kind(_sphere_pair_far, _call_connect("sphere2"),
                               _check_connect_sphere),
    "connect_hyperbolic": Kind(_gen_hyperbolic_pair, _call_connect("hyperbolic2"),
                               _check_connect_hyperbolic),
    "connect_desitter_reachable": Kind(_gen_desitter_reachable,
                                       _call_connect("desitter2", "connect_ds"),
                                       _check_connect_desitter),
    "connect_desitter_unreachable": Kind(_gen_desitter_unreachable,
                                         _call_connect("desitter2", "connect_ds"),
                                         _check_connect_desitter),
    "connect_paraboloid": Kind(_gen_paraboloid_pair, _call_connect("paraboloid"),
                               _check_connect_paraboloid),
    # survey
    "scan_sphere": Kind(_gen_scan_sphere, _call_scan("sphere2"), _check_scan_pi),
    "scan_desitter_spacelike": Kind(_gen_scan_ds_space, _call_scan("desitter2"), _check_scan_pi),
    "scan_desitter_timelike": Kind(_gen_scan_ds_time, _call_scan("desitter2"), _check_scan_none),
    "scan_desitter_null": Kind(_gen_scan_ds_null, _call_scan("desitter2"), _check_scan_none),
    "scan_clifton_pohl": Kind(_gen_scan_clifton_pohl, _call_scan("clifton_pohl"),
                              _check_scan_clifton_pohl),
    "locus_sphere": Kind(_gen_locus, _call_locus, _check_locus),
    "gauss_lemma": Kind(_gen_gauss, _call_gauss, _check_gauss),
    "disprisonment": Kind(_gen_disprison, _call_disprison, _check_disprison),
    "weak_properness": Kind(_gen_properness, _call_properness, _check_properness),
    "pseudoconvexity": Kind(_gen_pseudoconvex, _call_pseudoconvex, _check_pseudoconvex),
}

# Operations per block, by kind.  ``rotate`` kinds take one slot per block in
# turn, so each block holds exactly one of them.
WORKLOADS = {
    "shoot": {
        "mix": {"geo_sphere": 3, "geo_meridian": 1, "geo_hyperbolic": 3, "geo_dsl": 3,
                "geo_paraboloid": 2, "geo_desitter3": 2, "geo_clifton_pohl": 1,
                "exp_sphere": 1, "exp_desitter2": 1},
        "rotate": [],
    },
    "connect": {
        "mix": {"connect_sphere_near": 6, "connect_hyperbolic": 5,
                "connect_desitter_reachable": 4, "connect_paraboloid": 1,
                "connect_desitter_unreachable": 4},
        "rotate": ["connect_sphere_far", None, None],
    },
    "survey": {
        "mix": {"scan_sphere": 4, "scan_desitter_spacelike": 3, "scan_desitter_timelike": 2,
                "scan_desitter_null": 1, "scan_clifton_pohl": 2},
        "rotate": ["locus_sphere", "gauss_lemma", "disprisonment", "weak_properness",
                   "pseudoconvexity"],
    },
}


def blocks(workload: str, seed: int):
    """Endless, seeded sequence of shuffled blocks of operations for ``workload``."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    for block in itertools.count():
        kinds = [k for k, n in spec["mix"].items() for _ in range(n)]
        if spec["rotate"] and spec["rotate"][block % len(spec["rotate"])] is not None:
            kinds.append(spec["rotate"][block % len(spec["rotate"])])
        ops = [Op(k, KINDS[k].gen(rng)) for k in kinds]
        yield [ops[i] for i in rng.permutation(len(ops))]


def execute(gc, models, cfgs, op: Op):
    """Run one operation; returns (result, error) without raising."""
    try:
        return KINDS[op.kind].call(gc, models, cfgs, **op.params), None
    except Exception as err:  # a typed refusal is judged by the check, not here
        return None, err


def check(gc, ref_models, cfgs, op: Op, result, error) -> str | None:
    """None when the result matches its reference, else the reason it does not."""
    try:
        KINDS[op.kind].check(gc, ref_models, cfgs, result, error, **op.params)
    except CheckFailed as fail:
        return str(fail)
    except Exception as err:  # a check that cannot evaluate counts as failed
        return f"check raised {err!r}"
    return None
