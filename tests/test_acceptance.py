"""Acceptance suite: one criterion per test, one pass/fail print per criterion.

Each test prints "ACCEPTANCE NN PASS|FAIL -- <short description>" and then
asserts, so `pytest -v -s tests/test_acceptance.py` gives a one-line verdict
per criterion.
"""
import time

import numpy as np
import pytest

from geoconnect import (
    ConnectConfig, IntegratorConfig, ProbeConfig, ScalarField, Tangent,
    VectorField, auxiliary_riemannian, connect, conjugate_locus_sample,
    convex_check, dexp_matrix, dsl, energy_drift, exp, first_conjugate_time,
    gauss_lemma_check, hyperboloid_sweep_family, integrate_geodesic,
    model_registry, normalize_direction, oracle_geodesic,
    weak_properness_probe,
)
from geoconnect.errors import DomainEscape, LinearizationFailure, StepSizeUnderflow
from geoconnect.geodesic import Termination
from geoconnect.jacobi import _wrap_delta
from geoconnect.manifold import embedding_point, orthonormal_frame


def _report(num: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} -- {desc}")
    assert ok, f"criterion {num}: {desc}"


# fast-enough settings for scans that only need ~1e-6 accuracy
_SCAN_CFG = IntegratorConfig(rtol=1e-8, atol=1e-10)
# de Sitter connector config: closed-form frames keep failing lifts cheap
_DS_CONNECT = ConnectConfig(integrator=IntegratorConfig(
    rtol=1e-9, atol=1e-11, max_steps=4000, prefer_oracle=True))


def test_criterion_01_sphere_conjugate_point():
    start = time.perf_counter()
    s = model_registry("sphere2")
    p = np.array([1.2, 0.4])
    sample = conjugate_locus_sample(s, p, t_max=3.5, cfg=_SCAN_CFG,
                                    count=64, refine=0)
    conj = [r for r in sample.rays if r["status"] == "conjugate"]
    t_ok = len(conj) == 64 and all(
        abs(r["t_star"] - np.pi) < 1e-4 for r in conj)
    antipode = -embedding_point(s, p)
    locus_ok = (len(sample.clusters) == 1
                and np.linalg.norm(sample.clusters[0] - antipode) < 1e-3)
    elapsed = time.perf_counter() - start
    _report(1, f"sphere first conjugate time pi, single-antipode locus "
               f"({elapsed:.2f}s)",
            t_ok and locus_ok and elapsed < 5.0)


def test_criterion_02_desitter_conjugate_structure():
    d = model_registry("desitter", n=2)
    p = np.array([0.3, -0.2])
    E, signs = orthonormal_frame(d, p)
    es = E[:, np.flatnonzero(signs == 1)[0]]
    et = E[:, np.flatnonzero(signs == -1)[0]]
    antipode = -embedding_point(d, p)
    ok = True
    for chi in [0.0, 0.5, -0.8]:
        u = np.cosh(chi) * es + np.sinh(chi) * et          # spacelike
        t_star = first_conjugate_time(d, p, u, t_max=4.0, cfg=_SCAN_CFG)
        if t_star is None or abs(t_star - np.pi) > 1e-4:
            ok = False
            continue
        cp = oracle_geodesic(d, p, u, t_star)
        if np.linalg.norm(embedding_point(d, cp) - antipode) > 1e-6:
            ok = False
    for chi in [0.0, 0.6]:
        u = np.sinh(chi) * es + np.cosh(chi) * et          # timelike
        if first_conjugate_time(d, p, u, t_max=10.0, cfg=_SCAN_CFG) is not None:
            ok = False
    for sgn in (1.0, -1.0):
        u = (es + sgn * et) / np.sqrt(2.0)                 # null
        if first_conjugate_time(d, p, u, t_max=10.0, cfg=_SCAN_CFG) is not None:
            ok = False
    _report(2, "de Sitter: spacelike t*=pi at -p; timelike/null conjugate-free",
            ok)


def test_criterion_03_desitter_weak_properness_violation():
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    cfg = ProbeConfig(norm_cap=1e3)
    fam = hyperboloid_sweep_family(d, p, gnorm=np.pi, causal="spacelike",
                                   norm_cap=cfg.norm_cap)
    verdict = weak_properness_probe(d, p, fam, cfg)
    ok = verdict.summary == "Violation"
    if ok:
        row = next(r for r in verdict.rows if r["status"] == "violation")
        antipode = -embedding_point(d, p)
        ok = (np.linalg.norm(np.asarray(row["image_limit"]) - antipode) < 1e-8
              and row["final_lift_norm"] > 1e3)
    _report(3, "de Sitter sweep: image converges to -p while lift norm "
               "exceeds 1e3", ok)


def test_criterion_04_flat_connector_exact():
    rng = np.random.default_rng(404)
    ok = True
    for name in ["euclidean", "minkowski"]:
        model = model_registry(name, n=3)
        for _ in range(100):
            p = rng.uniform(-5, 5, 3)
            q = rng.uniform(-5, 5, 3)
            out = connect(model, p, q)
            if not out.connected or np.max(np.abs(out.v - (q - p))) > 1e-10:
                ok = False
    _report(4, "flat connector: 100 random pairs, v = q - p to 1e-10", ok)


def test_criterion_05_sphere_connector():
    start = time.perf_counter()
    s = model_registry("sphere2")
    rng = np.random.default_rng(505)
    g_len_err = 0.0
    round_err = 0.0
    failures = 0
    count = 0
    while count < 100:
        p = np.array([rng.uniform(0.4, np.pi - 0.4), rng.uniform(-np.pi, np.pi)])
        q = np.array([rng.uniform(0.4, np.pi - 0.4), rng.uniform(-np.pi, np.pi)])
        P = embedding_point(s, p)
        Q = embedding_point(s, q)
        cosang = float(np.clip(P @ Q, -1.0, 1.0))
        if cosang < -1.0 + 1e-3:          # non-antipodal pairs only
            continue
        count += 1
        out = connect(s, p, q)
        if not out.connected:
            failures += 1
            continue
        g = np.asarray(s.metric(p))
        g_len_err = max(g_len_err,
                        abs(float(np.sqrt(out.v @ g @ out.v)) - np.arccos(cosang)))
        end = exp(s, p, out.v)
        round_err = max(round_err,
                        float(np.linalg.norm(embedding_point(s, end) - Q)))
    elapsed = time.perf_counter() - start
    _report(5, f"sphere connector: 100 pairs, len err {g_len_err:.1e}, "
               f"roundtrip {round_err:.1e}, {failures} failures "
               f"({elapsed:.1f}s)",
            failures == 0 and g_len_err < 1e-5 and round_err < 1e-6
            and elapsed < 30.0)


def _desitter_brute_min_dist(Q: np.ndarray, n_chi: int = 2500,
                             n_t: int = 1000) -> float:
    """Min Euclidean distance from Q to the closed-form geodesic families
    out of P = (1,0,0) in the de Sitter embedding (eta = diag(1,1,-1))."""
    P = np.array([1.0, 0.0, 0.0])
    es = np.array([0.0, 1.0, 0.0])
    et = np.array([0.0, 0.0, 1.0])
    Q2 = float(Q @ Q)
    PQ = float(P @ Q)
    best = np.inf
    chis = np.linspace(-6.0, 6.0, n_chi)
    with np.errstate(over="ignore"):
        # spacelike: gamma = cos(t) P + sin(t) U, U = cosh(chi) es + sinh(chi) et
        t = np.linspace(0.0, 2.0 * np.pi, n_t)
        ct, st = np.cos(t), np.sin(t)
        U = np.outer(np.cosh(chis), es) + np.outer(np.sinh(chis), et)
        UQ = U @ Q
        U2 = np.einsum("ij,ij->i", U, U)
        d2 = (np.outer(np.ones_like(chis), ct ** 2)
              + np.outer(U2, st ** 2)
              - 2.0 * PQ * ct[None, :]
              - 2.0 * np.outer(UQ, st) + Q2)
        best = min(best, float(np.sqrt(max(d2.min(), 0.0))))
        # timelike: gamma = cosh(t) P + sinh(t) U, U = sinh(chi) es + cosh(chi) et
        t = np.linspace(-20.0, 20.0, n_t)
        cht, sht = np.cosh(t), np.sinh(t)
        U = np.outer(np.sinh(chis), es) + np.outer(np.cosh(chis), et)
        UQ = U @ Q
        U2 = np.einsum("ij,ij->i", U, U)
        d2 = (np.outer(np.ones_like(chis), cht ** 2)
              + np.outer(U2, sht ** 2)
              - 2.0 * PQ * cht[None, :]
              - 2.0 * np.outer(UQ, sht) + Q2)
        d2 = np.where(np.isfinite(d2), d2, np.inf)
        best = min(best, float(np.sqrt(max(d2.min(), 0.0))))
        # null: gamma = P + t (es +- et), affine lines
        t = np.linspace(-1e4, 1e4, 4 * n_t)
        for sgn in (1.0, -1.0):
            U = es + sgn * et
            d2 = (1.0 + 2.0 * t * float(P @ U) + t ** 2 * float(U @ U)
                  - 2.0 * PQ - 2.0 * t * float(U @ Q) + Q2)
            best = min(best, float(np.sqrt(max(d2.min(), 0.0))))
    return best


def test_criterion_06_desitter_connector_failure_soundness():
    start = time.perf_counter()
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])   # embeds to P = (1, 0, 0)
    rng = np.random.default_rng(606)
    targets = []
    while len(targets) < 20:
        q = np.array([rng.uniform(np.pi - 0.6, np.pi + 0.6),
                      rng.uniform(-2.0, 2.0)])
        Q = embedding_point(d, q)
        if Q[0] <= -1.5:       # eta(P, Q) = Q_x <= -1.5, and Q != -P
            targets.append((q, Q))
    ok = True
    for q, Q in targets:
        out = connect(d, p, q, _DS_CONNECT)
        if out.connected:
            ok = False
            continue
        if _desitter_brute_min_dist(Q) < 1e-3:
            ok = False
    elapsed = time.perf_counter() - start
    _report(6, "de Sitter: 20 unreachable targets refused by the connector "
               f"and missed by a closed-form brute-force sweep ({elapsed:.1f}s)",
            ok and elapsed < 10.0)


_DEXP_CFG = IntegratorConfig(rtol=1e-9, atol=1e-11)


def _dexp_sample(model, rng):
    lo = np.where(np.isfinite(model.domain.lower), model.domain.lower + 0.3, -1.5)
    hi = np.where(np.isfinite(model.domain.upper), model.domain.upper - 0.3, 1.5)
    vmax = 0.3 if model.name == "clifton_pohl" else 0.6
    while True:
        p = rng.uniform(lo, hi)
        if not model.domain.margin(p) > 0.2:
            continue
        v = rng.uniform(-vmax, vmax, model.dim)
        return p, v


def test_criterion_07_dexp_matches_finite_differences():
    ok = True
    worst = 0.0
    for name in ["euclidean", "minkowski", "sphere2", "hyperbolic2",
                 "desitter", "paraboloid", "clifton_pohl"]:
        model = model_registry(name)
        rng = np.random.default_rng(707)
        n = model.dim
        # identity at v = 0 to 1e-9
        p0, _ = _dexp_sample(model, rng)
        frame0 = dexp_matrix(model, p0, np.zeros(n), _DEXP_CFG)
        if np.max(np.abs(frame0.matrix - np.eye(n))) > 1e-9:
            ok = False
        done = 0
        while done < 200:
            p, v = _dexp_sample(model, rng)
            try:
                frame = dexp_matrix(model, p, v, _DEXP_CFG)
                fd = np.empty((n, n))
                for i in range(n):
                    h = 1e-4 * max(1.0, abs(v[i]))
                    dv = np.zeros(n); dv[i] = h
                    fd[:, i] = (exp(model, p, v + dv, _DEXP_CFG)
                                - exp(model, p, v - dv, _DEXP_CFG)) / (2 * h)
            except (DomainEscape, LinearizationFailure, StepSizeUnderflow):
                continue   # precondition: the whole fd stencil must stay in-chart
            done += 1
            err = float(np.max(np.abs(frame.matrix - fd)))
            worst = max(worst, err)
            if err > 1e-4:
                ok = False
    _report(7, f"dexp vs central differences on all builtins "
               f"(200 samples each, worst {worst:.1e})", ok)


def test_criterion_08_gauss_lemma_grid():
    ok = True
    for name, p, rmax in [("sphere2", np.array([1.4, 0.3]), 2.8),
                          ("hyperbolic2", np.array([0.0, 1.0]), 2.0)]:
        model = model_registry(name)
        rs = np.linspace(rmax / 32.0, rmax, 32)
        rep = gauss_lemma_check(model, p, rs, direction_count=32,
                                cfg=_SCAN_CFG, tol=1e-6)
        if rep["verdict"] != "pass":
            ok = False
    _report(8, "polar-map identities <dr,dr>=1, <dr,ds>=0 on 32x32 grids", ok)


def test_criterion_09_convexity_criterion():
    e = model_registry("euclidean", n=3)
    rng = np.random.default_rng(909)
    samples = [Tangent.of(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
               for _ in range(500)]
    f_pos = ScalarField(lambda x: float(x @ x), "normsq")
    rep_pos = convex_check(e, f_pos, samples)
    f_neg = ScalarField(lambda x: -float(x @ x), "neg-normsq")
    rep_neg = convex_check(e, f_neg, samples)
    vmax2 = max(float(s.vec_array @ s.vec_array) for s in samples)
    worst = rep_neg["worst"]["min_second_difference"]
    ok = (rep_pos["verdict"] == "pass"
          and rep_neg["verdict"] == "fail"
          and abs(worst - (-2.0 * vmax2)) <= 0.01 * 2.0 * vmax2)
    _report(9, f"convexity: |x|^2 passes on 500 segments; -|x|^2 fails with "
               f"second difference {worst:.6g} ~ -2|v|^2", ok)


def test_criterion_10_auxiliary_metric_identity():
    m = model_registry("minkowski", n=4)
    V = VectorField(lambda x: np.array([0.0, 0.0, 0.0, 1.0]), "dt")
    aux = auxiliary_riemannian(m, V)
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(100):
        x = rng.uniform(-5, 5, 4)
        g = np.asarray(m.metric(x))
        h = np.asarray(aux.metric(x))
        Vx = V.eval(x)
        for _ in range(100):
            X = rng.standard_normal(4)
            if abs(Vx @ h @ X + Vx @ g @ X) > 1e-12:
                ok = False
        if np.any(np.linalg.eigvalsh(h) <= 0.0):
            ok = False
    _report(10, "auxiliary metric: h(V,X)+g(V,X)=0 to 1e-12, h positive-"
                "definite at 100x100 samples", ok)


def test_criterion_11_integrator_quality():
    s = model_registry("sphere2")
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12)
    path = integrate_geodesic(s, np.array([1.3, 0.2]), np.array([0.5, 0.7]),
                              cfg, t_max=10.0 * np.pi)
    drift_ok = (path.termination is Termination.REACHED_TMAX
                and energy_drift(path) < 1e-8)
    rng = np.random.default_rng(1111)
    worst = 0.0
    for name in ["sphere2", "desitter"]:
        model = model_registry(name)
        done = 0
        while done < 500:
            if name == "sphere2":
                p = np.array([rng.uniform(0.4, np.pi - 0.4),
                              rng.uniform(-3, 3)])
            else:
                p = rng.uniform(-1.0, 1.0, 2)
            v = rng.uniform(-1, 1, 2)
            t = rng.uniform(0.1, 1.5)
            path = integrate_geodesic(model, p, v, cfg, t_max=t)
            if path.termination is not Termination.REACHED_TMAX:
                continue
            done += 1
            # compare chart outputs modulo periodic coordinates: the oracle
            # wraps angles while the integrator tracks them continuously
            delta = _wrap_delta(model,
                                path.endpoint - oracle_geodesic(model, p, v, t))
            err = float(np.max(np.abs(delta)))
            worst = max(worst, err)
    _report(11, f"energy drift < 1e-8 over [0, 10pi]; oracle agreement over "
                f"1000 triples (worst {worst:.1e})",
            drift_ok and worst <= 1e-7)


def test_criterion_12_dsl_corpus():
    import test_dsl
    ok = True
    for src, x, expected in test_dsl.GOLDEN:
        e = dsl.parse(src, max(len(x), 3))
        got = dsl.evaluate(e, x)
        if got != pytest.approx(expected, rel=1e-12, abs=1e-15):
            ok = False
    for src, x, i, expected in test_dsl.DERIVATIVES:
        got = dsl.partial(dsl.parse(src, len(x)), x, i)
        if got != pytest.approx(expected, rel=1e-7, abs=1e-9):
            ok = False
    for src, pos in test_dsl.PARSE_ERRORS:
        try:
            dsl.parse(src, 2)
        except dsl.ParseError as err:
            if err.position != pos:
                ok = False
        else:
            ok = False
    _report(12, "DSL golden table (50 cases), derivative corpus, exact "
                "ParseError positions", ok)
