"""Sampled probes: properness, disprisonment, pseudoconvexity, convexity,
polar-map identities."""
import numpy as np
import pytest

from geoconnect import (
    IntegratorConfig, ProbeConfig, ScalarField, Tangent, convex_check,
    disprisonment_probe, embedding_point, gauss_lemma_check, hyperboloid_sweep_family,
    integrate_geodesic, model_registry, polyline_family, pseudoconvexity_probe, radial_ray_family,
    spiral_family, weak_properness_probe,
)
from geoconnect import probes
from geoconnect.errors import OutOfChart
from geoconnect.probes import SAMPLED_EVIDENCE


def test_weak_properness_rejects_a_base_point_outside_the_chart():
    """The probe's closed-form exp checks p as the integrator does."""
    s = model_registry("sphere2")
    with pytest.raises(OutOfChart):
        weak_properness_probe(s, [4.0, 0.3], radial_ray_family(s, [1.0, 0.3], count=2))


def test_sphere_weak_properness_consistent():
    """On the sphere, rays escaping the lift cap have non-convergent images."""
    s = model_registry("sphere2")
    p = np.array([1.3, 0.2])
    cfg = ProbeConfig(norm_cap=50.0)
    fam = radial_ray_family(s, p, count=8, norm_cap=cfg.norm_cap)
    verdict = weak_properness_probe(s, p, fam, cfg)
    assert verdict.summary == "ConsistentWithWeakProperness"
    assert verdict.witness_curve is None
    assert verdict.caveat == SAMPLED_EVIDENCE
    assert all(r["status"] in {"ok", "domain_escape"} for r in verdict.rows)


def test_euclidean_weak_properness_consistent():
    e = model_registry("euclidean", n=2)
    p = np.zeros(2)
    cfg = ProbeConfig(norm_cap=100.0)
    for fam in (radial_ray_family(e, p, count=6, norm_cap=100.0),
                spiral_family(e, p, count=4, norm_cap=100.0)):
        verdict = weak_properness_probe(e, p, fam, cfg)
        assert verdict.summary == "ConsistentWithWeakProperness"


def test_desitter_weak_properness_violation():
    """A constant-g-norm boost sweep converges in the image with unbounded lift."""
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    cfg = ProbeConfig(norm_cap=1e3)
    fam = hyperboloid_sweep_family(d, p, gnorm=np.pi, causal="spacelike",
                                   norm_cap=cfg.norm_cap)
    verdict = weak_properness_probe(d, p, fam, cfg)
    assert verdict.summary == "Violation"
    assert verdict.witness_curve is not None
    row = next(r for r in verdict.rows if r["status"] == "violation")
    assert row["image_convergent"] and not row["lift_bounded"]
    assert row["tail_spread"] < cfg.cauchy_tol
    assert row["final_lift_norm"] > cfg.norm_cap


@pytest.mark.parametrize("gnorm", [0.0, -3.0, np.nan, np.inf])
def test_hyperboloid_sweep_rejects_a_gnorm_that_is_not_positive_and_finite(gnorm):
    d = model_registry("desitter", n=2)
    with pytest.raises(ValueError, match="gnorm"):
        hyperboloid_sweep_family(d, np.array([0.1, 0.2]), gnorm=gnorm)


def test_hyperboloid_sweep_needs_an_indefinite_model():
    with pytest.raises(ValueError, match="sphere2"):
        hyperboloid_sweep_family(model_registry("sphere2"), np.array([1.0, 0.3]), gnorm=1.0)


def test_polyline_family_shape():
    fam = polyline_family([[1.0, 0.0], [1.0, 2.0]], name="w")
    curve = fam.curves[0]
    assert np.allclose(curve.alpha(0.0), [0.0, 0.0])
    assert np.allclose(curve.alpha(1.0), [1.0, 0.0])
    assert np.allclose(curve.alpha(1.5), [1.0, 1.0])
    assert curve.schedule[0] > 0.0 and curve.schedule[-1] == pytest.approx(2.0)


def test_disprisonment_sphere_vs_plane():
    s = model_registry("sphere2")
    rep = disprisonment_probe(
        s, [Tangent.of([1.5, 0.0], [0.0, 1.0])], horizon=40.0)
    assert rep["rows"][0]["verdict"] == "imprisoned_up_to_horizon"
    assert rep["caveat"] == SAMPLED_EVIDENCE
    e = model_registry("euclidean", n=2)
    rep = disprisonment_probe(e, [Tangent.of([0.0, 0.0], [1.0, 0.0])],
                              horizon=20.0)
    assert rep["rows"][0]["verdict"] == "disprisoned_sampled"


def test_disprisonment_checks_every_seed_before_integrating(monkeypatch):
    s = model_registry("sphere2")
    calls = []
    monkeypatch.setattr(probes, "integrate_geodesic", lambda *a, **k: calls.append(a))
    good = Tangent.of([1.0, 0.3], [0.6, 0.8])
    with pytest.raises(OutOfChart):
        disprisonment_probe(s, [good, Tangent.of([1.0, 0.3, 2.0], [0.6, 0.8])])
    with pytest.raises(ValueError, match="components"):
        disprisonment_probe(s, [good, Tangent.of([1.0, 0.3], [0.6, 0.8, 0.0])])
    assert calls == []


def test_disprisonment_extents_match_a_per_node_reference():
    """Extents are the largest embedding distance from the base point over
    the nodes of each path, and over its nodes up to half the horizon.  The
    paraboloid's embedding reads x[0], so it must see one point at a time."""
    m = model_registry("paraboloid")
    p, v, horizon = np.array([0.3, -0.2]), np.array([0.5, 0.4]), 6.0
    rep = disprisonment_probe(m, [Tangent.of(p, v)], horizon=horizon)
    row = rep["rows"][0]
    center = embedding_point(m, p)
    for label, vv in (("forward", v), ("backward", -v)):
        path = integrate_geodesic(m, p, vv, IntegratorConfig(), t_max=horizon)
        d = [float(np.linalg.norm(embedding_point(m, s[:2]) - center)) for s in path.states]
        half = [x for t, x in zip(path.ts, d) if t <= horizon / 2.0]
        assert row["extent_full"][label] == pytest.approx(max(d), rel=1e-12)
        assert row["extent_half"][label] == pytest.approx(max(half), rel=1e-12)


def test_disprisonment_finite_escape():
    cp = model_registry("clifton_pohl")
    rep = disprisonment_probe(cp, [Tangent.of([1.0, 0.0], [1.0, 0.0])],
                              horizon=5.0)
    assert rep["rows"][0]["verdict"] == "escapes_in_finite_parameter"
    terms = rep["rows"][0]["terminations"]
    assert "BlowUp" in (terms["forward"], terms["backward"]) or \
        "StepSizeUnderflow" in (terms["forward"], terms["backward"])


def test_pseudoconvexity_flat_box_bounded():
    e = model_registry("euclidean", n=2)
    rep = pseudoconvexity_probe(e, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                                sample_count=32, horizon=3.0)
    assert rep["verdict"] == "BoundedAtSampleScale"
    # straight segments between box points never leave the box
    row = rep["rows"][0]
    assert np.allclose(row["Kstar_lower"], [-1.0, -1.0], atol=1e-9)
    assert np.allclose(row["Kstar_upper"], [1.0, 1.0], atol=1e-9)
    assert rep["rows"][1]["segments"] >= row["segments"]


def test_pseudoconvexity_draws_each_sample_once(monkeypatch):
    """The first row is the first half of the second row's draws, not a rerun."""
    calls = []
    real = probes.integrate_geodesic

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(probes, "integrate_geodesic", counting)
    e = model_registry("euclidean", n=2)
    pseudoconvexity_probe(e, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                          sample_count=8, horizon=3.0)
    assert len(calls) == 2 * 8
    s = model_registry("sphere2")
    box = (np.array([1.0, -0.5]), np.array([2.0, 0.5]))
    half = pseudoconvexity_probe(s, box, sample_count=4, horizon=2.0)
    full = pseudoconvexity_probe(s, box, sample_count=8, horizon=2.0)
    assert full["rows"][0] == half["rows"][1]


@pytest.mark.parametrize("hi", [[0.5, 0.5], [1.0, 1.0], [2.0, 1.0]])
def test_pseudoconvexity_box_needs_lo_below_hi(hi):
    e = model_registry("euclidean", n=2)
    with pytest.raises(ValueError, match="lo < hi"):
        pseudoconvexity_probe(e, (np.array([1.0, 1.0]), np.array(hi)), sample_count=4)


def test_pseudoconvexity_report_fields():
    s = model_registry("sphere2")
    rep = pseudoconvexity_probe(s, (np.array([1.0, -0.5]), np.array([2.0, 0.5])),
                                sample_count=16, horizon=2.0)
    assert rep["kind"] == "pseudoconvex"
    assert rep["verdict"] in {"BoundedAtSampleScale", "Unbounded"}
    assert {"K_lower", "K_upper", "sample_count", "horizon"} <= rep["params"].keys()


def _flat_samples(rng, count, n=2):
    return [Tangent.of(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
            for _ in range(count)]


def test_convex_check_passes_on_convex_function():
    e = model_registry("euclidean", n=2)
    f = ScalarField(lambda x: float(x @ x), "normsq")
    rng = np.random.default_rng(3)
    rep = convex_check(e, f, _flat_samples(rng, 20))
    assert rep["verdict"] == "pass"
    ok = [r for r in rep["rows"] if r["status"] == "ok"]
    assert len(ok) == 20
    assert all(r["convexity_pass"] and r["endpoint_bound_pass"] for r in ok)


def test_convex_check_fails_with_quantitative_witness():
    """For f = -|x|^2 the second difference along x(t)=p+tv is exactly -2|v|^2."""
    e = model_registry("euclidean", n=2)
    f = ScalarField(lambda x: -float(x @ x), "neg-normsq")
    p = np.array([0.3, -0.2])
    v = np.array([1.1, 0.7])
    rep = convex_check(e, f, [Tangent.of(p, v)])
    assert rep["verdict"] == "fail"
    worst = rep["worst"]
    assert not worst["convexity_pass"]
    assert worst["min_second_difference"] == pytest.approx(
        -2.0 * float(v @ v), rel=1e-4)


def test_convex_check_reports_escapes():
    s = model_registry("sphere2")
    f = ScalarField(lambda x: float(x[0]), "theta")
    rep = convex_check(s, f, [Tangent.of([0.5, 0.0], [-1.0, 0.0])])
    assert rep["rows"][0]["status"].startswith("escape:")
    assert rep["verdict"] == "fail"  # no successful rows cannot certify


def test_convex_check_takes_a_zero_velocity_sample_as_a_constant_geodesic():
    """A constant geodesic never escapes: f is constant along it, so the
    sample passes both checks."""
    e = model_registry("euclidean", n=2)
    f = ScalarField(lambda x: float(x @ x), "normsq")
    rep = convex_check(e, f, [Tangent.of([0.3, -0.2], [0.0, 0.0])])
    row = rep["rows"][0]
    assert row["status"] == "ok" and row["min_second_difference"] == 0.0
    assert rep["verdict"] == "pass"


def test_gauss_lemma_holds_on_riemannian_models():
    for name, p, rmax in [("sphere2", np.array([1.4, 0.3]), 1.2),
                          ("hyperbolic2", np.array([0.0, 1.0]), 1.5),
                          ("paraboloid", np.array([0.2, -0.1]), 1.0)]:
        model = model_registry(name)
        rep = gauss_lemma_check(model, p, np.linspace(0.2, rmax, 4),
                                direction_count=12)
        assert rep["verdict"] == "pass", name
        assert rep["max_radial_deviation"] < 1e-6
        assert rep["max_orthogonality_deviation"] < 1e-6


@pytest.mark.parametrize("r_values", [[-0.5, 1.0], [0.0, 1.0], [], [np.nan, 1.0],
                                      [1.0, np.inf]])
def test_gauss_lemma_rejects_radii_outside_the_integrated_range(r_values):
    """The rays are integrated on (0, max r] only: a radius that is not
    positive and finite would read the dense output outside it."""
    s = model_registry("sphere2")
    with pytest.raises(ValueError, match="radii"):
        gauss_lemma_check(s, (1.0, 0.3), r_values, direction_count=4)
    assert gauss_lemma_check(s, (1.0, 0.3), [0.5, 1.0], direction_count=4)["verdict"] == "pass"


def test_gauss_lemma_needs_a_direction():
    with pytest.raises(ValueError, match="direction_count"):
        gauss_lemma_check(model_registry("sphere2"), (1.0, 0.3), [1.0], direction_count=0)


def test_gauss_lemma_rejects_indefinite_model():
    m = model_registry("minkowski", n=2)
    with pytest.raises(ValueError):
        gauss_lemma_check(m, np.zeros(2), [0.5])
