"""Differential of exp, conjugate point scans, sampled locus diagnostics."""
import numpy as np
import pytest

from geoconnect import (
    DomainEscape, GeodesicPath, IntegratorConfig, energy_drift, Termination, conjugate_locus_sample,
    dexp_matrix, exp, first_conjugate_time, hyperboloid_sweep_family, integrate_geodesic,
    integrate_variational, model_registry, normalize_direction, radial_ray_family,
)
from geoconnect import jacobi
from geoconnect.geodesic import _integrate
from geoconnect.jacobi import (
    BOOST_RANGE, SINGULAR_TOL, _conjugate_monitor, _first_conjugate_scan, _wrap_delta,
    component_of_point, direction_grid,
)
from geoconnect.errors import OutOfChart
from geoconnect.manifold import embedding_point


def _fd_dexp(model, p, v, h=1e-5):
    n = model.dim
    J = np.empty((n, n))
    for i in range(n):
        dv = np.zeros(n); dv[i] = h
        J[:, i] = (exp(model, p, v + dv) - exp(model, p, v - dv)) / (2 * h)
    return J


def test_dexp_identity_at_zero():
    """The frame at v = 0 reads the stationary variational path, with or
    without the oracle: the identity, its singular value 1, p and an
    identity ray, exactly."""
    for name in ["euclidean", "sphere2", "desitter"]:
        model = model_registry(name)
        p = np.full(model.dim, 0.7) if name != "sphere2" else np.array([1.0, 0.0])
        eye = np.eye(model.dim)
        for cfg in (None, IntegratorConfig(prefer_oracle=True)):
            frame = dexp_matrix(model, p, np.zeros(model.dim), cfg)
            assert np.array_equal(frame.matrix, eye) and frame.min_singular_value == 1.0
            assert np.array_equal(frame.endpoint, p)
            assert np.array_equal(frame.ray(np.linspace(0.1, 1.0, 4)), [eye] * 4)


def test_zero_velocity_variational_path_is_exact():
    """At v = 0 the variational path is x = p, J = t I and J' = I exactly,
    without a step."""
    s = model_registry("sphere2")
    var = integrate_variational(s, (1.0, 0.3), (0.0, 0.0), t_max=2.0)
    assert var.termination is Termination.REACHED_TMAX and var.term_time == 2.0
    assert (var.steps, var.rejected, var.rhs_evals) == (0, 0, 0)
    assert np.array_equal(var.split(2.0)[2], 2.0 * np.eye(2))
    assert np.array_equal(var.states, [[1.0, 0.3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1],
                                       [1.0, 0.3, 0, 0, 2, 0, 0, 2, 1, 0, 0, 1]])
    assert np.array_equal(var.dexp_at(np.array([0.25, 1.0, 1.7])), [np.eye(2)] * 3)


@pytest.mark.parametrize("name,p", [
    ("sphere2", np.array([1.2, 0.3])),
    ("hyperbolic2", np.array([0.5, 1.5])),
    ("desitter", np.array([0.2, -0.3])),
    ("paraboloid", np.array([0.4, -0.6])),
])
def test_dexp_matches_finite_differences(name, p):
    model = model_registry(name)
    rng = np.random.default_rng(29)
    for _ in range(5):
        v = rng.uniform(-0.8, 0.8, model.dim)
        frame = dexp_matrix(model, p, v)
        assert np.allclose(frame.matrix, _fd_dexp(model, p, v), atol=1e-6)
        assert np.allclose(frame.endpoint, exp(model, p, v), atol=1e-9)


@pytest.mark.parametrize("name,n,p", [
    ("sphere2", None, np.array([1.2, 0.3])),
    ("desitter", 2, np.array([0.2, -0.3])),
    ("desitter", 3, np.array([1.2, 0.3, 0.1])),
])
def test_oracle_frame_matches_variational_frame(name, n, p):
    model = model_registry(name) if n is None else model_registry(name, n=n)
    rng = np.random.default_rng(31)
    for _ in range(5):
        v = rng.uniform(-0.8, 0.8, model.dim)
        oracle = dexp_matrix(model, p, v, IntegratorConfig(prefer_oracle=True))
        var = dexp_matrix(model, p, v)
        assert np.allclose(oracle.matrix, var.matrix, rtol=0.0, atol=1e-6)
        assert np.allclose(oracle.endpoint, var.endpoint, rtol=0.0, atol=1e-9)
        for t in (0.25, 0.5, 1.0):
            assert np.allclose(oracle.ray(t), var.ray(t), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("cfg, v", [
    (None, np.array([0.4, -0.7])),
    (IntegratorConfig(prefer_oracle=True), np.array([0.4, -0.7])),
    (None, np.zeros(2)),
])
def test_frame_ray_ends_at_its_matrix(cfg, v):
    """ray(1.0) is the frame's own matrix, bit for bit, for all three frame kinds."""
    frame = dexp_matrix(model_registry("desitter"), np.array([0.2, -0.3]), v, cfg)
    assert np.array_equal(frame.ray(1.0), frame.matrix)


@pytest.mark.parametrize("cfg, v", [
    (None, np.array([0.4, -0.7])),
    (IntegratorConfig(prefer_oracle=True), np.array([0.4, -0.7])),
    (None, np.zeros(2)),
])
def test_frame_ray_of_no_times_is_an_empty_stack(cfg, v):
    frame = dexp_matrix(model_registry("desitter"), np.array([0.2, -0.3]), v, cfg)
    assert frame.ray(np.array([])).shape == (0, 2, 2)


def test_dexp_at_no_times_is_an_empty_stack():
    var = integrate_variational(model_registry("sphere2"), np.array([1.2, 0.3]),
                                np.array([0.4, 0.7]), t_max=1.0)
    assert var.dexp_at(np.array([])).shape == (0, 2, 2)


def _oracle_dexp_loop(name, p, v):
    """The oracle differential's own central-difference loop, before the stencil was shared.
    Each point comes from a freshly built model, so no base point is reused."""
    model = model_registry(name)
    n = model.dim
    J = np.empty((n, n))
    for i in range(n):
        h = 1e-6 * max(1.0, abs(v[i]))
        dv = np.zeros(n); dv[i] = h
        diff = (np.asarray(model_registry(name).oracle.point(p, v + dv, 1.0))
                - np.asarray(model_registry(name).oracle.point(p, v - dv, 1.0)))
        J[:, i] = _wrap_delta(model, diff) / (2.0 * h)
    return J


@pytest.mark.parametrize("name, p, v", [
    ("sphere2", [1.2, 3.1], [0.3, 0.4]),          # the image crosses the phi seam
    ("desitter", [0.2, -0.3], [-0.9, 1.7]),
])
def test_oracle_differential_matches_its_loop_bitwise(name, p, v):
    model = model_registry(name)
    p, v = np.array(p), np.array(v)
    frame = dexp_matrix(model, p, v, IntegratorConfig(prefer_oracle=True))
    assert np.array_equal(frame.matrix, _oracle_dexp_loop(name, p, v))
    assert np.array_equal(frame.ray(0.5), _oracle_dexp_loop(name, p, 0.5 * v))


@pytest.mark.parametrize("name, n", [("sphere2", None), ("desitter", 2), ("desitter", 3)])
def test_oracle_base_point_memo_is_bitwise_a_fresh_oracle(name, n):
    """Base points p1, p2, p1 interleaved on one oracle give, bit for bit, what a
    freshly built model's oracle gives for each call."""
    def build():
        return model_registry(name) if n is None else model_registry(name, n=n)

    model = build()
    rng = np.random.default_rng(47)
    p1, p2 = np.full(model.dim, 1.1), np.linspace(0.4, 1.3, model.dim)
    for p in (p1, p2, p1, p1, p2):
        for _ in range(4):
            v, t = rng.uniform(-1.5, 1.5, model.dim), rng.uniform(0.1, 2.0)
            assert np.array_equal(model.oracle.point_embedding(p, v, t),
                                  build().oracle.point_embedding(p, v, t))
            assert np.array_equal(model.oracle.point(p, v, t), build().oracle.point(p, v, t))


def test_oracle_memo_sees_a_base_point_changed_in_place():
    """Writing into the caller's p after a call gives the new p's geodesic, not the old one's."""
    oracle = model_registry("desitter").oracle
    p, v = np.array([0.2, -0.3]), np.array([0.4, -0.7])
    before = oracle.point_embedding(p, v, 1.0)
    p[:] = [1.1, 0.5]
    after = oracle.point_embedding(p, v, 1.0)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, model_registry("desitter").oracle.point_embedding(p, v, 1.0))
    p[:] = [0.2, -0.3]
    assert np.array_equal(oracle.point_embedding(p, v, 1.0), before)


def test_oracle_results_do_not_alias_its_memo():
    """A returned point is the caller's own array: writing to it changes no later result."""
    oracle = model_registry("sphere2").oracle
    p, v = np.array([1.2, 0.3]), np.array([0.3, 0.4])
    X = oracle.point_embedding(p, v, 0.0)
    X[:] = 0.0
    assert np.array_equal(oracle.point_embedding(p, v, 0.0),
                          model_registry("sphere2").embedding(p))


def test_oracle_frame_ray_keeps_its_own_tangent():
    """The ray holds copies of p and v: reusing the caller's arrays changes nothing."""
    d = model_registry("desitter")
    p = np.array([0.2, -0.3])
    v = np.array([0.4, -0.7])
    frame = dexp_matrix(d, p, v, IntegratorConfig(prefer_oracle=True))
    before = frame.ray(0.5)
    p[:] = 1.0
    v[:] = 0.0
    assert np.array_equal(frame.ray(0.5), before)


def test_oracle_frame_rejects_points_outside_the_chart():
    with pytest.raises(OutOfChart):
        dexp_matrix(model_registry("sphere2"), [4.0, 0.3], [0.1, 0.1],
                    IntegratorConfig(prefer_oracle=True))


def test_normalize_direction_rejects_non_finite_directions():
    with pytest.raises(ValueError):
        normalize_direction(model_registry("sphere2"), [1.0, 0.3], [np.nan, 1.0])


def test_ray_scaling_identity():
    """One variational solve gives d(exp)_{t u} = J(t)/t along the ray."""
    s = model_registry("sphere2")
    p = np.array([1.3, -0.4])
    u = normalize_direction(s, p, np.array([0.3, 0.8]))
    var = integrate_variational(s, p, u, t_max=2.0)
    for t in [0.4, 1.0, 1.7]:
        direct = dexp_matrix(s, p, t * u).matrix
        assert np.allclose(var.dexp_at(t), direct, atol=1e-8)


def test_sphere_first_conjugate_time_is_pi():
    s = model_registry("sphere2")
    p = np.array([1.4, 0.7])
    for ang in [0.3, 1.1, 2.0, 4.4]:
        u = normalize_direction(s, p, np.array([np.cos(ang), np.sin(ang)]))
        t = first_conjugate_time(s, p, u, t_max=4.0)
        assert t == pytest.approx(np.pi, abs=1e-6)


@pytest.mark.parametrize("t_max", [4.0, 0.004])
def test_fast_ray_stops_at_its_first_conjugate_point(t_max):
    """At speed 1000 conjugate points lie pi/1000 apart; the first one is found."""
    s = model_registry("sphere2")
    p = np.array([1.4, 0.7])
    u = 1000.0 * normalize_direction(s, p, np.array([0.3, 1.0]))
    t_star, var = _first_conjugate_scan(s, p, u, t_max, None)
    assert t_star == pytest.approx(np.pi / 1000.0, abs=1e-8)
    assert var.termination is Termination.CONJUGATE_POINT
    assert var.term_time == t_star == var.ts[-1]


def test_negative_horizon_has_no_conjugate_point():
    """(0, t_max] is empty for t_max < 0, though the ray meets one at t = -pi."""
    s = model_registry("sphere2")
    p = np.array([1.4, 0.7])
    u = normalize_direction(s, p, np.array([0.3, 1.0]))
    assert first_conjugate_time(s, p, u, t_max=-4.0) is None


@pytest.mark.parametrize("t_max", [-4.0, 0.0])
def test_empty_horizon_integrates_nothing(monkeypatch, t_max):
    """(0, t_max] is empty: no backward ray is integrated, so none can escape."""
    calls = []
    integrate = jacobi.integrate_variational
    monkeypatch.setattr(jacobi, "integrate_variational",
                        lambda *a, **k: calls.append(a) or integrate(*a, **k))
    s = model_registry("sphere2")
    assert first_conjugate_time(s, (1.2, 0.3), (1.0, 0.0), t_max) is None
    assert calls == []


def test_conjugate_point_inside_the_first_step():
    """J(0) = 0 does not end the path at t = 0; a zero inside the first step is located.

    J(t) = t - t^3/c is a cubic, which both embedded orders integrate
    exactly, so the first step is accepted whatever its size and spans
    det(J/t) = 1 - t^2/c = SINGULAR_TOL near t = sqrt(c).
    """
    c = 0.01
    rhs = lambda t, y: np.array([0.0, 0.0, y[3], -6.0 * t / c])
    monitor = (_conjugate_monitor(1, SINGULAR_TOL), Termination.CONJUGATE_POINT)
    ts, _, _, term, t_star, _ = _integrate(rhs, np.array([0.0, 0.0, 0.0, 1.0]), 1.0,
                                           1.0, 1.0, 100, [monitor])
    assert term is Termination.CONJUGATE_POINT
    assert len(ts) == 2 and ts[-1] == t_star
    assert t_star == pytest.approx(np.sqrt(c * (1.0 - SINGULAR_TOL)), abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a conjugate point of even multiplicity dips det(J/t) to zero "
                          "without a sign change, and the scan sees only step ends")
def test_sphere3_finds_its_multiplicity_two_conjugate_points():
    """Every ray of S^3 meets the antipode, conjugate of multiplicity 2, at t* = pi/|u|."""
    s = model_registry("sphere", n=3)
    p = np.array([1.2, 1.4, 0.3])
    rng = np.random.default_rng(2026)
    for _ in range(20):
        speed = rng.uniform(0.5, 2.0)
        u = speed * normalize_direction(s, p, rng.standard_normal(3))
        t = first_conjugate_time(s, p, u, t_max=4.0 / speed)
        assert t is not None and t == pytest.approx(np.pi / speed, abs=1e-6)


def test_hyperbolic_has_no_conjugate_points():
    h = model_registry("hyperbolic2")
    p = np.array([0.0, 1.0])
    for ang in [0.2, 1.5, 3.0]:
        u = normalize_direction(h, p, np.array([np.cos(ang), np.sin(ang)]))
        assert first_conjugate_time(h, p, u, t_max=5.0) is None


def test_conjugate_scan_raises_on_domain_exit():
    s = model_registry("sphere2")
    with pytest.raises(DomainEscape):
        first_conjugate_time(s, np.array([0.5, 0.0]), np.array([-1.0, 0.0]),
                             t_max=4.0)


def test_desitter_conjugate_structure():
    d = model_registry("desitter", n=2)
    p = np.array([0.3, 0.1])
    u_s = normalize_direction(d, p, np.array([1.0, 0.0]))
    t = first_conjugate_time(d, p, u_s, t_max=4.0)
    assert t == pytest.approx(np.pi, abs=1e-6)
    u_t = normalize_direction(d, p, np.array([0.0, 1.0]))
    assert first_conjugate_time(d, p, u_t, t_max=10.0) is None


def test_normalize_direction():
    d = model_registry("desitter", n=2)
    p = np.array([0.0, 0.0])
    g = np.asarray(d.metric(p))
    for u in [np.array([1.0, 0.3]), np.array([0.3, 1.0])]:
        w = normalize_direction(d, p, u)
        assert abs(abs(w @ g @ w) - 1.0) < 1e-12
    null = normalize_direction(d, p, np.array([1.0, 1.0]))
    assert np.linalg.norm(null) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalize_direction(d, p, np.zeros(2))


def test_direction_grid_stratification():
    d = model_registry("desitter", n=2)
    rows = direction_grid(d, np.zeros(2), 32)
    classes = {r["causal_class"] for r in rows}
    assert classes == {"spacelike", "timelike", "null"}
    s = model_registry("sphere2")
    rows = direction_grid(s, np.array([1.0, 0.0]), 16)
    assert len(rows) == 16
    assert all(r["causal_class"] == "spacelike" for r in rows)


def test_radial_rays_are_the_direction_grid():
    """Both surface families come from the one sweep at the same offset."""
    s = model_registry("sphere2")
    p = np.array([1.1, 0.4])
    rays = [curve.alpha(1.0) for curve in radial_ray_family(s, p, 16).curves]
    grid = [row["u"] for row in direction_grid(s, p, 16)]
    assert len(rays) == len(grid) == 16
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rays, grid))


def test_hyperboloid_sweep_is_the_grid_boost():
    d = model_registry("desitter", n=2)
    p = np.array([0.3, 0.2])
    gnorm = 1.7
    rows = direction_grid(d, p, 32)
    chis = np.linspace(-BOOST_RANGE, BOOST_RANGE, 8)
    for causal, offset in (("spacelike", 0), ("timelike", 1)):
        alpha = hyperboloid_sweep_family(d, p, gnorm, causal).curves[0].alpha
        for k, chi in enumerate(chis):
            row = rows[4 * k + offset]
            assert row["causal_class"] == causal
            assert np.array_equal(alpha(chi), gnorm * row["u"])


def test_conjugate_scan_path_is_a_geodesic_path():
    s = model_registry("sphere2")
    p = np.array([1.1, 0.4])
    u = normalize_direction(s, p, np.array([0.3, 1.0]))
    t_star, var = _first_conjugate_scan(s, p, u, 4.0, None)
    assert isinstance(var, GeodesicPath) and t_star == pytest.approx(np.pi, abs=1e-6)
    assert var.endpoint.tobytes() == var.sol(t_star)[:2].tobytes()
    assert np.array_equal(var.point(t_star), var.endpoint)
    x, v, _ = var.split(0.5)
    assert np.array_equal(var.point(0.5), x) and np.array_equal(var.velocity(0.5), v)
    assert [node[2].shape for node in var.nodes] == [(2,)] * len(var.ts)
    assert energy_drift(var) < 1e-8


def test_sphere_locus_clusters_to_antipode():
    s = model_registry("sphere2")
    p = np.array([1.1, 0.4])
    sample = conjugate_locus_sample(s, p, t_max=1.2 * np.pi, count=16, refine=1)
    assert len(sample.clusters) == 1
    antipode = -embedding_point(s, p)
    assert np.linalg.norm(sample.clusters[0] - antipode) < 1e-3
    assert sample.diagnostics["cluster_count_stable"]
    assert "caveat" in sample.diagnostics
    assert sample.diagnostics["complement_components"] >= 1
    q = np.array([1.3, 1.0])
    assert component_of_point(sample, q) is not None


@pytest.mark.parametrize("count", [0, -3])
def test_conjugate_locus_sample_rejects_a_count_below_one(monkeypatch, count):
    calls = []
    monkeypatch.setattr(jacobi, "_locus_rays", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="count"):
        conjugate_locus_sample(model_registry("desitter"), [0.1, 0.2], t_max=1.0, count=count)
    assert calls == []


def test_wrap_delta_is_wrap_near_about_zero_bitwise():
    """Wrapping in place without the zero reference changes no bit, sign of zero included."""
    s = model_registry("sphere2")
    rng = np.random.default_rng(53)
    phi = np.concatenate([rng.uniform(-7.0, 7.0, 20_000), rng.normal(0.0, 1e-12, 1000),
                          [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3 * np.pi]])
    for d in phi:
        delta = np.array([rng.uniform(-1.0, 1.0), d])
        ref = jacobi._wrap_near(s, delta.copy(), np.zeros(2))
        assert _wrap_delta(s, delta).tobytes() == ref.tobytes()


def test_wrapping_keeps_in_range_coordinates_bitwise():
    s = model_registry("sphere2")
    assert jacobi._wrap_near(s, np.array([1.5, 0.4]), np.array([1.2, 0.1]))[1] == 0.4
    assert _wrap_delta(s, np.array([0.0, 0.3]))[1] == 0.3
    # an out-of-range coordinate still moves to the representative nearest ref
    assert jacobi._wrap_near(s, np.array([1.5, 3.0]), np.array([1.2, -3.0]))[1] == \
        pytest.approx(3.0 - 2.0 * np.pi, abs=1e-15)
    assert _wrap_delta(s, np.array([0.0, np.pi]))[1] == -np.pi


def test_locus_sample_records_escaping_rays():
    """Clifton-Pohl is incomplete: from (1, 0.5) the boost and null rays of
    the locus grid blow up before t_max.  Each such ray is an escape row
    with no conjugate time or point; the one null ray that reaches t_max
    without a conjugate point is 'none'."""
    cp = model_registry("clifton_pohl")
    sample = conjugate_locus_sample(cp, (1.0, 0.5), t_max=3.0, count=8, refine=0)
    statuses = [row["status"] for row in sample.rays]
    assert len(statuses) == 12
    assert statuses.count("escape:BlowUp") == 11 and statuses.count("none") == 1
    assert all(row["t_star"] is None and row["point"] is None for row in sample.rays)
    assert sample.clusters == []


def test_component_of_point_reads_the_sampled_complement(monkeypatch):
    s = model_registry("sphere2")
    p = np.array([1.1, 0.4])
    sample = conjugate_locus_sample(s, p, t_max=3.5, count=8, refine=0)
    xs, ys, labels = jacobi.complement_grid(s, p, sample.clusters)
    assert all(np.array_equal(a, b) for a, b in zip(sample.complement, (xs, ys, labels)))
    calls = []
    monkeypatch.setattr(jacobi, "complement_grid", lambda *args: calls.append(args))
    q = np.array([1.3, 1.0])
    label = labels[np.argmin(np.abs(xs - q[0])), np.argmin(np.abs(ys - q[1]))]
    assert component_of_point(sample, q) == label >= 0
    assert calls == []


SCAN_CFG = IntegratorConfig(rtol=1e-8, atol=1e-10)


def test_variational_termination_mirrors_base_path():
    """J' diverges (cot theta) at the chart edge, where the steps underflow:
    the path ends ChartExit at its last accepted state, where the base
    geodesic's chart margin reaches zero."""
    s = model_registry("sphere2")
    p, v = np.array([0.5, 0.0]), np.array([-1.0, 0.0])
    var = integrate_variational(s, p, v, t_max=2.0)
    base = integrate_geodesic(s, p, v, t_max=2.0)
    assert var.termination is base.termination is Termination.CHART_EXIT
    assert var.term_time == var.ts[-1]
    assert var.term_time == pytest.approx(base.term_time, abs=1e-12)


@pytest.mark.parametrize("p,v", [((0.5, 1.0), (-1.0, 0.0)), ((2.5, 1.0), (1.0, 0.0))])
@pytest.mark.parametrize("cfg", [None, SCAN_CFG])
def test_meridians_into_either_pole_end_as_their_geodesic(p, v, cfg):
    s = model_registry("sphere2")
    var = integrate_variational(s, np.array(p), np.array(v), t_max=2.0, cfg=cfg)
    base = integrate_geodesic(s, np.array(p), np.array(v), cfg, t_max=2.0)
    assert var.termination is base.termination is Termination.CHART_EXIT
    assert var.witness is None



def test_axis_blow_up_bound_is_the_closed_form():
    """On the Clifton-Pohl axis u(t) = u0 / (1 - a t / u0) blows up at T = u0 / a;
    the path ends at an accepted step before T, with T read off the doublings of u."""
    cp = model_registry("clifton_pohl")
    rng = np.random.default_rng(18)
    for _ in range(10):
        u0, a = rng.uniform(0.5, 2.0, 2)
        var = integrate_variational(cp, np.array([u0, 0.0]), np.array([a, 0.0]),
                                    t_max=2.0 * u0 / a)
        assert var.termination is Termination.BLOW_UP
        assert var.term_time == var.ts[-1] < u0 / a
        w = var.witness
        assert w["blow_up_bound"] == pytest.approx(u0 / a, rel=1e-5)
        assert 0.0 < w["gap_ratio"] < 1.0
        levels = [r["norm"] for r in w["norm_records"]]
        assert levels == [8.0 * 2.0 ** k for k in range(len(levels))]
        times = [r["t"] for r in w["norm_records"]]
        assert times == sorted(times) and times[-1] <= var.term_time
        for r in w["norm_records"]:
            assert var.point(r["t"])[0] == pytest.approx(r["norm"], rel=1e-9)


def test_clifton_pohl_scan_ends_at_its_settled_blow_up_time():
    cp = model_registry("clifton_pohl")
    var = integrate_variational(cp, np.array([1.0, 0.5]), np.array([1.0, 1.0]), t_max=3.0,
                                cfg=SCAN_CFG, singular_tol=SINGULAR_TOL)
    assert var.termination is Termination.BLOW_UP
    assert var.steps <= 240
    assert var.term_time == var.ts[-1] < var.witness["blow_up_bound"] <= 3.0
    with pytest.raises(DomainEscape) as exc:
        first_conjugate_time(cp, (1.0, 0.5), (1.0, 1.0), 3.0, SCAN_CFG)
    assert exc.value.t == var.term_time
    assert exc.value.witness == var.witness


def test_survey_clifton_pohl_escapes_lie_in_range():
    """Seeded rays as the survey draws them: every escape lies in (0, t_max], and
    every witnessed bound lies after the escape and within the horizon."""
    cp = model_registry("clifton_pohl")
    rng = np.random.default_rng(5)
    witnessed = 0
    for _ in range(12):
        r, a, b, c = rng.uniform([0.5, 0.0, 0.0, 0.5], [2.0, 2 * np.pi, 2 * np.pi, 1.5])
        p = (r * np.cos(a), r * np.sin(a))
        u = (c * np.cos(b), c * np.sin(b))
        try:
            t_star = first_conjugate_time(cp, p, u, 5.0, SCAN_CFG)
        except DomainEscape as esc:
            assert 0.0 < esc.t <= 5.0
            if esc.witness is not None:
                witnessed += 1
                assert esc.termination is Termination.BLOW_UP
                assert esc.t < esc.witness["blow_up_bound"] <= 5.0
        else:
            assert t_star is None or 0.0 < t_star <= 5.0
    assert witnessed > 0


@pytest.mark.parametrize("closest", [1e-3, 1e-4, 1e-5, 2e-6, 1e-6, 1e-8])
@pytest.mark.parametrize("cfg", [None, SCAN_CFG])
def test_great_circle_grazing_the_pole_is_not_a_blow_up(closest, cfg):
    """J and J' spike to about closest^-2 as the circle passes the polar chart's
    pole, with doubling gaps that shrink, but the chart position stays bounded."""
    s = model_registry("sphere2")
    v = np.array([-np.cos(closest), np.sin(closest)])
    var = integrate_variational(s, np.array([np.pi / 2, 0.0]), v, t_max=3.0, cfg=cfg)
    assert var.termination is Termination.REACHED_TMAX
    assert var.witness is None
    assert np.abs(var.states[:, 4:]).max() > 0.5 / closest ** 2


def test_conjugate_scan_passes_the_pole_on_a_grazing_great_circle():
    """A great circle 1e-6 from the pole meets its first conjugate point at pi."""
    s = model_registry("sphere2")
    v = np.array([-np.cos(1e-6), np.sin(1e-6)])
    t_star = first_conjugate_time(s, np.array([np.pi / 2, 0.0]), v, 4.0)
    assert t_star == pytest.approx(np.pi, abs=1e-7)
