"""INI model configs, CLI subcommands, determinism, and report schemas."""
import importlib.resources
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

import geoconnect.cli as cli
from geoconnect import (
    ConfigError, ConnectConfig, christoffel_eval, dsl, integrate_geodesic, metric_eval,
    model_from_config_text, model_registry,
)
from geoconnect.manifold import connection, fd_christoffel
from geoconnect.cli import main


def _schema(name: str) -> dict:
    text = (importlib.resources.files("geoconnect") / "schemas" / name).read_text()
    return json.loads(text)


# ----------------------------- config parsing ------------------------------

def test_builtin_config():
    model = model_from_config_text("[manifold]\ntype = builtin\nname = sphere2\n")
    assert model.name == "sphere2"
    assert model.dim == 2


def test_builtin_config_with_dim():
    model = model_from_config_text(
        "[manifold]\ntype = builtin\nname = minkowski\ndim = 4\n")
    assert model.dim == 4


def test_dsl_config_matches_builtin_metric():
    """A DSL hyperbolic plane reproduces the builtin one, Christoffels included."""
    text = (
        "[manifold]\n"
        "type = dsl\n"
        "name = dsl-hyperbolic\n"
        "dim = 2\n"
        "signature = +,+\n"
        "g_1_1 = 1/x2^2\n"
        "g_2_2 = 1/x2^2\n"
        "lower = -inf, 1e-8\n"
        "upper = inf, inf\n"
    )
    model = model_from_config_text(text)
    builtin = model_registry("hyperbolic2")
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = np.array([rng.uniform(-2, 2), rng.uniform(0.3, 3.0)])
        assert np.allclose(metric_eval(model, x), metric_eval(builtin, x),
                           atol=1e-12)
        assert np.allclose(christoffel_eval(model, x),
                           christoffel_eval(builtin, x), atol=1e-6)


HALFPLANE_INI = (
    "[manifold]\ntype = dsl\ndim = 2\n"
    "g_1_1 = 1/x2^2\ng_2_2 = 1/x2^2\nlower = -inf, 1e-8\n"
)


def test_dsl_connection_is_exact():
    """Symbolic metric derivatives give the builtin's Christoffels and their derivatives."""
    model = model_from_config_text(HALFPLANE_INI)
    builtin = model_registry("hyperbolic2")
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = np.array([rng.uniform(-2, 2), rng.uniform(0.3, 3.0)])
        assert np.allclose(model.christoffel(x), builtin.christoffel(x),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(model.christoffel_deriv(x), builtin.christoffel_deriv(x),
                           rtol=1e-12, atol=1e-12)


def test_dsl_off_diagonal_connection_matches_fd():
    model = model_from_config_text(
        "[manifold]\ntype = dsl\ndim = 2\n"
        "g_1_1 = 1+4*x1^2\ng_1_2 = 4*x1*x2\ng_2_2 = 1+4*x2^2\n")
    builtin = model_registry("paraboloid")
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 2)
        assert np.allclose(model.christoffel(x), fd_christoffel(builtin, x), atol=1e-7)
        dgamma = np.empty((2, 2, 2, 2))
        for l in range(2):
            h = 1e-5
            xp = x.copy(); xp[l] += h
            xm = x.copy(); xm[l] -= h
            dgamma[l] = (model.christoffel(xp) - model.christoffel(xm)) / (2 * h)
        assert np.allclose(model.christoffel_deriv(x), dgamma, atol=1e-7)
        # the builtin's one-stencil finite-difference dGamma matches the exact one
        assert np.allclose(connection(builtin)[1](x), model.christoffel_deriv(x),
                           atol=1e-7)


def test_dsl_fault_during_integration_is_typed():
    model = model_from_config_text(
        "[manifold]\ntype = dsl\ndim = 2\ng_1_1 = 1/x1\ng_2_2 = 1\n")
    with pytest.raises(dsl.EvalError) as exc:
        integrate_geodesic(model, (0.0, 0.0), (0.0, 1.0), t_max=1.0)
    assert exc.value.message == "division by zero"
    assert exc.value.x == (0.0, 0.0)


def test_dsl_config_off_diagonal_symmetric():
    text = (
        "[manifold]\ntype = dsl\ndim = 2\n"
        "g_1_1 = 1\ng_2_2 = 1\ng_1_2 = x1*0.1\n"
    )
    model = model_from_config_text(text)
    g = np.asarray(model.metric(np.array([2.0, 0.0])))
    assert g[0, 1] == g[1, 0] == 0.2


@pytest.mark.parametrize("text,fragment", [
    ("[other]\nname = x\n", "missing [manifold]"),
    ("[manifold]\ntype = builtin\n", "needs a name"),
    ("[manifold]\ntype = builtin\nname = sphere2\ng_1_1 = 1\n", "unknown keys"),
    ("[manifold]\ntype = magic\n", "unknown model type"),
    ("[manifold]\ntype = dsl\n", "integer dim"),
    ("[manifold]\ntype = dsl\ndim = 2\nsignature = +\n", "signature"),
    ("[manifold]\ntype = dsl\ndim = 2\nsignature = +,?\n", "signature"),
    ("[manifold]\ntype = dsl\ndim = 2\ng_2_1 = 1\n", "upper triangle"),
    ("[manifold]\ntype = dsl\ndim = 2\ng_1_3 = 1\n", "out of range"),
    ("[manifold]\ntype = dsl\ndim = 2\nbogus = 1\n", "unknown key"),
    ("[manifold]\ntype = dsl\ndim = 2\ng_1_1 = 1+\n", "in g_1_1"),
    ("[manifold]\ntype = dsl\ndim = 2\nlower = 0\n", "bounds need 2"),
    ("not ini at all [", "malformed config"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as exc:
        model_from_config_text(text)
    assert fragment in str(exc.value)


# --------------------------------- CLI -------------------------------------

def test_cli_models(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for name in ["euclidean", "sphere2", "desitter", "clifton_pohl"]:
        assert name in out
    assert main(["models", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert any(r["name"] == "sphere2" and r["has_oracle"] for r in rows)


def test_cli_shoot_csv(capsys):
    rc = main(["shoot", "--model", "euclidean", "--dim", "2",
               "--from", "0,0", "--vel", "1,2", "--tmax", "2",
               "--samples", "5"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2"
    last = [float(c) for c in lines[-1].split(",")]
    assert last == pytest.approx([2.0, 2.0, 4.0, 1.0, 2.0])
    assert "termination: ReachedTmax" in captured.err


def test_cli_shoot_backward(capsys):
    rc = main(["shoot", "--model", "sphere2", "--from", "1.2,0.1", "--vel", "0.3,0.5",
               "--tmax=-1", "--samples", "3"])
    assert rc == 0
    captured = capsys.readouterr()
    rows = [[float(c) for c in l.split(",")] for l in captured.out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == [0.0, -0.5, -1.0]
    assert rows[0][1:] == [1.2, 0.1, 0.3, 0.5]
    assert "termination: ReachedTmax at t = -1" in captured.err


def test_cli_shoot_negative_samples_is_a_usage_error(capsys):
    argv = ["shoot", "--model", "sphere2", "--from", "1,0.3", "--vel", "1,1"]
    assert main([*argv, "--samples", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "geoconnect: error: argument --samples: -3 is negative\n"
    # zero samples still prints the integrator's nodes
    assert main(argv) == 0
    nodes = capsys.readouterr().out
    assert main([*argv, "--samples", "0"]) == 0
    assert capsys.readouterr().out == nodes and len(nodes.splitlines()) > 3


def test_cli_shoot_samples_a_stationary_path(capsys):
    rc = main(["shoot", "--model", "sphere2", "--from", "1,0.3", "--vel", "0,0",
               "--samples", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert [[float(c) for c in l.split(",")] for l in lines] == [
        [0.0, 1.0, 0.3, 0.0, 0.0], [0.5, 1.0, 0.3, 0.0, 0.0], [1.0, 1.0, 0.3, 0.0, 0.0]]


def test_cli_conj_locus_zero_horizon(capsys):
    rc = main(["conj-locus", "--model", "sphere2", "--point", "1.3,0.4",
               "--count", "4", "--tmax", "0", "--refine", "0"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 4
    assert all(r.endswith(",none") for r in rows)


def test_cli_exp(capsys):
    rc = main(["exp", "--model", "minkowski", "--dim", "2",
               "--from", "1,1", "--vel", "0.5,-0.25"])
    assert rc == 0
    vals = [float(c) for c in capsys.readouterr().out.strip().split(",")]
    assert vals == pytest.approx([1.5, 0.75])


def test_cli_connect_json_and_schema(capsys):
    rc = main(["connect", "--model", "sphere2", "--from", "1.2,0.1",
               "--to", "1.8,1.0", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Connected"
    jsonschema.validate(report, _schema("connect_report.schema.json"))


def test_cli_connect_failure_exit_code(capsys):
    rc = main(["connect", "--model", "clifton_pohl",
               "--from", "1,0", "--to=-1,0", "--json"])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] != "Connected"
    jsonschema.validate(report, _schema("connect_report.schema.json"))


def test_cli_desitter_refusal_is_an_escape_witness(capsys):
    """An unreachable de Sitter target, on the CLI's variational frames, is
    refused with the lift's divergence records, well within the time limit."""
    start = time.perf_counter()
    rc = main(["connect", "--model", "desitter", "--from", "0,0", "--to", "3.0,0.4", "--json"])
    elapsed = time.perf_counter() - start
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, _schema("connect_report.schema.json"))
    assert report["status"] == "EscapeWitness"
    records = report["witness"]["norm_records"]
    assert len(records) >= 4 and all(set(r) == {"t", "lift_norm"} for r in records)
    assert report["witness"]["blow_up_bound"] < report["witness"]["target_path_length"]
    assert report["witness"]["lift_steps"] == report["lift_steps"]
    assert elapsed < 30.0


def test_cli_connect_non_finite_target(capsys):
    rc = main(["connect", "--model", "sphere2", "--from", "1,0.3", "--to", "nan,1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "Connected" not in captured.out
    assert "not finite" in captured.err


def test_cli_connect_target_outside_the_chart(capsys):
    rc = main(["connect", "--model", "hyperbolic2", "--from", "0,1", "--to", "0,-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "outside chart" in captured.err


def test_cli_connect_target_of_the_wrong_length(capsys):
    rc = main(["connect", "--model", "sphere2", "--from", "1,0.3", "--to", "1,2,3"])
    assert rc == 2
    assert "coordinates" in capsys.readouterr().err


def test_cli_connect_rtol_keeps_step_cap(monkeypatch, capsys):
    """--rtol changes the tolerances only, not the connector's other defaults."""
    seen = {}
    real = cli.connect

    def spy(model, p, q, cfg):
        seen["cfg"] = cfg
        return real(model, p, q, cfg)

    monkeypatch.setattr(cli, "connect", spy)
    rc = main(["connect", "--model", "sphere2", "--from", "1.2,0.1",
               "--to", "1.3,0.2", "--rtol", "1e-7"])
    assert rc == 0
    expected = replace(ConnectConfig(),
                       integrator=replace(ConnectConfig().integrator, rtol=1e-7, atol=1e-7 * 1e-2))
    assert seen["cfg"] == expected


@pytest.mark.parametrize("argv", [
    ["shoot", "--model", "sphere2", "--from", "1,0.3", "--vel", "0.1,0.1", "--rtol", "nan"],
    ["connect", "--model", "sphere2", "--from", "1,0.3", "--to", "1.2,0.4", "--rtol", "nan"],
    ["connect", "--model", "sphere2", "--from", "1,0.3", "--to", "1.2,0.4", "--rtol", "0"],
    ["conj-locus", "--model", "sphere2", "--point", "1,0.3", "--tmax", "nan"],
], ids=["shoot-rtol-nan", "connect-rtol-nan", "connect-rtol-0", "conj-locus-tmax-nan"])
def test_cli_bad_tolerance_or_horizon_is_a_usage_error(argv):
    """Such flags once left the integrator spinning or ran a NaN horizon.  A
    fresh interpreter with a timeout keeps a regression from stalling the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys; from geoconnect.cli import main; sys.exit(main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 1
    assert "error: argument" in out.stderr and "Traceback" not in out.stderr


_EUCLIDEAN_PROBE = ["probe", "--model", "euclidean", "--dim", "2"]
_POLYLINE = [*_EUCLIDEAN_PROBE, "--kind", "weakproper", "--point", "0,0",
             "--family", "polyline", "--waypoints"]


@pytest.mark.parametrize("argv", [
    ["exp", "--model", "sphere2", "--from", "1,0.3", "--vel", "nan,1"],
    ["shoot", "--model", "sphere2", "--from", "1,0.3", "--vel", "1,2,3"],
    [*_EUCLIDEAN_PROBE, "--kind", "pseudoconvex", "--box", "1,x;2,3"],
    [*_EUCLIDEAN_PROBE, "--kind", "pseudoconvex", "--box", "1,1"],
    [*_POLYLINE, "1,q"],
    [*_POLYLINE, "1,2,3"],
], ids=["vel-nan", "vel-length", "box-format", "box-one-corner", "waypoint-format",
        "waypoint-length"])
def test_cli_malformed_vector_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("geoconnect: error: argument") and err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["conj-locus", "--model", "desitter", "--point", "0.1,0.2", "--count", "0"], "--count"),
    (["conj-locus", "--model", "sphere2", "--point", "1.3,0.4", "--count", "4",
      "--refine=-1"], "--refine"),
    ([*_EUCLIDEAN_PROBE, "--kind", "pseudoconvex", "--box", "0,0;1,1", "--count=-4"], "--count"),
    ([*_EUCLIDEAN_PROBE, "--kind", "disprison", "--point", "0,0", "--count=-2"], "--count"),
    (["convex-check", "--model", "euclidean", "--dim", "2", "--f", "x1^2", "--count=-1"],
     "--count"),
], ids=["conj-locus-count", "conj-locus-refine", "pseudoconvex-count", "disprison-count",
        "convex-check-count"])
def test_cli_count_below_one_or_negative_refine_is_a_usage_error(argv, flag, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"geoconnect: error: argument {flag}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("gnorm", ["0", "-3", "inf", "nan"])
def test_cli_gnorm_must_be_positive_and_finite(gnorm, capsys):
    argv = ["probe", "--model", "desitter", "--kind", "weakproper", "--point", "0.1,0.2",
            f"--gnorm={gnorm}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --gnorm" in captured.err and "Traceback" not in captured.err


def test_cli_gauss_with_no_evaluated_pair_fails(tmp_path, capsys):
    """Every ray leaves a small box before its first radius: no (direction,
    radius) pair is evaluated, so there is no evidence for a pass."""
    box = tmp_path / "box.ini"
    box.write_text("[manifold]\ntype = dsl\ndim = 2\ng_1_1 = 1\ng_2_2 = 1\n"
                   "lower = -0.1, -0.1\nupper = 0.1, 0.1\n")
    rc = main(["probe", "--config", str(box), "--kind", "gauss", "--point", "0,0",
               "--tmax", "10"])
    out = json.loads(capsys.readouterr().out)
    assert {row["status"] for row in out["rows"]} == {"escape"}
    assert out["verdict"] == "fail" and rc == 2


def test_cli_gauss_on_an_indefinite_model_is_a_usage_error(capsys):
    assert main(["probe", "--model", "desitter", "--kind", "gauss", "--point", "0.1,0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("geoconnect: error: argument --kind: gauss needs a Riemannian "
                            "model, not desitter(2)\n")


@pytest.mark.parametrize("argv, flag", [
    (["--model", "sphere2", "--kind", "gauss", "--point", "1,0.3", "--tmax", "-1"], "--tmax"),
    (["--model", "sphere2", "--kind", "gauss", "--point", "1,0.3", "--tmax", "0"], "--tmax"),
    (["--model", "sphere2", "--kind", "weakproper", "--family", "hyperboloid",
      "--point", "1,0.3"], "--family"),
    (["--model", "euclidean", "--dim", "2", "--kind", "pseudoconvex",
      "--box", "1,1;0.5,0.5"], "--box"),
    (["--model", "sphere2", "--kind", "pseudoconvex", "--box", "5,5;6,6", "--count", "8"],
     "--box"),
    (["--model", "euclidean", "--dim", "2", "--kind", "pseudoconvex"], "--box"),
    (["--model", "euclidean", "--dim", "2", "--kind", "weakproper", "--point", "0,0",
      "--family", "polyline"], "--waypoints"),
])
def test_cli_probe_input_the_probe_cannot_take_is_a_usage_error(argv, flag, capsys):
    assert main(["probe", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"geoconnect: error: argument {flag}")


def test_cli_conj_locus_csv(capsys):
    rc = main(["conj-locus", "--model", "sphere2", "--point", "1.3,0.4",
               "--count", "8", "--tmax", "4", "--refine", "0"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "dir_index,u1,u2,t_star,c1,c2,status"
    assert len(lines) == 9
    conj = [l for l in lines[1:] if l.endswith("conjugate")]
    assert conj
    t_star = float(conj[0].split(",")[3])
    assert t_star == pytest.approx(np.pi, abs=1e-5)
    assert "diagnostics" in captured.err


def test_cli_probe_schema_and_exit_codes(capsys):
    schema = _schema("probe_report.schema.json")
    rc = main(["probe", "--model", "euclidean", "--dim", "2",
               "--kind", "weakproper", "--point", "0,0", "--family", "radial"])
    assert rc == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), schema)
    rc = main(["probe", "--model", "desitter", "--kind", "weakproper",
               "--point", "0,0", "--family", "hyperboloid",
               f"--gnorm={np.pi!r}"])
    assert rc == 2  # violation is a geometric failure
    jsonschema.validate(json.loads(capsys.readouterr().out), schema)
    rc = main(["probe", "--model", "sphere2", "--kind", "gauss",
               "--point", "1.4,0.3", "--tmax", "1.0"])
    assert rc == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), schema)
    rc = main(["probe", "--model", "sphere2", "--kind", "disprison",
               "--point", "1.5,0.0", "--count", "2", "--tmax", "5"])
    assert rc == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), schema)
    rc = main(["probe", "--model", "euclidean", "--dim", "2",
               "--kind", "pseudoconvex", "--box=-1,-1;1,1",
               "--count", "8", "--tmax", "2"])
    assert rc == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), schema)


def test_cli_disprison_point_of_the_wrong_length(capsys):
    rc = main(["probe", "--model", "sphere2", "--kind", "disprison",
               "--point", "1,0.3,2", "--count", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("geoconnect: expected 2 coordinates")
    assert captured.err.count("\n") == 1


def test_cli_probe_report_is_finite_json(capsys):
    """Radial de Sitter rays whose closed form overflows read domain_escape."""
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in the report")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["probe", "--model", "desitter", "--kind", "weakproper",
                   "--point", "0,0", "--family", "radial"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    jsonschema.validate(report, _schema("probe_report.schema.json"))
    assert "domain_escape" in {row["status"] for row in report["rows"]}


def test_cli_convex_check(capsys):
    rc = main(["convex-check", "--model", "euclidean", "--dim", "2",
               "--f", "x1^2 + x2^2", "--count", "10", "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    jsonschema.validate(report, _schema("probe_report.schema.json"))
    rc = main(["convex-check", "--model", "euclidean", "--dim", "2",
               "--f", "-(x1^2 + x2^2)", "--count", "10", "--seed", "1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


@pytest.mark.parametrize("argv", [
    [*_EUCLIDEAN_PROBE, "--kind", "convex", "--f", "x1^2"],
    [*_EUCLIDEAN_PROBE, "--kind", "weakproper", "--f", "x1^2"],
    [*_EUCLIDEAN_PROBE, "--kind", "gauss"],
], ids=["probe-kind-convex", "probe-f", "probe-point-missing"])
def test_cli_convexity_has_one_entry(argv, capsys):
    """The convexity certificate runs only as convex-check: probe has no
    convex kind and no --f flag, and its ray probes still need --point."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["shoot", "--model", "sphere2", "--from", "1,0.3", "--vel", "0.1,0.1"],
    ["exp", "--model", "sphere2", "--from", "1,0.3", "--vel", "0.1,0.1"],
    ["connect", "--model", "sphere2", "--from", "1,0.3", "--to", "1.2,0.4"],
    ["conj-locus", "--model", "sphere2", "--point", "1,0.3"],
], ids=["shoot", "exp", "connect", "conj-locus"])
def test_cli_seed_only_where_points_are_sampled(argv, capsys):
    """Only probe and convex-check draw seeded samples; elsewhere --seed
    is an unknown flag, a usage error."""
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "3"])
    assert exit_info.value.code == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_cli_gauss_sweeps_count_directions(capsys):
    rc = main(["probe", "--model", "sphere2", "--kind", "gauss", "--point", "1,0.3",
               "--tmax", "1", "--count", "4"])
    out = json.loads(capsys.readouterr().out)
    assert out["params"]["directions"] == 4
    assert {row["direction"] for row in out["rows"]} == set(range(4))
    assert out["verdict"] == "pass" and rc == 0


def test_cli_weakproper_with_no_evaluated_curve_is_undecided(capsys):
    """Every radial ray from (1, 0.5) leaves the Clifton-Pohl domain: with
    no image tail evaluated the verdict is Undecided, which exits 2."""
    rc = main(["probe", "--model", "clifton_pohl", "--kind", "weakproper", "--point", "1,0.5",
               "--family", "radial"])
    out = json.loads(capsys.readouterr().out)
    assert {row["status"] for row in out["rows"]} == {"domain_escape"}
    assert out["verdict"] == "Undecided" and out["witness_curve"] is None
    assert rc == 2


def test_cli_seed_determinism(capsys):
    argv = ["convex-check", "--model", "euclidean", "--dim", "2",
            "--f", "x1^2", "--count", "12", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "model.ini"
    cfgfile.write_text("[manifold]\ntype = builtin\nname = euclidean\ndim = 2\n")
    rc = main(["exp", "--config", str(cfgfile), "--from", "0,0", "--vel", "1,1"])
    assert rc == 0
    vals = [float(c) for c in capsys.readouterr().out.strip().split(",")]
    assert vals == pytest.approx([1.0, 1.0], abs=1e-9)


def test_cli_exit_codes(capsys, tmp_path):
    # usage error: unknown subcommand
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()
    # usage error: missing required argument
    with pytest.raises(SystemExit) as exc:
        main(["exp", "--model", "sphere2", "--from", "1,1"])
    assert exc.value.code == 1
    capsys.readouterr()
    # model error: unknown builtin
    assert main(["exp", "--model", "nosuch", "--from", "0,0", "--vel", "1,1"]) == 3
    capsys.readouterr()
    # model error: broken config file
    bad = tmp_path / "bad.ini"
    bad.write_text("[manifold]\ntype = dsl\ndim = 2\ng_1_1 = 1+\n")
    assert main(["exp", "--config", str(bad), "--from", "0,0", "--vel", "1,1"]) == 3
    capsys.readouterr()
    # geometric error: exp leaves the chart
    assert main(["exp", "--model", "sphere2", "--from", "0.5,0",
                 "--vel=-1,0"]) == 2
    capsys.readouterr()
