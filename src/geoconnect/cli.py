"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 geometric failure (non-connection,
probe violation), 3 model-configuration error.

Numeric output is deterministic for a fixed --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import dsl
from .config import load_model_config
from .connect import ConnectConfig, connect, connect_report, render_report
from .errors import ConfigError, GeoError, UnknownModel
from .geodesic import IntegratorConfig, integrate_geodesic
from .jacobi import _seeded_directions, conjugate_locus_sample
from .manifold import ManifoldModel, ScalarField, Tangent
from .models import list_models, model_registry
from .probes import (
    ProbeConfig, convex_check, disprisonment_probe, gauss_lemma_check,
    hyperboloid_sweep_family, polyline_family, pseudoconvexity_probe,
    radial_ray_family, spiral_family, weak_properness_probe,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GEOMETRIC = 2
EXIT_MODEL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}") from None


def _model_vector(model: ManifoldModel, text: str, flag: str) -> np.ndarray:
    """``text`` as a finite vector of model.dim components, for the flags whose
    length depends on the model; ArgumentTypeError, a usage error, otherwise."""
    try:
        x = _vector(text)
        if len(x) != model.dim or not np.isfinite(x).all():
            raise argparse.ArgumentTypeError(f"{text!r} is not {model.dim} finite numbers")
    except argparse.ArgumentTypeError as err:
        raise argparse.ArgumentTypeError(f"argument {flag}: {err}") from None
    return x


def _finite(text: str) -> float:
    x = float(text)   # argparse reports a ValueError as an invalid value
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return x


def _positive(text: str) -> float:
    x = _finite(text)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return x


def _check_counts(args) -> None:
    """A negative --samples or --refine, or a --count below 1, is a usage error."""
    for flag, least in (("samples", 0), ("count", 1), ("refine", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise argparse.ArgumentTypeError(
                f"argument --{flag}: {value} is {'negative' if least == 0 else 'not positive'}")


def _fmt(values) -> str:
    return ",".join("%.17g" % float(v) for v in values)


class _JsonEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return super().default(o)


def _resolve_model(args) -> ManifoldModel:
    if getattr(args, "config", None):
        return load_model_config(args.config)
    if not getattr(args, "model", None):
        raise ConfigError("no model given (use --model or --config)")
    kwargs = {}
    if getattr(args, "dim", None) is not None:
        kwargs["dim"] = args.dim
    return model_registry(args.model, **kwargs)


def _integrator(args, cfg: IntegratorConfig | None = None) -> IntegratorConfig:
    cfg = cfg or IntegratorConfig()
    if getattr(args, "rtol", None) is not None:
        cfg = replace(cfg, rtol=args.rtol, atol=args.rtol * 1e-2)
    return cfg


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", help="builtin model name")
    p.add_argument("--dim", type=int, help="dimension for parameterizable models")
    p.add_argument("--config", help="INI model configuration file")
    # atol is set to rtol / 100, which must stay positive
    p.add_argument("--rtol", type=_positive, help="integrator relative tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled subcommands")


def cmd_models(args) -> int:
    rows = list_models()
    if args.json:
        print(json.dumps(rows, indent=2, cls=_JsonEncoder))
        return EXIT_OK
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        sig = "".join("+" if s > 0 else "-" for s in r["signature"])
        oracle = " [oracle]" if r["has_oracle"] else ""
        print(f"{r['name']:<{width}}  dim={r['dim']!s:<24} sig={sig:<6} "
              f"{r['description']}{oracle}")
    return EXIT_OK


def cmd_shoot(args) -> int:
    model = _resolve_model(args)
    vel = _model_vector(model, args.vel, "--vel")
    path = integrate_geodesic(model, args.point, vel, _integrator(args), t_max=args.tmax)
    n = model.dim
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
    print(",".join(header))
    if args.samples:
        ts = np.linspace(0.0, path.term_time, args.samples)
        for t in ts:
            y = path.sol(t)
            print(_fmt([t, *y]))
    else:
        for t, s in zip(path.ts, path.states):
            print(_fmt([t, *s]))
    print(f"# termination: {path.termination.value} at t = {path.term_time:.17g}",
          file=sys.stderr)
    return EXIT_OK


def cmd_exp(args) -> int:
    model = _resolve_model(args)
    from .geodesic import exp as exp_map
    x = exp_map(model, args.point, _model_vector(model, args.vel, "--vel"), _integrator(args))
    print(_fmt(x))
    return EXIT_OK


def cmd_connect(args) -> int:
    model = _resolve_model(args)
    cfg = ConnectConfig(integrator=_integrator(args, ConnectConfig().integrator))
    outcome = connect(model, getattr(args, "from"), args.to, cfg)
    report = connect_report(model, outcome, getattr(args, "from"), args.to)
    if args.json:
        print(json.dumps(report, indent=2, cls=_JsonEncoder))
    else:
        print(render_report(report))
    return EXIT_OK if outcome.connected else EXIT_GEOMETRIC


def cmd_conj_locus(args) -> int:
    model = _resolve_model(args)
    sample = conjugate_locus_sample(
        model, args.point, t_max=args.tmax, cfg=_integrator(args),
        count=args.count, refine=args.refine,
    )
    n = model.dim
    header = (["dir_index"] + [f"u{i+1}" for i in range(n)] + ["t_star"]
              + [f"c{i+1}" for i in range(n)] + ["status"])
    print(",".join(header))
    for row in sample.rays:
        t_star = row["t_star"]
        pt = row["point"]
        cells = [str(row["index"])]
        cells += ["%.17g" % c for c in row["u"]]
        cells += ["%.17g" % t_star if t_star is not None else ""]
        cells += (["%.17g" % c for c in pt] if pt is not None else [""] * n)
        cells += [row["status"]]
        print(",".join(cells))
    print(f"# diagnostics: {json.dumps(sample.diagnostics, cls=_JsonEncoder)}",
          file=sys.stderr)
    return EXIT_OK


def _probe_family(model, args, norm_cap: float):
    name = args.family or ("hyperboloid" if not model.is_riemannian else "radial")
    p = args.point
    if name == "radial":
        return radial_ray_family(model, p, norm_cap=norm_cap)
    if name == "spiral":
        return spiral_family(model, p, norm_cap=norm_cap)
    if name == "hyperboloid":
        try:
            return hyperboloid_sweep_family(model, p, gnorm=args.gnorm, norm_cap=norm_cap)
        except ValueError as err:   # a definite model: no boost plane to sweep
            raise argparse.ArgumentTypeError(f"argument --family: {err}") from None
    if name == "polyline":
        pts = [_model_vector(model, t, "--waypoints")
               for t in (args.waypoints or "").split(";") if t]
        if not pts:
            raise ConfigError("polyline family needs --waypoints p1;p2;...")
        return polyline_family(pts)
    raise ConfigError(f"unknown probe family {name!r}")


def cmd_probe(args) -> int:
    model = _resolve_model(args)
    kind = args.kind
    if kind == "weakproper":
        pc = ProbeConfig()
        family = _probe_family(model, args, pc.norm_cap)
        verdict = weak_properness_probe(model, args.point, family, pc)
        out = {
            "kind": "weakproper",
            "model": model.name,
            "params": {"family": family.name, "point": args.point.tolist()},
            "rows": verdict.rows,
            "verdict": verdict.summary,
            "witness_curve": verdict.witness_curve,
            "caveat": verdict.caveat,
        }
        ok = verdict.summary != "Violation"
    elif kind == "disprison":
        seeds = [Tangent.of(args.point, u)
                 for u in _seeded_directions(np.eye(model.dim), args.count, args.seed)]
        out = disprisonment_probe(model, seeds, horizon=args.tmax,
                                  cfg=_integrator(args))
        ok = True
    elif kind == "pseudoconvex":
        if args.box is None:
            raise ConfigError("pseudoconvex probe needs --box lo1,..;hi1,..")
        parts = args.box.split(";")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"argument --box: {args.box!r} is not 'lo;hi'")
        lo, hi = (_model_vector(model, t, "--box") for t in parts)
        if not np.all(lo < hi):
            raise argparse.ArgumentTypeError(
                f"argument --box: {args.box!r} needs lo < hi in every coordinate")
        out = pseudoconvexity_probe(model, (lo, hi), sample_count=args.count,
                                    horizon=args.tmax, seed=args.seed,
                                    cfg=_integrator(args))
        ok = out["verdict"] != "Unbounded"
    elif kind == "gauss":
        if not model.is_riemannian:
            raise argparse.ArgumentTypeError(
                f"argument --kind: gauss needs a Riemannian model, not {model.name}")
        if not args.tmax > 0.0:
            raise argparse.ArgumentTypeError(
                f"argument --tmax: gauss needs a positive radius, not {args.tmax:g}")
        rs = np.linspace(args.tmax / 32.0, args.tmax, 32)
        out = gauss_lemma_check(model, args.point, rs, direction_count=32,
                                cfg=_integrator(args))
        ok = out["verdict"] == "pass"
    else:
        raise ConfigError(f"unknown probe kind {kind!r}")
    print(json.dumps(out, indent=2, cls=_JsonEncoder))
    return EXIT_OK if ok else EXIT_GEOMETRIC


def cmd_convex_check(args) -> int:
    model = _resolve_model(args)
    f = ScalarField(dsl.compile_expr(dsl.parse(args.f, model.dim)), name=args.f)
    rng = np.random.default_rng(args.seed)
    lo = model.domain.lower
    hi = model.domain.upper
    lo = np.where(np.isfinite(lo), lo + 0.1, -2.0)
    hi = np.where(np.isfinite(hi), hi - 0.1, 2.0)
    samples = []
    while len(samples) < args.count:
        p = rng.uniform(lo, hi)
        if not model.domain.contains(p):
            continue
        v = rng.standard_normal(model.dim)
        samples.append(Tangent.of(p, v))
    out = convex_check(model, f, samples, cfg=_integrator(args))
    print(json.dumps(out, indent=2, cls=_JsonEncoder))
    return EXIT_OK if out["verdict"] == "pass" else EXIT_GEOMETRIC


def build_parser() -> _Parser:
    parser = _Parser(prog="geoconnect",
                     description="geodesic shooting, connection, and probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list builtin models")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("shoot", help="integrate a geodesic, CSV output")
    _add_model_args(p)
    p.add_argument("--from", dest="point", type=_vector, required=True)
    p.add_argument("--vel", required=True)
    p.add_argument("--tmax", type=_finite, default=1.0)
    p.add_argument("--samples", type=int, help="resample dense output at N times")
    p.set_defaults(fn=cmd_shoot)

    p = sub.add_parser("exp", help="exponential map endpoint")
    _add_model_args(p)
    p.add_argument("--from", dest="point", type=_vector, required=True)
    p.add_argument("--vel", required=True)
    p.set_defaults(fn=cmd_exp)

    p = sub.add_parser("connect", help="two-point geodesic connection")
    _add_model_args(p)
    p.add_argument("--from", type=_vector, required=True)
    p.add_argument("--to", type=_vector, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_connect)

    p = sub.add_parser("conj-locus", help="sample the first conjugate locus")
    _add_model_args(p)
    p.add_argument("--point", type=_vector, required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--tmax", type=_finite, default=float(2.0 * np.pi))
    p.add_argument("--refine", type=int, default=1)
    p.set_defaults(fn=cmd_conj_locus)

    p = sub.add_parser("probe", help="empirical geometry probes (JSON output)")
    _add_model_args(p)
    p.add_argument("--kind", required=True,
                   choices=["weakproper", "disprison", "pseudoconvex", "gauss"])
    p.add_argument("--point", type=_vector, default=None)
    p.add_argument("--family",
                   choices=["radial", "spiral", "hyperboloid", "polyline"])
    p.add_argument("--gnorm", type=_positive, default=float(np.pi))
    p.add_argument("--waypoints", help="semicolon-separated tangent waypoints")
    p.add_argument("--box", help="K as 'lo1,lo2,..;hi1,hi2,..'")
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--tmax", type=_finite, default=10.0)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("convex-check", help="convexity certificate for --f")
    _add_model_args(p)
    p.add_argument("--f", required=True, help="scalar field expression in x1..xn")
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(fn=cmd_convex_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "probe" and args.point is None
            and args.kind in ("weakproper", "gauss", "disprison")):
        parser.error(f"--point is required for --kind {args.kind}")
    try:
        _check_counts(args)
        return args.fn(args)
    except (ConfigError, UnknownModel, dsl.ParseError) as err:
        print(f"geoconnect: model error: {err}", file=sys.stderr)
        return EXIT_MODEL
    except GeoError as err:
        print(f"geoconnect: {err}", file=sys.stderr)
        return EXIT_GEOMETRIC
    except argparse.ArgumentTypeError as err:   # a flag a subcommand parses itself
        print(f"geoconnect: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
