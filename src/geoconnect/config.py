"""INI model configuration: builtin references and DSL-defined metrics.

Example::

    [manifold]
    type = dsl
    name = poincare-disk-ish
    dim = 2
    signature = +,+
    g_1_1 = 1 / (x2^2)
    g_2_2 = 1 / (x2^2)
    lower = -inf, 1e-8
    upper = inf, inf
"""
from __future__ import annotations

import configparser
import io
from typing import Optional

import numpy as np

from . import dsl
from .errors import ConfigError
from .manifold import (
    ChartDomain, ManifoldModel, christoffel_deriv_from_metric, christoffel_from_metric,
)
from .models import model_registry

__all__ = ["load_model_config", "model_from_config_text"]

_KNOWN_KEYS = {"type", "name", "dim", "signature", "lower", "upper"}


def _parse_signature(text: str, dim: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != dim:
        raise ConfigError(f"signature has {len(parts)} entries, expected {dim}")
    sig = []
    for p in parts:
        if p in ("+", "+1", "1"):
            sig.append(1)
        elif p in ("-", "-1"):
            sig.append(-1)
        else:
            raise ConfigError(f"bad signature entry {p!r} (use + or -)")
    return tuple(sig)


def _parse_bounds(text: Optional[str], dim: int, default: float) -> np.ndarray:
    if text is None:
        return np.full(dim, default)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dim:
        raise ConfigError(f"bounds need {dim} entries, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as err:
        raise ConfigError(f"bad bound value: {err}") from None


def model_from_config_text(text: str) -> ManifoldModel:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # g_1_2 etc. are case/underscore sensitive
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from None
    if "manifold" not in cp:
        raise ConfigError("missing [manifold] section")
    sec = cp["manifold"]
    kind = sec.get("type", "builtin").strip()

    if kind == "builtin":
        name = sec.get("name")
        if name is None:
            raise ConfigError("builtin model needs a name")
        extra = set(sec) - {"type", "name", "dim"}
        if extra:
            raise ConfigError(f"unknown keys for builtin model: {sorted(extra)}")
        kwargs = {}
        if "dim" in sec:
            kwargs["dim"] = int(sec["dim"])
        return model_registry(name.strip(), **kwargs)

    if kind != "dsl":
        raise ConfigError(f"unknown model type {kind!r} (builtin or dsl)")

    try:
        dim = int(sec.get("dim", ""))
    except ValueError:
        raise ConfigError("dsl model needs an integer dim") from None
    if dim < 1:
        raise ConfigError("dim must be positive")
    name = sec.get("name", "dsl-model").strip()
    signature = _parse_signature(sec.get("signature", ",".join("+" * dim)), dim)

    entries: dict[tuple[int, int], dsl.Expr] = {}
    for key in sec:
        if key in _KNOWN_KEYS:
            continue
        parts = key.split("_")
        if len(parts) != 3 or parts[0] != "g":
            raise ConfigError(f"unknown key {key!r} in [manifold]")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad metric component key {key!r}") from None
        if not (1 <= i <= j <= dim):
            raise ConfigError(
                f"metric key {key!r} out of range (upper triangle, 1..{dim})"
            )
        try:
            entries[(i, j)] = dsl.parse(sec[key], dim)
        except dsl.ParseError as err:
            raise ConfigError(f"in {key}: {err}") from None

    lower = _parse_bounds(sec.get("lower"), dim, -np.inf)
    upper = _parse_bounds(sec.get("upper"), dim, np.inf)
    domain = ChartDomain(lower, upper)

    connection = _DslConnection(dim, entries)
    return ManifoldModel(
        name=name,
        dim=dim,
        signature=signature,
        domain=domain,
        metric=connection.metric,
        christoffel=connection.christoffel,
        christoffel_deriv=connection.christoffel_deriv,
        metadata={"source": "config"},
    )


class _DslConnection:
    """Metric and Levi-Civita connection of DSL metric components.

    Every component, and each of its first and second partial derivatives that
    is not identically zero, is differentiated symbolically and compiled once,
    here; evaluation runs only the compiled closures.  Coordinates are 0-based.
    """

    def __init__(self, dim: int, entries: dict[tuple[int, int], dsl.Expr]):
        self.dim = dim
        self.g = []      # (i, j, f): g_ij
        self.dg = []     # (l, i, j, f): d_l g_ij
        self.ddg = []    # (m, l, i, j, f), m <= l: d_m d_l g_ij
        for (i, j), expr in entries.items():
            self.g.append((i - 1, j - 1, dsl.compile_expr(expr)))
            for l in range(dim):
                d = dsl.derive(expr, l + 1)
                if d == dsl.Num(0.0):
                    continue
                self.dg.append((l, i - 1, j - 1, dsl.compile_expr(d)))
                for m in range(l + 1):
                    dd = dsl.derive(d, m + 1)
                    if dd != dsl.Num(0.0):
                        self.ddg.append((m, l, i - 1, j - 1, dsl.compile_expr(dd)))

    def _metric(self, xs: list) -> np.ndarray:
        g = np.zeros((self.dim, self.dim))
        for i, j, f in self.g:
            g[i, j] = g[j, i] = f(xs)
        return g

    def _metric_deriv(self, xs: list) -> np.ndarray:
        n = self.dim
        dg = np.zeros((n, n, n))
        for l, i, j, f in self.dg:
            dg[l, i, j] = dg[l, j, i] = f(xs)
        return dg

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self._metric(np.asarray(x, dtype=float).tolist())

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        xs = np.asarray(x, dtype=float).tolist()
        return christoffel_from_metric(x, self._metric(xs), self._metric_deriv(xs))

    def christoffel_deriv(self, x: np.ndarray) -> np.ndarray:
        xs = np.asarray(x, dtype=float).tolist()
        n = self.dim
        ddg = np.zeros((n, n, n, n))
        for m, l, i, j, f in self.ddg:
            ddg[m, l, i, j] = ddg[m, l, j, i] = ddg[l, m, i, j] = ddg[l, m, j, i] = f(xs)
        return christoffel_deriv_from_metric(
            x, self._metric(xs), self._metric_deriv(xs), ddg)


def load_model_config(path: str) -> ManifoldModel:
    with io.open(path, "r", encoding="utf-8") as fh:
        return model_from_config_text(fh.read())
