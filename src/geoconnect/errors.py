"""Exception types shared across the package."""
from __future__ import annotations


class GeoError(Exception):
    """Base class for all geoconnect errors."""


class OutOfChart(GeoError):
    def __init__(self, x, message: str = "point outside chart domain"):
        super().__init__(f"{message}: {x}")
        self.x = x


class DegenerateMetric(GeoError):
    def __init__(self, x, eigenvalue: float):
        super().__init__(f"metric degenerate at {x}: eigenvalue {eigenvalue:.3e}")
        self.x = x
        self.eigenvalue = eigenvalue


class UnknownModel(GeoError):
    def __init__(self, name: str):
        super().__init__(f"unknown model '{name}'")
        self.name = name


class NotTimelike(GeoError):
    def __init__(self, x, value: float):
        super().__init__(f"field not timelike at {x}: g(V,V) = {value:.6g} >= 0")
        self.x = x
        self.value = value


class NoOracle(GeoError):
    def __init__(self, name: str):
        super().__init__(f"model '{name}' has no closed-form geodesic oracle")
        self.name = name


class StepSizeUnderflow(GeoError):
    def __init__(self, t: float, message: str = "integrator step size underflow"):
        super().__init__(f"{message} at t = {t:.6g}")
        self.t = t


class DomainEscape(GeoError):
    """Geodesic left the maximal domain before the requested parameter.

    ``witness`` holds the growth records of a blow-up read off its growth
    law, None otherwise."""

    def __init__(self, termination, t: float, witness: dict | None = None):
        super().__init__(f"geodesic escaped domain ({termination}) at t = {t:.6g}")
        self.termination = termination
        self.t = t
        self.witness = witness


class LinearizationFailure(GeoError):
    """The closed-form geodesic map gave a differential of exp_p, or an
    endpoint, that is not finite."""

    def __init__(self, t: float, norm: float):
        super().__init__(
            f"closed-form differential of exp not finite at t = {t:.6g} (norm {norm:.3e})"
        )
        self.t = t
        self.norm = norm


class NoConvergence(GeoError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class ConfigError(GeoError):
    """Malformed model configuration file."""
