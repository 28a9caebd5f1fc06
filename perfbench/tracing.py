"""Span recording around calls into geoconnect, from outside the package.

A traced run patches public functions (and the few private routines named in
PATCHES) in every ``geoconnect`` module namespace that holds them, and wraps
the callbacks of the models the benchmark builds.  Each wrapped call records
one span: name, start, end, parent span and operation id.  Spans live in flat
arrays in memory and are written out once the run ends.

The benchmark is single-threaded, so the children of a span never overlap
each other and lie inside it; the time they cover is the sum of their
durations.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  ``geodesic.integrate`` is the public RK45
# integrator; ``jacobi`` runs RK45 through the private ``_integrate``, so its
# cost lands under ``jacobi.variational``.  ``jacobi._first_conjugate_scan`` is
# the per-ray scan shared by ``first_conjugate_time`` and the locus sampler.
PATCHES = [
    ("geoconnect.geodesic", "integrate_geodesic", "geodesic.integrate"),
    ("geoconnect.manifold", "fd_christoffel", "manifold.fd_christoffel"),
    ("geoconnect.jacobi", "integrate_variational", "jacobi.variational"),
    ("geoconnect.jacobi", "dexp_matrix", "jacobi.dexp"),
    ("geoconnect.jacobi", "_first_conjugate_scan", "jacobi.scan"),
    ("geoconnect.jacobi", "conjugate_locus_sample", "jacobi.locus"),
    ("geoconnect.connect", "connect", "connect"),
    ("geoconnect.connect", "_lift", "connect.lift"),
    ("geoconnect.probes", "weak_properness_probe", "probes"),
    ("geoconnect.probes", "disprisonment_probe", "probes"),
    ("geoconnect.probes", "pseudoconvexity_probe", "probes"),
    ("geoconnect.probes", "gauss_lemma_check", "probes"),
]

ROOT = "op"  # the benchmark's own span around one operation


class Recorder:
    """In-memory span store; recording is on only while an operation runs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self.op_id = -1
        self.enabled = False

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int, op: int = -1) -> int:
        """Append a finished span (used by tests to build synthetic trees)."""
        self.name.append(self._intern(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(rec, result)`` counts."""
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    @contextmanager
    def operation(self, op_id: int):
        """Record one benchmark operation as a root span."""
        self.op_id = op_id
        self.enabled = True
        i = self.add(ROOT, time.perf_counter(), 0.0, -1, op_id)
        self._stack.append(i)
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
            self.enabled = False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the time covered by its direct children."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarize(rec: Recorder) -> dict[str, dict[str, float]]:
    """Span count and total self seconds per span name."""
    a = rec.arrays()
    selfs = self_times(a["parent"], a["start"], a["end"])
    calls = np.bincount(a["name"], minlength=len(rec.names))
    total = np.bincount(a["name"], weights=selfs, minlength=len(rec.names))
    return {n: {"calls": int(calls[i]), "self_s": float(total[i])}
            for i, n in enumerate(rec.names)}


def child_counts(rec: Recorder, child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    if child not in rec._ids or parent not in rec._ids:
        return 0
    a = rec.arrays()
    mask = a["name"] == rec._ids[child]
    par = a["parent"][mask]
    par = par[par >= 0]
    return int(np.count_nonzero(a["name"][par] == rec._ids[parent]))


def descendant_counts(rec: Recorder, child: str, ancestor: str) -> int:
    """Number of ``child`` spans with a ``ancestor`` span above them."""
    if child not in rec._ids or ancestor not in rec._ids:
        return 0
    a = rec.arrays()
    names, parents = a["name"], a["parent"]
    want = rec._ids[ancestor]
    count = 0
    for i in np.flatnonzero(names == rec._ids[child]):
        j = parents[i]
        while j >= 0:
            if names[j] == want:
                count += 1
                break
            j = parents[j]
    return count


def detour_retries(rec: Recorder) -> int:
    """Lift attempts beyond the first, summed over connect calls."""
    if "connect.lift" not in rec._ids:
        return 0
    a = rec.arrays()
    par = a["parent"][a["name"] == rec._ids["connect.lift"]]
    per_call = np.bincount(par[par >= 0])
    return int(np.maximum(per_call - 1, 0).sum())


# -- counters attached to wrapped calls ------------------------------------

_TERM_KEYS = {
    "ReachedTmax": "geodesic.term.reached_tmax",
    "ChartExit": "geodesic.term.chart_exit",
    "BlowUp": "geodesic.term.blow_up",
}


def _on_geodesic(rec: Recorder, path) -> None:
    rec.counters["geodesic.steps"] += max(len(path.ts) - 1, 0)
    key = _TERM_KEYS.get(path.termination.value)
    if key:
        rec.counters[key] += 1


def _on_variational(rec: Recorder, var) -> None:
    rec.counters["jacobi.variational.steps"] += max(len(var.ts) - 1, 0)


def _on_connect(rec: Recorder, outcome) -> None:
    if outcome.connected:
        rec.counters["connect.status.connected"] += 1
    else:
        rec.counters["connect.status.refused"] += 1
    if outcome.witness.get("method") == "local_log":
        rec.counters["connect.fast_path"] += 1


def _on_lift(rec: Recorder, outcome) -> None:
    rec.counters["connect.lift_steps"] += len(outcome.lift_trace)


HOOKS = {
    "geodesic.integrate": _on_geodesic,
    "jacobi.variational": _on_variational,
    "connect": _on_connect,
    "connect.lift": _on_lift,
}


def _geoconnect_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "geoconnect" or name.startswith("geoconnect."))]


@contextmanager
def patched(rec: Recorder):
    """Patch every PATCHES target in each geoconnect namespace that holds it.

    Every replaced attribute is restored on exit, so untraced runs in the
    same process call the original functions.
    """
    modules = _geoconnect_modules()
    saved = []
    try:
        for mod_name, attr, span in PATCHES:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = rec.wrap(span, original, HOOKS.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, original in reversed(saved):
            setattr(mod, key, original)


class _OracleProxy:
    def __init__(self, rec: Recorder, oracle):
        self.point = rec.wrap("models.oracle", oracle.point)
        self.point_embedding = rec.wrap("models.oracle", oracle.point_embedding)


def traced_model(rec: Recorder, model, metric_span: str = "models.metric"):
    """Copy of ``model`` whose metric, Christoffel and oracle callbacks record spans."""
    changes = {"metric": rec.wrap(metric_span, model.metric)}
    if model.christoffel is not None:
        changes["christoffel"] = rec.wrap("models.christoffel", model.christoffel)
    if model.christoffel_deriv is not None:
        changes["christoffel_deriv"] = rec.wrap(
            "models.christoffel_deriv", model.christoffel_deriv)
    if model.oracle is not None:
        changes["oracle"] = _OracleProxy(rec, model.oracle)
    return dataclasses.replace(model, **changes)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json (all but trace.overhead_ratio)."""
    s = summarize(rec)

    def calls(name):
        return s.get(name, {"calls": 0})["calls"]

    def self_s(name):
        return s.get(name, {"self_s": 0.0})["self_s"]

    c = rec.counters
    out: dict[str, float] = {}
    for name in ("models.christoffel", "models.christoffel_deriv", "models.metric",
                 "models.oracle", "dsl.metric", "manifold.fd_christoffel",
                 "geodesic.integrate", "jacobi.variational", "jacobi.dexp",
                 "jacobi.scan", "connect", "probes"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["manifold.fd_metric_calls"] = (
        child_counts(rec, "models.metric", "manifold.fd_christoffel")
        + child_counts(rec, "dsl.metric", "manifold.fd_christoffel"))
    steps = c["geodesic.steps"]
    rhs = (child_counts(rec, "models.christoffel", "geodesic.integrate")
           + child_counts(rec, "manifold.fd_christoffel", "geodesic.integrate"))
    out["geodesic.steps"] = steps
    out["geodesic.rhs_per_step"] = rhs / steps if steps else 0.0
    for key in _TERM_KEYS.values():
        out[key] = c[key]
    out["jacobi.variational.steps"] = c["jacobi.variational.steps"]
    out["jacobi.locus.rays"] = descendant_counts(rec, "jacobi.scan", "jacobi.locus")
    n_connect = calls("connect")
    out["connect.self_s"] += self_s("connect.lift")
    out["connect.fast_path_share"] = c["connect.fast_path"] / n_connect if n_connect else 0.0
    out["connect.dexp_per_call"] = (
        descendant_counts(rec, "jacobi.dexp", "connect") / n_connect if n_connect else 0.0)
    out["connect.lift_steps"] = c["connect.lift_steps"]
    out["connect.detour_retries"] = detour_retries(rec)
    out["connect.status.connected"] = c["connect.status.connected"]
    out["connect.status.refused"] = c["connect.status.refused"]
    return out
