"""Machine-speed probe interleaved with the benchmark's operations.

The benchmark shares its machine with other tenants, and the speed of the
same code drifts by a factor of up to two over seconds to minutes, in CPU time
as well as in wall time.  The drift is common to all interpreter-bound code: a
fixed reference kernel run between operations tracks it (a correlation of
about 0.93 with geoconnect operations over 0.7 s windows).  Each operation's
latency is therefore reported scaled to the speed at which the kernel takes
``KERNEL_REF_S``:

    scaled latency = measured latency * KERNEL_REF_S / kernel time nearby

The kernel is the benchmark's own code and never calls geoconnect, so a
change to the program moves the scaled numbers as it moves the measured ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on an Intel Xeon (2 vCPUs) in its faster state.  It defines the
# reference speed; its value only sets the scale of the reported numbers.
KERNEL_REF_S = 1.25e-3
PROBE_EVERY_S = 0.25   # operation time between probes
PROBE_REPEATS = 3      # kernel runs per probe; the median is kept


def kernel() -> np.ndarray:
    """RK4 on an upper half-plane geodesic with tiny numpy arrays.

    The same mix of interpreter work and small-array numpy calls as the
    library's integrators, written without geoconnect.
    """
    y = np.array([0.3, 1.2, 0.5, 0.4])
    h = 0.01

    def rhs(y):
        v = y[2:]
        g = np.zeros((2, 2, 2))
        g[0, 0, 1] = g[0, 1, 0] = g[1, 1, 1] = -1.0 / y[1]
        g[1, 0, 0] = 1.0 / y[1]
        return np.concatenate([v, -(g @ v) @ v])

    for _ in range(50):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def probe(repeats: int = PROBE_REPEATS) -> float:
    """Median kernel time over ``repeats`` runs, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedTrack:
    """Probes taken between operations; scales each latency by its neighbours."""

    def __init__(self):
        self.probes = [probe()]
        self._owner = []          # index of the probe taken before each operation
        self._since = 0.0

    def after_op(self, latency: float) -> None:
        self._owner.append(len(self.probes) - 1)
        self._since += latency
        if self._since >= PROBE_EVERY_S:
            self.probes.append(probe())
            self._since = 0.0

    def finish(self) -> None:
        if self._since > 0.0:
            self.probes.append(probe())
            self._since = 0.0

    def scale(self, latencies: list[float]) -> list[float]:
        """Latencies at the reference speed; call ``finish`` first."""
        out = []
        for lat, k in zip(latencies, self._owner):
            local = 0.5 * (self.probes[k] + self.probes[min(k + 1, len(self.probes) - 1)])
            out.append(lat * KERNEL_REF_S / local)
        return out
