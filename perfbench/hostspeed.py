"""Host-speed probe: scales measured times to a reference host speed.

On a shared 2-vCPU Intel Xeon host the CPU speed switched between two levels
about 1.8 times apart, every few seconds to minutes, and raw batch times of
one workload spread by a third between runs. A short probe, two fixed numpy
kernels that share no code with the program, runs at the start and end of
every timed interval, and the interval is scaled by the probe's speed
relative to ``REFERENCE_MS``. The probe costs about 4 ms and is excluded from
every timing.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Best-of-two probe times (ms) at the faster speed of that host (numpy 2.4,
# OpenBLAS 0.3.31); scaled times there read close to unscaled fast-speed ones.
REFERENCE_MS = (0.83, 1.17)

_RNG = np.random.default_rng(0)
_B = _RNG.random((24, 8))
_W0 = _RNG.random(24)
_V0 = _RNG.random(8)
_IDX = _RNG.integers(10, size=10_000)
_M = _RNG.random((31, 10))
_N = _RNG.random((31, 10_000))


def _small_steps():
    """Interpreter-bound: many numpy calls on tiny arrays, like the solvers."""
    w, v = _W0, _V0
    for _ in range(100):
        e = 0.5 - _B @ v
        w = np.clip(w + 0.01 * e, 0.0, 3.0)
        v = v - 0.01 * (_B.T @ w)
    return v


def _gather_product():
    """Memory-bound: a gather and a product over long rows, like the payoff matrix."""
    return _N @ _M[:, _IDX].T


def _best_ms(fn, repeats: int = 2) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def probe_ms() -> tuple:
    return _best_ms(_small_steps), _best_ms(_gather_product)


def speed_factors() -> dict:
    """Reference time over current time, per kind of work.

    1.0 at the reference speed, less when slower. "solver" intervals (oracle
    solves: many numpy calls on tiny arrays) slow down like the first kernel;
    "mixed" intervals use the geometric mean of both kernels.
    """
    small, big = probe_ms()
    solver = REFERENCE_MS[0] / small
    return {"solver": solver, "mixed": math.sqrt(solver * REFERENCE_MS[1] / big)}
