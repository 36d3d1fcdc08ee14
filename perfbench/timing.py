"""Cell timing, normalised by a calibration kernel run next to every cell.

The benchmark's machine is a shared 2-vCPU VM whose speed swings by up
to 2x over seconds as other tenants come and go; the same kkkp pass took
0.6 s and 1.1 s a minute apart.  A fixed calibration kernel with ppsim's
instruction mix (2-element complex numpy arrays, Philox draws, Python
arithmetic) is timed right before and right after each timed cell.  A
cell's normalised time is its raw time scaled by
``CALIBRATION_REFERENCE_S / mean(kernel time before, kernel time after)``:
the time the cell would take at the machine's reference speed.  The
kernel does not call ppsim, so a change to ppsim moves the cell time and
not the kernel time.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Callable

import numpy as np

CALIBRATION_ITERATIONS = 3_000
# Median kernel time on the reference machine (2 vCPU, Python 3.11, numpy 2.4).
CALIBRATION_REFERENCE_S = 0.023


def calibration_kernel(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Run the fixed kernel once; return its wall seconds."""
    rng = np.random.Generator(np.random.Philox(key=7))
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    acc = 0.0
    start = perf_counter()
    for i in range(iterations):
        v = u @ np.array([math.cos(i), math.sin(i)], dtype=complex)
        c = complex(v[1])
        acc += c.real * c.real + rng.random() + int(rng.integers(0, 2))
    return perf_counter() - start


class Timer:
    """Times named cells; each cell is bracketed by calibration runs.

    ``seconds[name]`` is a cell's raw time and ``speed[name]`` the mean
    kernel time around it.  One calibration run serves as the "after" of
    one cell and the "before" of the next.  ``calibration_s`` is the time
    spent calibrating, which callers subtract from their wall time.
    """

    def __init__(self, calibrate: Callable[[], float] = calibration_kernel):
        self._calibrate = calibrate
        self._last: float | None = None
        self.seconds: dict[str, float] = {}
        self.speed: dict[str, float] = {}
        self.kernel_s: list[float] = []
        self.calibration_s = 0.0

    def _run_kernel(self) -> float:
        start = perf_counter()
        self._last = self._calibrate()
        self.kernel_s.append(self._last)
        self.calibration_s += perf_counter() - start
        return self._last

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        before = self._last if self._last is not None else self._run_kernel()
        self._last = None
        start = perf_counter()
        result = fn()
        self.seconds[name] = perf_counter() - start
        self.speed[name] = (before + self._run_kernel()) / 2
        return result

    def normalised(self, name: str) -> float:
        return self.seconds[name] * CALIBRATION_REFERENCE_S / self.speed[name]
