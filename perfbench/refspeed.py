"""Machine-speed gauge: a fixed reference kernel timed between timed calls.

The benchmark's host is a shared virtual machine whose speed changes by
up to 2x (see README, "Bounds and noise").  It flips between a fast and
a slow state, which holds for seconds at a time, and the share of slow
time differs from run to run, so statistics of wall times inside one run
cannot remove it.  The gauge times a fixed kernel, which uses nothing of
``waveobs``, before the first timed section and after every one.  Each
section's wall time is rescaled by ``NOMINAL_S / mean(kernel reading
before, kernel reading after)``: it reads in seconds on a machine that
runs the kernel in ``NOMINAL_S``.  The run reports medians of these.

On recorded runs this cut the widest spread between runs from 0.17 to
0.11, against rescaling a run's mean time by its mean kernel reading:
the readings next to a call see the state the call ran in, while a
run-wide mean depends on how its few readings fall on the two states.

The kernel mixes the work the workloads do: a DOP853 solve of a fixed
oscillator through scipy (Python stepping with small arrays, as in the
quasimode solves), many numpy operations on small arrays (a leapfrog
step at a few hundred nodes) and a few on a large one (the wave grids
of the trapping family).  A plain Python loop tracked the slow phases
less well: in them the workloads slowed 1.6-1.75x, the loop 1.5x.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp

# Kernel time on the host the benchmark was written on (2-vCPU Intel
# Xeon VM), a typical reading.  A fixed constant: it sets the unit of
# the rescaled times and is never re-measured.
NOMINAL_S = 0.100

_SMALL = np.linspace(0.0, 1.0, 257)
_LARGE = np.linspace(0.0, 1.0, 1 << 15)


def _oscillator(_t, y):
    return np.array([y[1], -400.0 * y[0]])


def kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel (~0.1 s)."""
    start = time.perf_counter()
    solve_ivp(_oscillator, (0.0, 4.5), [1.0, 0.0], method="DOP853",
              rtol=1e-12, atol=1e-12, max_step=0.01)
    a = _SMALL.copy()
    for _ in range(3000):
        a = np.sin(a) * 0.5 + a[::-1] * 0.25
    b = _LARGE.copy()
    for _ in range(45):
        b = np.sin(b) * 0.5 + b[::-1] * 0.25
    return time.perf_counter() - start


class SpeedGauge:
    """Kernel readings at the boundaries of the timed sections."""

    def __init__(self):
        self.readings = [kernel_seconds()]

    def factor(self) -> float:
        """Read the kernel again; the rescale factor for the section that
        ended since the previous reading."""
        self.readings.append(kernel_seconds())
        return NOMINAL_S / (0.5 * (self.readings[-2] + self.readings[-1]))
