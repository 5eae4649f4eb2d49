"""Machine-speed calibration for end-to-end timings on a shared host.

On a small shared VM the same code runs up to ~1.8x slower in some spells
(lasting from a tenth of a second to a few seconds) than in others.
``calibrate()`` times a fixed mix of small numpy calls and interpreted Python
that runs no tailfence code, so its time follows only the machine's speed.
The benchmark times it around every timing it reports and scales that timing
by ``CAL_REF_S / calibration``: end-to-end times read as seconds at a fixed
machine speed.

The calibration always runs in one process, whatever the code under test
does. A pass that keeps several processes busy therefore still shows what
their contention for the cores costs, and the scale means the same for every
version of the program.
"""

from __future__ import annotations

import time

import numpy as np

# About the time calibrate() takes on a quiet 2-core x86-64 VM.
CAL_REF_S = 0.02

_INPUT = np.random.default_rng(0).random(100)


def calibrate() -> float:
    """Seconds for a fixed mix of small numpy calls and interpreted Python."""
    t0 = time.perf_counter()
    for _ in range(1500):
        s = float(np.mean(np.log(np.sort(_INPUT) + 1.0)))
        z = 0.0
        for v in range(20):
            z += v * s
    return time.perf_counter() - t0


def scales(cal: list[float]) -> list[float]:
    """Scale factor for each of the len(cal) - 1 timings taken between calibrations.

    Timing i ran between cal[i] and cal[i + 1] and is scaled by their mean.
    The host's slow spells come and go within a second, so only the
    calibrations next to a timing tell how fast the machine was during it.
    """
    return [2.0 * CAL_REF_S / (cal[i] + cal[i + 1]) for i in range(len(cal) - 1)]

