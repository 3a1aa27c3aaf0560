"""A fixed piece of work that calls no substrqa code, timed to tell how
fast the host runs at the moment.

On the 2-core VM this benchmark was sized on, the same code ran up to 2x
slower for seconds to minutes at a time as the rest of the host's load
came and went, and a run's median op time moved by as much as 30% over ten
minutes.  Each process runs the probe before each op (five times after
set-up in a set-up-only process), and run.py multiplies its timings by
REFERENCE_S / (the median probe time in that process).  A change to the
program moves the op times and not the probe.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on that VM when it ran fastest.
REFERENCE_S = 0.0075

_BITS = np.random.default_rng(0).integers(0, 2, size=600).astype(np.int8)


def probe() -> float:
    """Seconds taken by a loop of small numpy calls and Python arithmetic,
    the mix substrqa's own ops are made of."""
    t0 = time.perf_counter()
    for d in range(1, 300):
        eq = (_BITS[:300] == _BITS[d : d + 300]).astype(np.int8)
        delta = np.diff(eq, prepend=np.int8(0), append=np.int8(0))
        np.bincount(np.flatnonzero(delta == 1))
    sum(i * i for i in range(20000))
    return time.perf_counter() - t0
