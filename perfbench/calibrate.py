"""Machine-speed calibration for the timed loop.

A shared host changes speed by 20-60 % within seconds to minutes (CPU time
tracks wall time, so it is the core getting slower, not the scheduler), and
that drift is larger than any bound a benchmark could hold on raw times.
The timed loop therefore runs a fixed reference loop between every two ops
and reports each op's latency scaled to a reference speed:

    latency * REFERENCE_S / (median reference-loop time around that op)

A change to iterfield moves the op time and not the reference loop, so it
shows in full; a change of machine speed moves both and cancels.  The raw
latencies are printed alongside.  The loop mixes what iterfield's hot paths
do: Fraction arithmetic, small numpy matrix products and ufuncs, and plain
interpreted float loops.  It never calls iterfield.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Nominal reference-loop time: a scaled latency is the latency on a machine
# where one reference loop takes this long.
REFERENCE_S = 0.002
# Reference loops on each side of an op that set its local speed.
WINDOW = 4

_A = np.array([[0.9, 0.1, 0.0], [0.2, 0.7, 0.1], [0.0, 0.3, 0.6]])


def reference_loop():
    """Run the fixed reference loop once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s, x, y = Fraction(0), np.ones(3), 0.0
    for i in range(1, 200):
        s += Fraction(i, 7) / (i + 1)
        x = _A @ x + np.tanh(x)
        for j in range(20):
            y += (i * j) % 7 * 0.5
    return time.perf_counter() - t0


def scale(seconds, loops):
    """seconds scaled to the reference speed by the median of loops."""
    return seconds * REFERENCE_S / statistics.median(loops)


def scaled(latencies, loops):
    """Latencies scaled to the reference speed.  loops holds one reference
    loop time just before each op and one after the last, so op i ran
    between loops[i] and loops[i + 1]; its local speed is the median of the
    WINDOW loops on either side of it."""
    if len(loops) != len(latencies) + 1:
        raise ValueError(f"{len(loops)} reference loops for {len(latencies)} ops")
    return [scale(latency, loops[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i, latency in enumerate(latencies)]
