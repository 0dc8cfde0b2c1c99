"""Host-speed calibration: a fixed kernel timed at every step boundary.

This shared 2-vCPU host runs everything 1.3-2.3x slower for seconds to
minutes at a time (no steal time shows; CPU time inflates with the wall),
so a raw timing says more about the host than about the program.  The
kernel below does a fixed amount of work in the workloads' instruction
mix.  Timed between every two steps of every repetition, it samples the
host's speed over exactly the interval the steps ran in, so

    host factor = mean kernel time in this run / NOMINAL_S

and a measured time divided by the host factor is the time the work would
have taken with the host at its nominal speed.  Measured here (README.md):
single repetition walls spread 17-31 % between their quartiles, the same
walls over the repetition's host factor 3.3-7.3 %, six repetitions
together 1.6-4.3 %.  The *mean* matters: the slowdown comes in bursts
shorter than a repetition, and the median of the kernel times misses the
share of time spent in them (8.6-13 %).  It corrects a slow host, not
other busy processes in this VM: a preempted kernel waits a whole time
slice and over-corrects.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

#: What one kernel takes with the host at its calmest (fastest 1 % of 5,000
#: calls back to back, six times over: 0.495-0.507 ms).  A constant, so
#: that two runs — or two commits — are normalised to the same speed
#: whatever the host did.
NOMINAL_S = 0.0005

_X = np.linspace(0.0, 1.0, 48 * 6).reshape(48, 6)
_W1, _W2 = np.full((6, 14), 0.1), np.full((14, 4), 0.1)
_PAYLOAD = [list(range(50)) for _ in range(10)]


def kernel() -> None:
    """~0.5 ms of small-array numpy, interpreter dict/float work and a
    pickle round trip: what the search stack, the sessions and engine,
    and the event/digest paths are made of.  Of the three parts alone and
    in pairs, the sum tracked all three workloads best."""
    table = {}
    for i in range(60):
        h = np.tanh(np.tanh(_X @ _W1) @ _W2)
        table[i % 8] = float(h.sum()) + i
    for i in range(600):
        table[i % 8] = table.get(i % 5, 0.0) + i * 0.5
    for _ in range(4):
        pickle.loads(pickle.dumps(_PAYLOAD))


def burst(n: int = 40) -> np.ndarray:
    """``n`` kernel calls back to back; ``[wall_s, cpu_s]`` per call."""
    out = np.empty((n, 2))
    for i in range(n):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        out[i] = time.perf_counter() - w0, time.process_time() - c0
    return out


class StepClock:
    """Marks step boundaries and runs the kernel at each one.

    A step is what happens between the end of one mark and the start of
    the next, so the kernel's own time is in no step.  In the traced
    repetition (``rec`` given) each kernel call is a ``bench.calibrate``
    span, so the layer table still sums to the wall clock.
    """

    def __init__(self, rec=None):
        self.rec = rec
        #: ``(wall, cpu)`` on entry and again on exit of every mark.
        self._marks = []

    def mark(self, *_event) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        if self.rec is None:
            kernel()
        else:
            with self.rec.span("bench.calibrate"):
                kernel()
        self._marks.append((w0, c0, time.perf_counter(), time.process_time()))

    @property
    def steps(self) -> np.ndarray:
        """``[wall_s, cpu_s]`` per step."""
        marks = np.asarray(self._marks)
        return marks[1:, :2] - marks[:-1, 2:]

    @property
    def kernels(self) -> np.ndarray:
        """``[wall_s, cpu_s]`` per mark."""
        marks = np.asarray(self._marks)
        return marks[:, 2:] - marks[:, :2]
