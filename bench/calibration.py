"""Machine-speed samples taken inside a worker while it runs the workload.

The benchmark's machines share cores with other work.  Their speed drifts by
20-40% over seconds to minutes, and process CPU time drifts with wall time,
so the slowdown is in execution, not in waiting.  Repetitions inside one run
cannot average that drift away, so the benchmark measures it: while a worker
runs the recipe, a ``SIGALRM`` timer interrupts it every ``INTERVAL_S`` and
times each fixed task of ``TASKS`` once, about 5 ms each (``Sampler``).
``bench/run.py`` divides each step's wall time by the median duration of one
task over the run and multiplies by that task's reference duration,
``REFERENCE_S``; the sampler's own time is taken out of every step before
that.

The task that tracks a step best is the one whose work resembles it.  In
blocks of 30 s on a 2-core Intel Xeon virtual machine, a batched 3x3
``eigh`` task cut the quartile spread of SPD ``log_and_dist`` timings from
0.25 to 0.06, and a gather/cross/arctan2/``bincount``/Python-loop task cut
that of a sphere2 solve from 0.21 to 0.07 and of a kNN-patch build from 0.14
to 0.03; each task tracked the other work worse.  So every workload names the steps that the
``lapack`` task calibrates; the ``vector`` task calibrates the rest.  The
tasks never call mvgraph, so a change to the program cannot move them.  Do
not change them: calibrated times of different task versions are not
comparable.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.3

# About the median duration of each task on a 2-core Intel Xeon virtual
# machine (Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31); the unit of
# calibrated time.
REFERENCE_S = {"lapack": 0.005, "vector": 0.005}


class _Inputs:
    """The tasks' fixed, seeded inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2000, 3, 3))
        self.spd = a @ a.transpose(0, 2, 1) + np.eye(3)
        self.pts = rng.standard_normal((20000, 3))
        self.idx = rng.integers(0, 20000, 20000)


def _lapack(inp):
    np.linalg.eigh(inp.spd)


def _vector(inp):
    np.linalg.eigh(inp.spd[:330])
    y = inp.pts[inp.idx]
    z = inp.pts[inp.idx[::-1]]
    d = np.arctan2(np.linalg.norm(np.cross(y, z), axis=1),
                   np.sum(y * z, axis=1))
    np.bincount(inp.idx, weights=d, minlength=20000)
    s = 0
    for i in range(1700):
        s += i * i


TASKS = {"lapack": _lapack, "vector": _vector}


class Sampler:
    """Times every calibration task every ``INTERVAL_S`` of wall time.

    ``samples`` maps each task to its durations, ``busy_s`` is the total time
    the sampler took away from the code it interrupted, its set-up included.
    """

    def __init__(self):
        t0 = perf_counter()
        self._inputs = _Inputs()
        for task in TASKS.values():
            task(self._inputs)          # the first run pays for page faults
        self.samples = {name: [] for name in TASKS}
        self.busy_s = perf_counter() - t0

    def _handler(self, signum, frame):
        t0 = perf_counter()
        for name, task in TASKS.items():
            t = perf_counter()
            task(self._inputs)
            self.samples[name].append(perf_counter() - t)
        self.busy_s += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
