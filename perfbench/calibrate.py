"""Machine-speed sampler of the benchmark.

The benchmark runs on shared hosts whose speed changes by up to 2x, in
steps that last from a second to minutes, as other tenants load the same
cores.  Plain wall times of the same code then spread more between runs
than any change worth measuring.  While a workload runs, a timer signal
every ``INTERVAL_S`` runs ``probe()`` in the main thread: a fixed piece of
work that does not touch the package (a small generalized eigenproblem, an
LU factor, a pure-Python loop and a loop of small numpy operations, the
kinds of work the workloads spend their time in).  A task call's speed
factor is the mean probe time over the call, and the nearest probe on
either side, divided by ``REF_S``; its time in reference seconds is its
wall time, less the probes that ran inside it, divided by that factor.
The package's own speed shows in full, since the probe never calls it;
the host's drift cancels.

Python runs a signal handler between bytecodes, so inside one long library
call (a large QZ) the next probe waits until the call returns.

A CLI call is a fresh child process, mostly start-up and imports, whose
speed the in-process probe does not follow: a probe while the child runs
shares the CPU with it, and probes right before and after it made the CLI
times spread more than plain wall time did.  For those,
``ProcessSampler`` times a reference child process (``refproc.py``) after
every call instead.

The kernels are bound here, before the tracer patches their modules, so
that a traced run never records a probe.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
from scipy.linalg import eigvals as _eigvals
from scipy.linalg import lu_factor as _lu_factor

import refproc

INTERVAL_S = 0.05
REF_S = 0.0012    # one probe on an unloaded 2-vCPU Xeon VM, OpenBLAS pinned to one thread

_rng = np.random.default_rng(20080887)
_A = _rng.standard_normal((20, 20)) + 1j * _rng.standard_normal((20, 20))
_B = _rng.standard_normal((20, 20))
_M = _rng.standard_normal((48, 48))
_V = _rng.standard_normal(8)


def probe() -> None:
    """The fixed calibration work."""
    _eigvals(_A, _B)
    _lu_factor(_M)
    acc, table = 0.0, {}
    for i in range(1_500):
        acc += (i % 7) * 0.5
        table[i & 63] = acc
    v = _V.copy()
    for _ in range(100):
        v = v * 0.999 + np.sin(v) * 1e-3


class Sampler:
    """Runs ``probe()`` from a timer signal and keeps when it ran and how long it took."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._previous = None
        self._probing = False

    def _on_alarm(self, signum, frame):
        if self._probing:  # a signal that arrived during a probe
            return
        self._probing = True
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.costs.append(time.perf_counter() - start)
        self._probing = False

    def start(self):
        self._on_alarm(None, None)   # so that every window has a probe
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def after_call(self):
        pass

    def window(self, start: float, end: float) -> tuple[float, float]:
        """Speed factor over ``[start, end]`` and the seconds spent probing inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        around = self.costs[max(lo - 1, 0):hi + 1]
        return sum(around) / len(around) / REF_S, sum(self.costs[lo:hi])


class ProcessSampler:
    """Times a reference child process after every call; the same interface as ``Sampler``."""

    def __init__(self, env):
        self.env = env
        self.starts: list[float] = []
        self.costs: list[float] = []

    def _sample(self):
        self.starts.append(time.perf_counter())
        self.costs.append(refproc.time_reference(self.env))

    def start(self):
        self._sample()

    def stop(self):
        pass

    def after_call(self):
        self._sample()

    def window(self, start: float, end: float) -> tuple[float, float]:
        """Speed factor over ``[start, end]``; no reference run falls inside a call."""
        i = bisect.bisect_left(self.starts, start)
        around = self.costs[max(i - 1, 0):i + 1]
        return sum(around) / len(around) / refproc.REF_S, 0.0
