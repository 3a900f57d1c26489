"""Machine-speed probe: fixed reference work timed while stepsum runs.

The speed of a small shared CPU box flips between fast and slow spells that
last from a tenth of a second to a minute: on a 2-core VM a fixed
pure-Python loop took 5.3-12 ms over one minute, and a fixed ``oracle`` pass
0.43-1.03 s. Raw timings of the same work then spread by up to 2x between
runs, and no run length averages the spells out.

While a run measures, an interval timer interrupts the process every
``INTERVAL_S`` and times one of three tiny fixed tasks, in turn: a
pure-Python dynamic program (the interpreter-bound shape of the oracle and
Rouge), a chain of 48x48 numpy operations (the shape of the model's forward
and backward passes) and a scattered gather from a 4 MiB array (the cache
and memory pressure of the model's tape). None touches stepsum, so no
change to stepsum moves them. A task's slowdown over a time window is its
mean duration in that window relative to ``REFERENCE_S``. Pure-Python work
(``oracle``, ``eval``) is scaled by the Python task's slowdown, mixed work
(``train``, ``decode``, set-up) by the geometric mean of all three. A
timing divided by the slowdown of its own window is the time the work would
take at the reference speed.

Over 18 repetitions of fixed docs-etc work in 100 s on a 2-core VM, the
quartile spread of raw against normalised times was 0.14 against 0.04 for
``oracle`` (Python task), 0.10 against 0.05 for ``decode`` and 0.07 against
0.04 for ``train`` (Python and numpy tasks); normalising ``oracle`` by both
left 0.06. Over 34 repetitions of a fixed tables-etc ``train``, it was 0.19
raw, 0.045 against the Python and numpy tasks and 0.036 against all three.
The probe itself costs about 2.5% of the measured time.

Spells of the other kind are steal: the host deschedules the VM's CPU
outright, for milliseconds at a time, and up to a tenth of a 30 s run. A
probe task cannot see those reliably, so the process is pinned to one CPU
and the probe reads that CPU's steal counter from ``/proc/stat`` on every
tick. A timing first loses the steal its window accrued, and a task sample
during which the counter moved is dropped.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import time

import numpy as np

INTERVAL_S = 0.01
# a task's duration at the reference speed; the constant only scales every
# normalised timing alike
REFERENCE_S = 250e-6
# a window with fewer samples of a task is widened to its nearest ones
MIN_SAMPLES = 6
# steal is counted in clock ticks and read every INTERVAL_S, so over a short
# window it is only approximate; it never takes more than this share of one
MAX_STEAL_SHARE = 0.9

_SEQ_A = list(range(24))
_SEQ_B = [(i * 7) % 24 for i in range(24)]
_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) * 0.1
_LARGE = np.random.default_rng(1).standard_normal(1 << 19)
_SCATTER = np.random.default_rng(2).permutation(1 << 19)[:12000]


def _python_task() -> int:
    prev = [0] * (len(_SEQ_B) + 1)
    for x in _SEQ_A:
        cur = [0]
        for j, y in enumerate(_SEQ_B):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def _numpy_task() -> np.ndarray:
    x = _MATRIX
    for _ in range(8):
        x = np.tanh(x @ _MATRIX)
        x = x - x.max(axis=1, keepdims=True)
    return x


def _memory_task() -> float:
    return float(_LARGE[_SCATTER].sum())


TASKS = {"python": _python_task, "numpy": _numpy_task, "memory": _memory_task}


def pin_to_one_cpu() -> int | None:
    """Pin this process to the last CPU it may use; returns it, if pinnable."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def steal_reader(cpu: int | None):
    """A function giving ``cpu``'s cumulative steal in seconds, or None
    where ``/proc/stat`` does not say."""
    if cpu is None:
        return None
    tag = f"cpu{cpu} ".encode()
    per_tick = 1.0 / os.sysconf("SC_CLK_TCK")

    def read() -> float:
        with open("/proc/stat", "rb") as fh:
            data = fh.read(16384)
        i = data.index(tag)
        return int(data[i:data.index(b"\n", i)].split()[8]) * per_tick

    try:
        read()
    except (OSError, ValueError, IndexError):
        return None
    return read


class SpeedProbe:
    """Samples the tasks in turn, and steal, on an interval timer between
    ``start`` and ``stop``."""

    def __init__(self, cpu: int | None) -> None:
        self._steal = steal_reader(cpu)
        self.steal_times: list[float] = []
        self.steal_values: list[float] = []
        self.starts: dict[str, list[float]] = {name: [] for name in TASKS}
        self.durations: dict[str, list[float]] = {name: [] for name in TASKS}
        self._order = list(TASKS)
        self._turn = 0
        self._previous = None
        self._running = False

    def _tick(self, signum, frame) -> None:
        name = self._order[self._turn]
        self._turn = (self._turn + 1) % len(self._order)
        stolen = self._steal() if self._steal else 0.0
        t0 = time.perf_counter()
        TASKS[name]()
        duration = time.perf_counter() - t0
        if self._steal:
            self.steal_times.append(t0)
            self.steal_values.append(stolen)
            if self._steal() != stolen:
                return
        self.starts[name].append(t0)
        self.durations[name].append(duration)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        """Stop sampling; stopping a stopped probe does nothing."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False

    def slowdown(self, t0: float, t1: float, tasks=tuple(TASKS)) -> float:
        """Slowdown of ``tasks`` against the reference speed over ``[t0, t1]``."""
        logs = []
        for name in tasks:
            starts, durations = self.starts[name], self.durations[name]
            if len(starts) < MIN_SAMPLES:
                raise RuntimeError("speed probe has too few samples")
            lo = bisect.bisect_left(starts, t0)
            hi = bisect.bisect_right(starts, t1)
            while hi - lo < MIN_SAMPLES:
                # widen towards the nearer neighbour, or the only one left
                before = t0 - starts[lo - 1] if lo > 0 else math.inf
                after = starts[hi] - t1 if hi < len(starts) else math.inf
                if before <= after:
                    lo -= 1
                else:
                    hi += 1
            window = durations[lo:hi]
            logs.append(math.log(sum(window) / len(window) / REFERENCE_S))
        return math.exp(sum(logs) / len(logs))

    def _steal_at(self, t: float) -> float:
        """Cumulative steal at ``t``, interpolated between readings."""
        times, values = self.steal_times, self.steal_values
        k = bisect.bisect_right(times, t)
        if k == 0:
            return values[0]
        if k == len(times):
            return values[-1]
        share = (t - times[k - 1]) / (times[k] - times[k - 1])
        return values[k - 1] + share * (values[k] - values[k - 1])

    def stolen(self, t0: float, t1: float) -> float:
        """Steal accrued over ``[t0, t1]``, capped at MAX_STEAL_SHARE of it."""
        if not self.steal_times:
            return 0.0
        return min(self._steal_at(t1) - self._steal_at(t0), MAX_STEAL_SHARE * (t1 - t0))

    def seconds(self, t0: float, t1: float, tasks=tuple(TASKS)) -> float:
        """``t1 - t0`` less its steal, at the reference speed."""
        return (t1 - t0 - self.stolen(t0, t1)) / self.slowdown(t0, t1, tasks)
