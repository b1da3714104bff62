"""Host speed, measured by a fixed piece of reference work during a run.

The benchmark runs on a shared host whose speed moves by 40% or more over
seconds and minutes as other tenants come and go, and those swings slow the
simulation and any other CPU work alike. So while a simulation runs, a
``Sampler`` interrupts it every 25 ms to time
``reference_work``, and leaves its own time out of the tick timer. The
reference work is the same on every host and every commit, and uses only
Python and numpy, never semteam. The median of its times around a tick tells
how fast the host ran there. ``scaled_s`` divides each tick's time by that
and reports the run in seconds at ``REFERENCE_NS``.

A change to semteam moves the tick times but not the reference work, so it
moves the scaled time by the same share as the raw one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Median time of one sample during a simulation on a quiet 2-vCPU x86_64
#: host (Python 3.11, numpy 2.4). Scaled times are seconds at this speed, so
#: on that host they come out close to the raw ones.
REFERENCE_NS = 860_000

#: Median time of one ``reference_work`` call in a ``burst`` right after
#: set-up, on the same host. Set-up times are scaled to seconds at this speed.
BURST_REFERENCE_NS = 660_000

#: Reference work calls in a burst.
BURST = 10

#: Wall time between two samples; sampling costs about 3% of a run.
PERIOD_S = 0.025

#: A tick's host speed is the median of the samples from this long before
#: the tick starts to this long after it ends.
HALF_WINDOW_NS = 250_000_000

_rng = np.random.default_rng(0)
_GRID = _rng.integers(0, 8, size=(512, 512), dtype=np.int8)
_NEAR = _rng.integers(0, 256, size=(512, 512), dtype=np.uint8)
_XS = _rng.random(250) * 400 + 50
_YS = _rng.random(250) * 400 + 50
_YAWS = _rng.random(250) * 2 * np.pi
_ANGLES = np.linspace(0.0, 2 * np.pi, 72, endpoint=False)
_RANGES = _rng.random(72) * 40
_DX = _RANGES * np.cos(_ANGLES)
_DY = _RANGES * np.sin(_ANGLES)
_DRAWS = _rng.random(250)


def reference_work() -> None:
    """About 0.7 ms of work shaped like a tick's: an interpreter loop, then
    a particle-by-beam projection into a grid with gathers and a resampling
    step, as localization does."""
    s = 0
    d = {}
    for i in range(1500):
        s += i * i % 7
        d[i & 63] = s
    c = np.cos(_YAWS)[:, None]
    n = np.sin(_YAWS)[:, None]
    ix = np.clip((_XS[:, None] + c * _DX - n * _DY).astype(np.int32), 0, 511)
    iy = np.clip((_YS[:, None] + n * _DX + c * _DY).astype(np.int32), 0, 511)
    match = ((_NEAR[iy, ix] & 4) != 0) | (_GRID[iy, ix] == 3)
    cost = match.sum(axis=1)
    w = np.exp(-(cost - cost.min()) / 10.0)
    w /= w.sum()
    np.searchsorted(np.cumsum(w), _DRAWS)


class Sampler:
    """Times ``reference_work`` every ``period_s`` of wall time from SIGALRM.

    Python runs the handler in the main thread between bytecodes, so a
    sample can land inside a tick. ``spent_ns`` is the samples' total time;
    a timer subtracts its growth over the interval it times.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.at_ns: list[int] = []
        self.ref_ns: list[int] = []
        self.spent_ns = 0
        self._previous = None

    def sample(self, *_args) -> None:
        start = time.perf_counter_ns()
        reference_work()
        took = time.perf_counter_ns() - start
        self.at_ns.append(start)
        self.ref_ns.append(took)
        self.spent_ns += took

    def start(self) -> None:
        self.sample()  # so that every run has at least one sample
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def burst() -> list[int]:
    """Times of ``BURST`` back-to-back ``reference_work`` calls, in ns."""
    times = []
    for _ in range(BURST):
        start = time.perf_counter_ns()
        reference_work()
        times.append(time.perf_counter_ns() - start)
    return times


def scaled_setup_s(setup_s: float, burst_ns: list[int]) -> float:
    """Set-up time at the reference host speed, from a burst right after it."""
    return setup_s * BURST_REFERENCE_NS / float(np.median(burst_ns))


def scaled_s(
    tick_at_ns: list[int], tick_ns: list[int], ref_at_ns: list[int], ref_ns: list[int]
) -> float:
    """Run time in seconds at the reference host speed.

    Tick ``i`` starts at ``tick_at_ns[i]`` and takes ``tick_ns[i]`` of host
    time; sample ``j`` starts at ``ref_at_ns[j]`` (same clock, ascending)
    and takes ``ref_ns[j]``. Each tick counts as its time times
    ``REFERENCE_NS`` over the median sample within ``HALF_WINDOW_NS`` of it.
    """
    if len(tick_at_ns) != len(tick_ns) or len(ref_at_ns) != len(ref_ns):
        raise ValueError("times and start times differ in length")
    if not ref_ns:
        raise ValueError("no reference samples")
    ticks = np.asarray(tick_ns, dtype=float)
    start = np.asarray(tick_at_ns, dtype=float)
    at = np.asarray(ref_at_ns, dtype=float)
    ref = np.asarray(ref_ns, dtype=float)
    lo = np.searchsorted(at, start - HALF_WINDOW_NS, side="left")
    hi = np.searchsorted(at, start + ticks + HALF_WINDOW_NS, side="right")
    overall = np.median(ref)
    local = np.array([np.median(ref[a:b]) if b > a else overall for a, b in zip(lo, hi)])
    return float((ticks * REFERENCE_NS / local).sum() / 1e9)
