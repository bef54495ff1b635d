"""The machine's speed during a run, read from a fixed reference kernel.

The host is shared, and other tenants slow this machine's CPU by up to
2x for minutes at a time: ten runs of one workload in a row read 184
questions per second in the first three and 105-115 in the last four,
and set-up time moved with them.  Thread CPU time slows as much as wall
time (the slowdown is not descheduling), so no clock leaves it out.

A :class:`Gauge` runs :func:`reference` -- a fixed mix of Python dict and
string work and small numpy products, none of it program code -- every
PERIOD_S of a run, and reads the machine's slowdown at a moment from the
median reference time within WINDOW_S of it: its ratio to NOMINAL_S, the
reference's time on this machine when it is quiet, raised to the
workload's sensitivity.  Each workload's code slows by its own power of
the reference's slowdown; each module's SENSITIVITY is the slope of a
log-log fit of that workload's 2-second median operation time on the
reference's, over 5-10 minutes in which the reference's ranged 1.6-1.9x.  A workload divides
each operation's latency by the slowdown at its start, and a set-up is
divided by the slowdown read just before and after it
(:meth:`Gauge.timed`), so the figures read in quiet-machine time.  The
reference never runs while program code does, so a change to the
program moves the scaled figures as it moves the raw ones; the raw
figures stay in ``workload_info``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

from common import clock

PERIOD_S = 0.25  # at most one reference run per this much of a run
WINDOW_S = 3.0  # reference runs within this much of a moment read its speed
NOMINAL_S = 0.0045  # reference time on this 2-core machine when quiet
AROUND = 5  # reference runs before and after a stretch timed as a whole

T = TypeVar("T")

_KEYS = [f"key{i % 997}" for i in range(8000)]
_TEXT = " ".join(_KEYS)
_A = (np.arange(128 * 64, dtype=np.float64).reshape(128, 64) % 17) / 17.0
_B = (np.arange(64 * 512, dtype=np.float64).reshape(64, 512) % 13) / 13.0


def reference() -> float:
    """A fixed amount of interpreter and numpy work."""
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + len(key)
    total = float(len(_TEXT.split()) + sum(counts.values()))
    for _ in range(16):
        total += float((_A @ _B).sum())
    return total


class Gauge:
    """Reference timings over one run and the slowdown they imply for code
    whose time goes as the reference's to the power ``sensitivity``."""

    def __init__(self, sensitivity: float = 1.0) -> None:
        self.sensitivity = sensitivity
        self.at: List[float] = []
        self.took: List[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        """Run the reference if PERIOD_S has passed since the last run."""
        begin = clock()
        if begin < self._due and not force:
            return
        reference()
        end = clock()
        self.at.append(begin)
        self.took.append(end - begin)
        self._due = end + PERIOD_S

    def timed(self, work: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``work`` as one stretch: (its result, raw seconds,
        quiet-machine seconds), the slowdown read from AROUND reference runs
        just before and AROUND just after it."""
        first = len(self.took)
        for _ in range(AROUND):
            self.tick(force=True)
        begin = clock()
        result = work()
        raw = clock() - begin
        for _ in range(AROUND):
            self.tick(force=True)
        return result, raw, raw / float(self._slowdown(np.median(self.took[first:])))

    def median_slowdown(self) -> float:
        return float(self._slowdown(np.median(self.took)))

    def _slowdown(self, reference_s):
        return (np.asarray(reference_s, dtype=np.float64) / NOMINAL_S) ** self.sensitivity

    def slowdown(self, when: Sequence[float]) -> np.ndarray:
        """The slowdown at each moment of ``when`` (1.0 on a quiet machine)."""
        if not self.at:
            raise RuntimeError("the gauge has no reference timings")
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        per_tick = self._slowdown(np.array([
            np.median(took[(at >= t - WINDOW_S) & (at <= t + WINDOW_S)]) for t in at
        ]))
        nearest = np.clip(np.searchsorted(at, np.asarray(when, dtype=np.float64)), 0, len(at) - 1)
        return per_tick[nearest]

    def scaled(self, begins: Sequence[float], seconds: Sequence[float]) -> np.ndarray:
        """Durations that started at ``begins``, in quiet-machine seconds."""
        return np.asarray(seconds, dtype=np.float64) / self.slowdown(begins)
