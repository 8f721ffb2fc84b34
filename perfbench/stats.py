"""Summary statistics shared by every perfbench stage.

Timings are reported as a median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it, with the sample count, so
a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics

#: samples a reported percentile must have beyond it
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1), linearly interpolated."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = q * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def supported_quantile(n: int, cap: float = 0.99) -> "float | None":
    """The highest quantile, at most ``cap``, with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (None if n is too
    small for any)."""
    if n < MIN_BEYOND + 1:
        return None
    q = math.floor((1.0 - MIN_BEYOND / n) * 1000) / 1000
    return min(cap, q)


def tail(values, cap: float = 0.99) -> "tuple[float | None, float | None]":
    """``(quantile, value)`` at :func:`supported_quantile`."""
    q = supported_quantile(len(values), cap)
    if q is None:
        return None, None
    return q, percentile(values, q)


def describe(values, unit: str = "") -> str:
    """``median 1.23 ms, p99 4.56 ms (n=1200)``."""
    values = list(values)
    q, v = tail(values)
    head = f"median {median(values):.4g}{unit}"
    if q is None:
        return f"{head} (n={len(values)}, too few for a tail)"
    return f"{head}, p{q * 100:g} {v:.4g}{unit} (n={len(values)})"


# -- the serve ladder ------------------------------------------------------


def ladder(base: float, factor: float, rungs: int) -> "list[float]":
    """Fixed geometric request rates ``base * factor**i``."""
    return [round(base * factor ** i, 3) for i in range(rungs)]


def backlog_growing(backlog: "list[int]", slack: int = 4) -> bool:
    """Whether outstanding requests kept growing across a step: the
    last quarter's median exceeds twice the first quarter's plus
    ``slack`` (medians, so one short stall does not count as growth)."""
    if len(backlog) < 8:
        return False
    k = len(backlog) // 4
    return median(backlog[-k:]) > 2 * median(backlog[:k]) + slack


def step_passes(latencies_ms: "list[float]", limit_ms: float,
                backlog: "list[int]") -> bool:
    """A ladder step passes when its tail latency (failed requests
    count as ``inf``) stays within the limit and the backlog does not
    grow."""
    q, value = tail(latencies_ms)
    if q is None:
        return False
    return value <= limit_ms and not backlog_growing(backlog)


class Staircase:
    """The highest passing rung of a ladder, by an up-down search.

    The first probe, at ``start``, sets a direction: climb in ``stride``
    steps while rungs pass, or descend in ``stride`` steps while they
    fail.  At the turn the search goes to the rung just above the
    highest pass and hovers from there: one rung up after a pass, one
    rung down after a failure, so its probes stay around the rung where
    steps start to fail and follow the host as its speed drifts.
    :attr:`best` is the median of the rungs that passed while hovering,
    so one slow stretch of the host moves it by a rung, not to the
    bottom of the ladder.  :meth:`next` names the rung to probe (None
    after ``settle`` hovering probes); :meth:`record` takes its outcome,
    so probes can be spread over a run.
    """

    def __init__(self, n_rungs: int, start: int, stride: int, settle: int):
        self.n = n_rungs
        self.stride = stride
        self.settle = settle
        #: highest rung passed while seeking
        self.top = -1
        #: (rung, passed) of each hovering probe
        self.hover: list = []
        self._dir = 0
        self._seeking = True
        self._next = self._clamp(start)

    def _clamp(self, i: int) -> int:
        return max(0, min(i, self.n - 1))

    def next(self) -> "int | None":
        return self._next if len(self.hover) < self.settle else None

    def record(self, i: int, ok: bool) -> None:
        if self._seeking:
            if ok:
                self.top = max(self.top, i)
            if not self._dir:
                self._dir = 1 if ok else -1
            step = self._clamp(i + self.stride * self._dir)
            if ok == (self._dir > 0) and step != i:
                self._next = step
                return
            self._seeking = False
            # at the turn hover from just above the highest pass; at
            # the ladder's end, from the end
            self._next = step if ok == (self._dir > 0) else self.top + 1
            return
        self.hover.append((i, ok))
        self._next = self._clamp(i + 1 if ok else i - 1)

    @property
    def best(self) -> int:
        """Index of the median rung passed while hovering (the lower one
        of an even count), else the highest passed; -1 if none passed."""
        passed = sorted(i for i, ok in self.hover if ok)
        return passed[(len(passed) - 1) // 2] if passed else self.top
