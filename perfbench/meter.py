"""Timing in reference seconds.

The benchmark runs on shared machines whose speed changes by tens of
percent from one second to the next, and by up to half over minutes,
because other tenants use the same cores and caches.  Process CPU time
does not help: on the 2-core Xeon VM the baseline comes from it has tick
resolution, and a contended core runs the same instructions more slowly
whether or not the process is descheduled.

So a run measures the machine's speed as it goes, with :func:`calibrate`,
a fixed piece of plain Python that does not use meadowacp: half
interpreter work on small objects (a memoised rewrite of frozen-dataclass
trees, recursion, sets, sorting, strings), half a pointer chase through
an 8 MB array that misses the caches.  A
:class:`Meter` calibrates at least every ``PERIOD`` seconds of work,
between operations, and scales a measured interval by ``REFERENCE_S /
c``, where ``c`` is the median of the calibrations made during the
interval and the ``NEAR`` made on either side of it.  ``REFERENCE_S`` is
about the median calibration time on that VM under Python 3.11, so there
a reference second is a typical wall-clock second.  Calibration time is
left out of every measured interval.

On that VM, over 100 s of alternating calibrations and meadowacp work
(random pairs, quantity evaluation, CLI commands), the log work time
moved with a standard deviation of 0.15 to 0.18 and followed the log
calibration time with a slope of 0.87 to 1.0 (correlation 0.71 to
0.83); what is left after scaling has a standard deviation of 0.09 to
0.13 over four-sample stretches, and averages down over a run.  The
interpreter half alone followed with a slope of only 0.65 to 0.72, the
cache misses being what it lacks.  The scaling cannot tell a slower
machine from a program change that slows the calibration too (by
holding much more memory, say): such a change is partly scaled away.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from random import Random
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0095
PERIOD = 0.15
NEAR = 4


@dataclass(frozen=True)
class _Term:
    op: str
    left: object
    right: object


def _term(rng, depth):
    if depth == 0:
        return _Term("a", None, rng.randrange(3))
    return _Term(rng.choice("+.|"), _term(rng, depth - 1), _term(rng, depth - 1))


def _normal(t, memo):
    """A memoised bottom-up rewrite of a frozen-dataclass tree, the kind
    of work meadowacp does most."""
    hit = memo.get(t)
    if hit is not None:
        return hit
    if t.left is None:
        out = (t.right,)
    elif t.op == "+":
        out = tuple(sorted(set(_normal(t.left, memo) + _normal(t.right, memo))))
    else:
        out = tuple(
            x * 3 + y for x in _normal(t.left, memo)[:6] for y in _normal(t.right, memo)[:6]
        )
    memo[t] = out
    return out


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


_chain = None


def _chase(steps):
    """Follow a single cycle through an 8 MB array (a full-period linear
    congruential map), so that most steps miss the caches the way the
    program's large object graphs do.  Built on first use; not tracked by
    the garbage collector."""
    global _chain
    if _chain is None:
        size = 1 << 20
        _chain = array("q", ((i * 0x5DEECE66D + 11) & (size - 1) for i in range(size)))
    i = 0
    chain = _chain
    for _ in range(steps):
        i = chain[i]
    return i


def calibrate() -> float:
    """Wall time of a fixed piece of work (about ``REFERENCE_S``): about
    half interpreter work on small objects, half cache misses."""
    if _chain is None:
        _chase(1)
    t0 = perf_counter()
    total = _fib(19) + len(_normal(_term(Random(7), 8), {}))
    total += len(str([(j, f"x{j}") for j in range(200)]))
    total += _chase(16000) >= 0
    elapsed = perf_counter() - t0
    if total <= 0:  # keeps the work observable
        raise AssertionError("calibration did no work")
    return elapsed


class Meter:
    """A clock of work time (wall time minus calibration) whose intervals
    convert to reference seconds.

    ``now()`` reads the clock; ``lap()``, called between operations,
    calibrates once ``period`` seconds of work have passed since the last
    calibration (or at once, with ``force``).  ``scaled(a, b)`` gives the
    reference seconds between two readings; call it once the calibrations
    after ``b`` have been made.
    """

    def __init__(self, period: float = PERIOD):
        self.period = period
        self._excluded = 0.0
        self.bounds = []  # work time of each calibration
        self.cals = []  # its calibration time
        self.lap(force=True)

    def now(self) -> float:
        return perf_counter() - self._excluded

    def lap(self, force: bool = False):
        if force or self.now() - self.bounds[-1] >= self.period:
            t0 = perf_counter()
            self.bounds.append(self.now())
            self.cals.append(calibrate())
            self._excluded += perf_counter() - t0

    def speed(self) -> float:
        """Median calibration time over reference: above 1 is slower."""
        return median(self.cals) / REFERENCE_S

    def scaled(self, a: float, b: float) -> float:
        lo = bisect_left(self.bounds, a)
        hi = bisect_right(self.bounds, b)
        near = self.cals[max(lo - NEAR, 0):hi + NEAR]
        return (b - a) * REFERENCE_S / median(near)
