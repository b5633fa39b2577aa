"""The host's speed at a moment, read from a fixed pure-Python probe.

The benchmark runs on a few virtual CPUs of a shared machine, and the
speed of one CPU swings by up to 1.8x within seconds as its neighbours
load the physical core.  Such a swing moves every call of a run alike, so
the medians of one run can differ from the next by a third whatever the
program does.  The probe below does a fixed mix of the work lexworld's
calls do (string rotations and comparisons, a small dict and a sort, and
Fraction doubling into a dict, as in a binary expansion), uses nothing
from lexworld, and so slows down with the host in the same proportion.
A call timed between two probes is scaled by ``PROBE_REF_S`` over their
mean: its time on a CPU on which the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# A fixed reference: about the probe's fastest time, with warm caches, on
# the machine the seed figures in README.md were taken on (2 vCPUs,
# Python 3.11.7).  Between calls the probe's caches are cold, so there a
# scaled time reads 15-40 % below the wall time even on a quiet core; what
# matters is that the reference is the same for every run.
PROBE_REF_S = 0.0006

_rng = random.Random(0)
_WORD = "".join(_rng.choice("01") for _ in range(512))
_KEYS = [_rng.randrange(1 << 30) for _ in range(256)]


def _probe() -> int:
    best = _WORD
    for i in range(0, len(_WORD), 4):
        rotation = _WORD[i:] + _WORD[:i]
        if rotation < best:
            best = rotation
    table = {k: (k, str(k)) for k in _KEYS}
    seen: dict[Fraction, int] = {}
    y = Fraction(1, 1019)
    for i in range(150):
        seen[y] = i
        y *= 2
        if y >= 1:
            y -= 1
    return best.count("1") + len(sorted(table.values())) + len(seen)


def probe_s(reps: int = 3) -> float:
    """The probe's time now: the fastest of ``reps`` back-to-back runs,
    so that one interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        _probe()
        best = min(best, perf_counter() - t0)
    return best
