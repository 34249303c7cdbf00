"""A fixed reference computation that gauges how fast the machine runs now.

The 2-vCPU sandbox this benchmark was built on shares its host with other
tenants, and its speed moves in regimes that last minutes: the same kdfree
code (unchanged, same inputs) took 6.0 s in one ten-minute stretch and
12-14 s in another.  Raw wall times then spread by 20-30% over a set of ten
runs.  The benchmark therefore runs this computation right before and right
after every timed operation, for a fixed share of the operation's time, and
reports end-to-end times scaled to the speed at which one run of it takes
`NOMINAL_S`:

    reported = measured * NOMINAL_S / mean(reference run times in the run)

Over those two regimes the reference slowed by about 1.5x where kdfree
slowed by 1.7x, so the scaled figures moved by about 15% where the raw ones
doubled.  One reference run varies by 30% on its own, so the scale comes from
the mean over the whole run, not from the few runs next to one operation.

The computation is exact Gauss-Jordan elimination over `Fraction`s, the kind
of work (small-integer rationals, short-lived Python objects) that dominates
kdfree's LP, sampler and Hall layers.  It depends on neither kdfree nor the
seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from time import perf_counter

NOMINAL_S = 0.03  # about one reference run in the sandbox's faster regime
SHARE = 0.05  # reference time before, and again after, an operation, as a share of it

_RNG = Random("speed")
_MATRIX = [[Fraction(_RNG.randint(-9, 9)) for _ in range(22)] for _ in range(20)]


def _eliminate() -> None:
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def gauge(budget_s: float) -> list[float]:
    """Run the reference at least once and for `budget_s`; its run times."""
    times: list[float] = []
    while not times or sum(times) < budget_s:
        start = perf_counter()
        _eliminate()
        times.append(perf_counter() - start)
    return times
