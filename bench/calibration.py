"""Host speed, measured beside the goals.

On a shared machine the speed of a core moves by a quarter or more within a
minute, and every goal of a run moves with it. On 2 vCPUs of a shared Intel
Xeon host, one fixed goal timed in 10-s windows over 150 s spread 21%
(interquartile range over median), while its ratio to a slice of fixed
pure-Python work spread 2-3%.

So the benchmark runs the slice below, which shares no code with the
package, after every `EVERY_S` seconds of timed goals, and scales the run's
time metrics by `NOMINAL_S / median slice time`. They then read as on a
machine where one slice takes `NOMINAL_S`. The slices run outside the timed
region. Over ten seeds of 35-s runs on that host, the spread of `prop`'s
verdict_p90_ms went from 15% unscaled to 2% scaled, and that of `fo`'s
verdicts_per_s from 16% to 9%.
"""

from __future__ import annotations

import itertools
from time import perf_counter

EVERY_S = 0.25
NOMINAL_S = 0.004  # about the median slice time on the machine above

# (p0 & ~p1) | o(p2 -> (p3 | ~(p4 & o p5))) -> ~(p0 | p5), as nested tuples
FORMULA = (
    "imp",
    ("or", ("and", 0, ("neg", 1)), ("circ", ("imp", 2, ("or", 3, ("neg", ("and", 4, ("circ", 5))))))),
    ("neg", ("or", 0, 5)),
)
NEG = (2, 1, 0)
CIRC = (2, 0, 2)
BINARY = {
    "and": lambda a, b: min(a, b),
    "or": lambda a, b: max(a, b),
    "imp": lambda a, b: 2 if a == 0 else b,
}


def value(phi, v: tuple[int, ...]) -> int:
    if isinstance(phi, int):
        return v[phi]
    if phi[0] == "neg":
        return NEG[value(phi[1], v)]
    if phi[0] == "circ":
        return CIRC[value(phi[1], v)]
    return BINARY[phi[0]](value(phi[1], v), value(phi[2], v))


def work() -> int:
    """Three-valued evaluation of FORMULA under every valuation of six atoms."""
    return sum(value(FORMULA, v) for v in itertools.product((0, 1, 2), repeat=6))


def timed_slice() -> float:
    start = perf_counter()
    work()
    return perf_counter() - start
