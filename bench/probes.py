"""Layer probes at three sizes, so growth rates show and not single points.

Each probe times one library layer on fixed inputs, outside any workload:
scalar arithmetic at three radicands and two dyadic widths, period
detection on aperiodic (Fibonacci) words, and exact exchange codings.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from math import isqrt

from ietpc import iet, words
from ietpc.numeric import ExactNumber

RADICANDS = (5, 1009, 1000003)
DYADIC_BITS = (64, 256)
PERIOD_LENGTHS = (1000, 2000, 4000)
CODING_LENGTHS = (1000, 2000, 4000)
BLOCK_S = 0.02
BLOCKS = 5


def _op_us(a: ExactNumber, b: ExactNumber) -> float:
    """Median over blocks of microseconds per operation of an add, a
    multiply and a compare."""
    per_op = []
    for _ in range(BLOCKS):
        n = 0
        t0 = time.perf_counter()
        while True:
            _ = a + b
            _ = a * b
            _ = a < b
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= BLOCK_S:
                break
        per_op.append(elapsed * 1e6 / (3 * n))
    return statistics.median(per_op)


def _orbit_pair(d: int) -> tuple[ExactNumber, ExactNumber]:
    """Two consecutive points of an exact rotation orbit in Q(sqrt(d))."""
    T = iet.rotation_iet(ExactNumber.sqrt(d) - isqrt(d))
    point = ExactNumber(Fraction(1, 7))
    for _ in range(64):
        point = T.eval(point)
    return point, T.eval(point)


def _dyadic_pair(bits: int) -> tuple[ExactNumber, ExactNumber]:
    rng = random.Random(bits)
    return tuple(
        ExactNumber(Fraction(rng.getrandbits(bits) | 1, 2**bits)) for _ in range(2)
    )


def run_probes() -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    for d in RADICANDS:
        m[f"numeric.op_us.d{d}"] = (_op_us(*_orbit_pair(d)), "us")
    for bits in DYADIC_BITS:
        m[f"numeric.op_us.dyadic{bits}"] = (_op_us(*_dyadic_pair(bits)), "us")
    for n in PERIOD_LENGTHS:
        word = words.fibonacci_word(n)
        t0 = time.perf_counter()
        words.detect_eventual_period(word)
        m[f"words.detect_eventual_period.s.n{n}"] = (time.perf_counter() - t0, "s")
    T = iet.golden_rotation()
    for n in CODING_LENGTHS:
        t0 = time.perf_counter()
        iet.coding(T, T.translations[0], n)
        m[f"iet.coding.us_per_letter.n{n}"] = (
            (time.perf_counter() - t0) * 1e6 / n, "us")
    return m
