"""Intervals with explicit open/closed end flags, under exact arithmetic.

Used for piece images and itinerary cylinders, where the difference between
``[a, b)`` and ``(a, b]`` decides injectivity and certificate soundness.

The rule for intersecting such intervals and testing containment lives here
once, in meet and within.  They take ``(lo, hi, lo_closed, hi_closed)``
tuples whose ends may be any mutually comparable values: ExactNumbers, or
the integers over a power of two that the dyadic kernels of pc and
construct run on.  Interval.contains, new_pc's overlap check, the cylinder
and cycle checks of the certificate search and the family-robust check all
call them.
"""

from __future__ import annotations

from typing import Optional

from ._record import record
from .numeric import ExactNumber, Scalarish, as_exact


def meet(a: tuple, b: tuple) -> Optional[tuple]:
    """The intersection of intervals a and b as a tuple, or None when it is
    empty."""
    alo, ahi, alo_closed, ahi_closed = a
    blo, bhi, blo_closed, bhi_closed = b
    if alo > blo:
        lo, lo_closed = alo, alo_closed
    elif alo < blo:
        lo, lo_closed = blo, blo_closed
    else:
        lo, lo_closed = alo, alo_closed and blo_closed
    if ahi < bhi:
        hi, hi_closed = ahi, ahi_closed
    elif ahi > bhi:
        hi, hi_closed = bhi, bhi_closed
    else:
        hi, hi_closed = ahi, ahi_closed and bhi_closed
    if lo < hi or (lo == hi and lo_closed and hi_closed):
        return lo, hi, lo_closed, hi_closed
    return None


def within(a: tuple, b: tuple) -> bool:
    """Is the nonempty interval b a subset of interval a?"""
    alo, ahi, alo_closed, ahi_closed = a
    blo, bhi, blo_closed, bhi_closed = b
    return (alo < blo or (alo == blo and (alo_closed or not blo_closed))) and (
        bhi < ahi or (bhi == ahi and (ahi_closed or not bhi_closed)))


@record
class Interval:
    lo: ExactNumber
    hi: ExactNumber
    lo_closed: bool = True
    hi_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", as_exact(self.lo))
        object.__setattr__(self, "hi", as_exact(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be a closed point")

    def contains(self, x: Scalarish) -> bool:
        v = as_exact(x)
        return within((self.lo, self.hi, self.lo_closed, self.hi_closed),
                      (v, v, True, True))

    def __repr__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"
