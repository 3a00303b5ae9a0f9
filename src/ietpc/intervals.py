"""Intervals with explicit open/closed end flags, under exact arithmetic.

Used for piece images and itinerary cylinders, where the difference between
``[a, b)`` and ``(a, b]`` decides injectivity and certificate soundness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numeric import ExactNumber, Scalarish, as_exact


@dataclass(frozen=True)
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
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        if v == self.hi and not self.hi_closed:
            return False
        return True

    def is_disjoint(self, other: "Interval") -> bool:
        if self.hi < other.lo or other.hi < self.lo:
            return True
        if self.hi == other.lo:
            return not (self.hi_closed and other.lo_closed)
        if other.hi == self.lo:
            return not (other.hi_closed and self.lo_closed)
        return False

    def contains_interval(self, other: "Interval") -> bool:
        if other.lo < self.lo or (
            other.lo == self.lo and other.lo_closed and not self.lo_closed
        ):
            return False
        if other.hi > self.hi or (
            other.hi == self.hi and other.hi_closed and not self.hi_closed
        ):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo < other.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi > other.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        if lo > hi:
            return None
        if lo == hi and not (lo_closed and hi_closed):
            return None
        return Interval(lo, hi, lo_closed, hi_closed)

    def __repr__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo}, {self.hi}{rb}"
