"""The one half-open interval rule, meet and within, against brute force.

Every interval with integer ends in 0..3 and each of its four flag pairs
is compared as a set of points on the half-integer grid 0, 1/2, ..., 3.
Integer ends make that grid fine enough: a nonempty interval, and every
difference of two of them, holds a grid point.
"""

import itertools
from fractions import Fraction

from ietpc import Interval
from ietpc.intervals import meet, within

GRID = [Fraction(k, 2) for k in range(7)]
INTERVALS = [(lo, hi, lo_closed, hi_closed)
             for lo, hi in itertools.combinations_with_replacement(range(4), 2)
             for lo_closed, hi_closed in itertools.product((False, True), repeat=2)]


def points(interval):
    """The grid points of interval, by membership alone."""
    lo, hi, lo_closed, hi_closed = interval
    return frozenset(x for x in GRID
                     if (lo < x or (x == lo and lo_closed))
                     and (x < hi or (x == hi and hi_closed)))


def test_the_intervals_cover_empty_and_nonempty_sets():
    assert len(INTERVALS) == 40
    assert sum(not points(a) for a in INTERVALS) == 12


def test_meet_is_the_intersection_and_none_exactly_when_empty():
    for a, b in itertools.product(INTERVALS, repeat=2):
        common = points(a) & points(b)
        got = meet(a, b)
        assert (got is None) == (not common), (a, b, got)
        if got is not None:
            assert points(got) == common, (a, b, got)


def test_within_is_the_subset_relation():
    for a, b in itertools.product(INTERVALS, repeat=2):
        if points(b):  # within asks for a nonempty b
            assert within(a, b) == (points(b) <= points(a)), (a, b)


def test_interval_contains_follows_within():
    for lo, hi, lo_closed, hi_closed in INTERVALS:
        if lo == hi and not (lo_closed and hi_closed):
            continue  # Interval refuses an empty point
        interval = Interval(lo, hi, lo_closed, hi_closed)
        inside = points((lo, hi, lo_closed, hi_closed))
        assert {x for x in GRID if interval.contains(x)} == inside
