"""The Fraction ball orbit that pc.ball_orbit replaced, kept as the oracle
its scaled-integer kernel is tested against."""

import math
from bisect import bisect_right
from fractions import Fraction

from ietpc import Ball
from ietpc.numeric import dyadic_ceil


def ball_piece(ball, lower_edges, upper_edges):
    """The piece that certainly contains the ball, or None.

    Breakpoint i is known to lie in [lower_edges[i], upper_edges[i]], and
    both edge lists are nondecreasing; exact breakpoints pass one list as
    both.  Piece i certainly holds the ball when upper_edges[i-1] <= ball.lo
    and ball.hi < lower_edges[i].  Piece 1's floor is exactly 0: points
    below 0 do not exist, so only its upper edge matters.
    """
    lo, hi = ball.lo, ball.hi
    i = bisect_right(lower_edges, hi, 1)  # first piece whose top clears the ball
    if i < len(lower_edges) and (i == 1 or upper_edges[i - 1] <= lo):
        return i
    return None


def ball_orbit(ball, lower_edges, upper_edges, slopes, intercepts, grid, length):
    """Yield (letter, ball) for up to length steps of a ball orbit, ending
    early at the first ball that straddles a breakpoint.

    A step from piece i yields a ball holding s*x + c for every s in
    slopes[i-1], x in the ball and c in intercepts[i-1].  With grid, the
    product's center is rounded down onto the 2**-grid lattice and the
    radius grown to cover the rounding; without, every step is exact.
    """
    for _ in range(length):
        i = ball_piece(ball, lower_edges, upper_edges)
        if i is None:
            return
        yield i, ball
        slope, intercept = slopes[i - 1], intercepts[i - 1]
        center = slope.center * ball.center
        radius = (
            abs(slope.center) * ball.radius
            + abs(ball.center) * slope.radius
            + slope.radius * ball.radius
        )
        if grid is not None:
            c_lo = Fraction(math.floor(center * 2**grid), 2**grid)
            radius = dyadic_ceil(radius + center - c_lo, grid)
            center = c_lo
        ball = Ball(center + intercept.center, radius + intercept.radius)
