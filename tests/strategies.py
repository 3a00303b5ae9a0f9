"""Hypothesis strategies and helpers shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from ietpc import ExactNumber, from_lengths_and_permutation, new_pc


def replaced(obj, **changes):
    """A copy of the record obj with some fields changed, built by its
    constructor, which checks them as it would any other."""
    return type(obj)(**{**{n: getattr(obj, n) for n in obj._fields}, **changes})


@st.composite
def slope_maps(draw, q=2, min_pieces=1, max_pieces=4, dens=(12, 30, 35, 64)):
    """Random injective rational maps with slopes +-1/q, breakpoints over
    one of dens, and a start point."""
    n = draw(st.integers(min_pieces, max_pieces))
    den = draw(st.sampled_from(dens))
    cuts = draw(st.lists(st.integers(1, den - 1), min_size=n - 1, max_size=n - 1,
                         unique=True))
    bps = [Fraction(0)] + sorted(Fraction(c, den) for c in cuts) + [Fraction(1)]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    # free space (total 1 - 1/q) split into n + 1 gaps; the last gap and
    # every gap above a reversed image (closed at its top) must be nonempty
    weights = draw(st.lists(st.integers(0, 6), min_size=n + 1, max_size=n + 1))
    weights[-1] += 1
    for j, i in enumerate(order[:-1]):
        weights[j + 1] += signs[i] == -1
    gaps = [Fraction(w * (q - 1), q * sum(weights)) for w in weights]
    lo, start = gaps[0], {}
    for j, i in enumerate(order):
        start[i] = lo
        lo += (bps[i + 1] - bps[i]) / q + gaps[j + 1]
    intercepts = [
        start[i] - bps[i] / q if signs[i] == 1 else start[i] + bps[i + 1] / q
        for i in range(n)
    ]
    f = new_pc(bps, [Fraction(s, q) for s in signs], intercepts)
    x = Fraction(draw(st.integers(0, 104)), 105)
    return f, x


def half_slope_maps(min_pieces=1, max_pieces=4):
    """Random injective rational maps with slopes +-1/2 and a start point."""
    return slope_maps(2, min_pieces, max_pieces)


@st.composite
def dyadic_maps(draw, min_pieces=1, max_pieces=4):
    """Random injective dyadic maps and a start point: breakpoints on the
    1/64 grid, slopes +-1/2 and +-1/4, and gap weights summing to a power of
    two, so every breakpoint and intercept has a power-of-two denominator."""
    n = draw(st.integers(min_pieces, max_pieces))
    cuts = draw(st.lists(st.integers(1, 63), min_size=n - 1, max_size=n - 1,
                         unique=True))
    bps = [Fraction(0)] + sorted(Fraction(c, 64) for c in cuts) + [Fraction(1)]
    slopes = draw(st.lists(st.sampled_from([Fraction(s, q) for s in (1, -1)
                                            for q in (2, 4)]),
                           min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    # as in slope_maps, the last gap and every gap above a reversed image
    # are nonempty; the last gap also takes the weight that rounds the
    # total up to a power of two
    weights = draw(st.lists(st.integers(0, 6), min_size=n + 1, max_size=n + 1))
    weights[-1] += 1
    for j, i in enumerate(order[:-1]):
        weights[j + 1] += slopes[i] < 0
    weights[-1] += (1 << (sum(weights) - 1).bit_length()) - sum(weights)
    free = 1 - sum(abs(s) * (b - a) for s, a, b in zip(slopes, bps, bps[1:]))
    gaps = [free * w / sum(weights) for w in weights]
    lo, start = gaps[0], {}
    for j, i in enumerate(order):
        start[i] = lo
        lo += abs(slopes[i]) * (bps[i + 1] - bps[i]) + gaps[j + 1]
    intercepts = [
        start[i] - slopes[i] * (bps[i] if slopes[i] > 0 else bps[i + 1])
        for i in range(n)
    ]
    f = new_pc(bps, slopes, intercepts)
    den = draw(st.sampled_from([64, 105]))
    x = Fraction(draw(st.integers(0, den - 1)), den)
    return f, x


def _frac_part(x):
    """x minus its floor, the floor found by exact comparison."""
    m = int(float(x)) - 1
    while x >= m + 1:
        m += 1
    return x - m


@st.composite
def exchanges(draw, max_pieces=5):
    """Standard exchanges whose breakpoints are the fractional parts of
    k*seed for a rational or surd seed, in a random permutation."""
    d = draw(st.sampled_from([0, 2, 5, 1000003]))
    seed = ExactNumber(Fraction(draw(st.integers(1, 999)), 1000),
                       Fraction(draw(st.integers(-99, 99)), 100) if d else 0, d)
    n = draw(st.integers(2, max_pieces))
    cuts = sorted({_frac_part(k * seed) for k in range(1, n)} - {0})
    ends = [ExactNumber(0), *cuts, ExactNumber(1)]
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    perm = draw(st.permutations(range(1, len(lengths) + 1)))
    return from_lengths_and_permutation(lengths, perm)
