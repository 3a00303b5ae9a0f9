"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from ietpc import new_pc


@st.composite
def half_slope_maps(draw, min_pieces=1, max_pieces=4):
    """Random injective rational maps with slopes +-1/2 and a start point."""
    n = draw(st.integers(min_pieces, max_pieces))
    den = draw(st.sampled_from([12, 30, 35, 64]))
    cuts = draw(st.lists(st.integers(1, den - 1), min_size=n - 1, max_size=n - 1,
                         unique=True))
    bps = [Fraction(0)] + sorted(Fraction(c, den) for c in cuts) + [Fraction(1)]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    # free space (total 1/2) split into n + 1 gaps; the last gap and every
    # gap above a reversed image (closed at its top) must be nonempty
    weights = draw(st.lists(st.integers(0, 6), min_size=n + 1, max_size=n + 1))
    weights[-1] += 1
    for j, i in enumerate(order[:-1]):
        weights[j + 1] += signs[i] == -1
    gaps = [Fraction(w, 2 * sum(weights)) for w in weights]
    lo, start = gaps[0], {}
    for j, i in enumerate(order):
        start[i] = lo
        lo += (bps[i + 1] - bps[i]) / 2 + gaps[j + 1]
    intercepts = [
        start[i] - bps[i] / 2 if signs[i] == 1 else start[i] + bps[i + 1] / 2
        for i in range(n)
    ]
    f = new_pc(bps, [Fraction(s, 2) for s in signs], intercepts)
    x = Fraction(draw(st.integers(0, 104)), 105)
    return f, x
