"""The ExactNumber word half of the family-robust check that
construct._robust_cycle's scaled-integer kernel replaced, kept as the
oracle the kernel is tested against."""

from ietpc.construct import _encloses


def image(family, y, letter):
    """Hull of y's images under piece `letter` of every family member;
    unchecked, so y must lie inside the inner piece."""
    ylo, ylo_open, yhi, yhi_open = y
    s = family.slopes[letter - 1]
    blo, bhi = family.ic_lo[letter - 1], family.ic_hi[letter - 1]
    if s > 0:
        return s * ylo + blo, ylo_open, s * yhi + bhi, yhi_open
    return s * yhi + blo, yhi_open, s * ylo + bhi, ylo_open


def exact_robust_cycle(family, word):
    """The for-all inner cylinder of word when the worst-case cycle hull
    lands back inside it, else None, on the family's ExactNumbers."""
    # built backwards through for-all preimages
    lo, lo_open, hi, hi_open = family.inner_piece(word[-1])
    for letter in reversed(word[:-1]):
        s = family.slopes[letter - 1]
        blo, bhi = family.ic_lo[letter - 1], family.ic_hi[letter - 1]
        if s > 0:
            pre_lo, pre_lo_open = (lo - blo) / s, lo_open
            pre_hi, pre_hi_open = (hi - bhi) / s, hi_open
        else:
            pre_lo, pre_lo_open = (hi - bhi) / s, hi_open
            pre_hi, pre_hi_open = (lo - blo) / s, lo_open
        plo, _, phi, _ = family.inner_piece(letter)
        if pre_lo > plo or (pre_lo == plo and pre_lo_open):
            lo, lo_open = pre_lo, pre_lo_open
        else:
            lo, lo_open = plo, False
        if pre_hi < phi or (pre_hi == phi and pre_hi_open):
            hi, hi_open = pre_hi, pre_hi_open
        else:
            hi, hi_open = phi, True
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
    cylinder = (lo, lo_open, hi, hi_open)

    # each step lands in the next letter's for-all preimage, which lies
    # inside that letter's inner piece
    hull = cylinder
    for letter in word:
        hull = image(family, hull, letter)
    return cylinder if _encloses(cylinder, hull) else None
