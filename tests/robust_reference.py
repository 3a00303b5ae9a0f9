"""The ExactNumber word half of the family-robust check that
construct._robust_cycle's scaled-integer kernel replaced, kept as the
oracle the kernel is tested against.  Intervals are (lo, hi, lo_closed,
hi_closed) tuples; the containment rule is written out here rather than
imported, so the oracle shares no interval code with the kernel."""


def _subset(a, b):
    """Is the nonempty interval b inside a?"""
    alo, ahi, alo_closed, ahi_closed = a
    blo, bhi, blo_closed, bhi_closed = b
    if blo < alo or (blo == alo and blo_closed and not alo_closed):
        return False
    if bhi > ahi or (bhi == ahi and bhi_closed and not ahi_closed):
        return False
    return True


def image(family, y, letter):
    """Hull of y's images under piece `letter` of every family member;
    unchecked, so y must lie inside the inner piece."""
    ylo, yhi, ylo_closed, yhi_closed = y
    s = family.slopes[letter - 1]
    blo, bhi = family.ic_lo[letter - 1], family.ic_hi[letter - 1]
    if s > 0:
        return s * ylo + blo, s * yhi + bhi, ylo_closed, yhi_closed
    return s * yhi + blo, s * ylo + bhi, yhi_closed, ylo_closed


def exact_robust_cycle(family, word):
    """The for-all inner cylinder of word when the worst-case cycle hull
    lands back inside it, else None, on the family's ExactNumbers."""
    # built backwards through for-all preimages
    lo, hi, lo_closed, hi_closed = family.inner_piece(word[-1])
    for letter in reversed(word[:-1]):
        s = family.slopes[letter - 1]
        blo, bhi = family.ic_lo[letter - 1], family.ic_hi[letter - 1]
        if s > 0:
            pre_lo, pre_lo_closed = (lo - blo) / s, lo_closed
            pre_hi, pre_hi_closed = (hi - bhi) / s, hi_closed
        else:
            pre_lo, pre_lo_closed = (hi - bhi) / s, hi_closed
            pre_hi, pre_hi_closed = (lo - blo) / s, lo_closed
        plo, phi, _, _ = family.inner_piece(letter)
        # the inner piece is [plo, phi)
        if pre_lo > plo or (pre_lo == plo and not pre_lo_closed):
            lo, lo_closed = pre_lo, pre_lo_closed
        else:
            lo, lo_closed = plo, True
        if pre_hi < phi or (pre_hi == phi and not pre_hi_closed):
            hi, hi_closed = pre_hi, pre_hi_closed
        else:
            hi, hi_closed = phi, False
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
    cylinder = (lo, hi, lo_closed, hi_closed)

    # each step lands in the next letter's for-all preimage, which lies
    # inside that letter's inner piece
    hull = cylinder
    for letter in word:
        hull = image(family, hull, letter)
    return cylinder if _subset(cylinder, hull) else None
