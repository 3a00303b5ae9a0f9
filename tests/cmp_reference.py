"""The comparison that numeric.ExactNumber._cmp replaced, kept as the
oracle its integer sign is tested against: build the difference as an
ExactNumber, then take its sign by case analysis on its Fractions."""

from ietpc.numeric import as_exact


def fraction_sign(x):
    """Exact sign of rat + coef*sqrt(d), squaring the Fractions."""
    a, b, d = x.rational_part, x.surd_coef, x.radicand
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: the sign is decided by a^2 versus b^2 d
    t = a * a - b * b * d
    if a > 0:
        return 1 if t > 0 else -1 if t < 0 else 0
    return -1 if t > 0 else 1 if t < 0 else 0


def subtraction_cmp(a, b):
    """Sign of a - b through the full ExactNumber subtraction."""
    return fraction_sign(as_exact(a) - as_exact(b))
