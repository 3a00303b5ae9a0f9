"""Certifying that a contraction's coding is ultimately periodic.

A certificate names a preperiod length q, a period p, the period word, and
the cylinder of that word; checking it is pure exact arithmetic.  The
checker is independent of the search, so a certificate can be re-validated
(or tampered with and rejected) long after it was produced.

The last section is the interesting failure mode: the finite gap
construction for the golden rotation genuinely locks onto a periodic
attractor, but only because of truncation.  The family-robust layer sees
that the margins are smaller than the construction's own error bound and
refuses to certify, which is exactly the right answer.
"""

import time
from fractions import Fraction

from ietpc import (
    Interval,
    PeriodicCertificate,
    build_pc_from_iet,
    certify_periodic,
    check_certificate,
    golden_rotation,
    new_pc,
    pc_coding,
)

# an attracting fixed point: f(x) = x/2 + 1/3 on a single piece
f1 = new_pc([0, 1], [Fraction(1, 2)], [Fraction(1, 3)])
c1 = certify_periodic(f1, 0)
print("fixed point: q =", c1.q, " p =", c1.p, " fixed point =", c1.fixed_point)
assert check_certificate(f1, c1)

# an attracting 2-cycle {1/6, 5/6}: the two halves swap
f2 = new_pc([0, Fraction(1, 2), 1],
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(3, 4), Fraction(-1, 4)])
c2 = certify_periodic(f2, 0)
print("2-cycle: period word", c2.period, " cycle slope", c2.cycle_slope,
      " fixed point of the cycle map:", c2.fixed_point)
assert check_certificate(f2, c2)

# the certificate predicts the coding forever; compare a finite prefix
predicted = c2.eventual_word(12).to_text()
observed = pc_coding(f2, 0, 12).to_text()
print("predicted", predicted, "observed", observed)
assert predicted == observed

# tampering is caught; certificates are frozen, so a changed one is built anew
def tampered(cert, period=None, cylinder=None):
    return PeriodicCertificate(
        start=cert.start, q=cert.q, p=cert.p, preperiod=cert.preperiod,
        period=period or cert.period, cylinder=cylinder or cert.cylinder,
        cycle_slope=cert.cycle_slope, cycle_intercept=cert.cycle_intercept,
        fixed_point=cert.fixed_point)


bad = tampered(c2, period=(2, 1))
assert not check_certificate(f2, bad)
bad = tampered(c2, cylinder=Interval(Fraction(0), Fraction(1, 100)))
assert not check_certificate(f2, bad)
print("tampered certificates rejected")

# the golden construction: the exact representative does lock onto a cycle
T = golden_rotation()
cpc = build_pc_from_iet(T, N=64)
t0 = time.time()
rep_cert = certify_periodic(cpc.pc, Fraction(1, 3))
print(f"representative alone: certificate with p = {rep_cert.p} "
      f"({time.time() - t0:.1f}s)")

# but certify_periodic on the construction quantifies over every map within
# the error balls, and the true infinite-sum contraction is one of them
t0 = time.time()
family_cert = certify_periodic(cpc, Fraction(1, 3))
print(f"whole family: {family_cert} ({time.time() - t0:.1f}s)")
assert family_cert is None
print("truncation artifact correctly refused")
