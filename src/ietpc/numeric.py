"""Exact scalar arithmetic: rationals, quadratic surds, and rigorous balls.

Every breakpoint, translation and orbit point handled by this package is an
:class:`ExactNumber`, so each piece-membership decision made while iterating a
map is an exact sign computation; floating point never enters a branch.
Values defined by truncated infinite series are reported as :class:`Ball`
enclosures: dyadic center/radius pairs guaranteed to contain the exact value.

A single irrational radicand is supported per computation: mixing
``a + b*sqrt(5)`` with ``a' + b'*sqrt(2)`` raises ``IncompatibleRadicands``,
while rationals combine freely with either.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

from ._record import record
from .errors import DivisionByZero, IncompatibleRadicands

Rationalish = Union[int, Fraction]
Scalarish = Union["ExactNumber", int, Fraction]

_ZERO = Fraction(0)


# Radicands are made square-free by trial division up to their cube root, so
# a bound on their size bounds the time of every parse (about 0.3 s at a
# 64-bit prime).
RADICAND_BITS = 64


def _square_free(d: int) -> tuple[int, int]:
    """Return (s, d') with d == s*s*d' and d' square-free.

    Trial factors f run while f**3 <= d (d shrinking as they are divided
    out).  What is left then has no prime factor below f and is below f**3,
    so it has at most two prime factors: it is 1, p, p*q or p*p, and only
    p*p is not square-free, which isqrt detects.  ValueError when d has more
    than RADICAND_BITS bits.
    """
    if d.bit_length() > RADICAND_BITS:
        raise ValueError(f"radicand {d} exceeds {RADICAND_BITS} bits")
    s = core = 1
    f = 2
    while f * f * f <= d:
        if d % f == 0:
            e = 0
            while d % f == 0:
                d //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                core *= f
        f = 3 if f == 2 else f + 2
    r = isqrt(d)
    if r > 1 and r * r == d:
        return s * r, core
    return s, core * d


def _sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for integers a and b, d square-free and >= 2
    whenever b != 0.

    When a and b do not have opposite signs the answer is the sign of the
    nonzero one; otherwise |a| against |b|*sqrt(d) decides, which is a*a
    against b*b*d, never equal because sqrt(d) is irrational.
    """
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a * sb >= 0:
        return sb
    return sb if a * a < b * b * d else -sb


class ExactNumber:
    """A number of the form rat + coef*sqrt(d) with rat, coef rational.

    Normal form: coef == 0 implies d == 0 (the rational variant); otherwise
    d is square-free and >= 2.  Arbitrary-precision integers throughout.
    The constructor, ``sqrt`` and ``parse_scalar`` normalise; arithmetic
    results keep the operands' square-free radicand (``_make``).
    """

    __slots__ = ("_rat", "_coef", "_d")

    def __init__(self, rat: Rationalish = 0, coef: Rationalish = 0, d: int = 0):
        rat = Fraction(rat)
        coef = Fraction(coef)
        if coef != 0:
            if d < 0:
                raise ValueError("radicand must be nonnegative")
            s, d = _square_free(d)
            coef *= s
            if d <= 1:
                # sqrt(0) or sqrt(1): the "surd" part is rational after all.
                rat += coef * d
                coef = _ZERO
                d = 0
        else:
            coef = _ZERO
            d = 0
        self._rat = rat
        self._coef = coef
        self._d = d

    @classmethod
    def _make(cls, rat: Fraction, coef: Fraction, d: int) -> "ExactNumber":
        """Trusted constructor for results of arithmetic: rat and coef are
        Fractions and d is already square-free; only coef == 0 => d == 0 is
        normalised.  Every rational shares one zero coefficient."""
        x = object.__new__(cls)
        x._rat = rat
        if coef:
            x._coef, x._d = coef, d
        else:
            x._coef, x._d = _ZERO, 0
        return x

    # ------------------------------------------------------------ accessors

    @property
    def rational_part(self) -> Fraction:
        return self._rat

    @property
    def surd_coef(self) -> Fraction:
        return self._coef

    @property
    def radicand(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._coef == 0

    @classmethod
    def sqrt(cls, d: int) -> "ExactNumber":
        return cls(0, 1, d)

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self._rat

    def bit_size(self) -> int:
        parts = (
            self._rat.numerator,
            self._rat.denominator,
            self._coef.numerator,
            self._coef.denominator,
        )
        return max(abs(p).bit_length() for p in parts)

    # ------------------------------------------------------------ coercion

    @staticmethod
    def _coerce(value: Scalarish) -> "ExactNumber | None":
        if isinstance(value, ExactNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactNumber._make(Fraction(value), _ZERO, 0)
        return None

    def _join_d(self, other: "ExactNumber") -> int:
        if self._d and other._d and self._d != other._d:
            raise IncompatibleRadicands(
                f"sqrt({self._d}) and sqrt({other._d}) cannot be combined exactly"
            )
        return self._d or other._d

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: Scalarish) -> "ExactNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactNumber._make(
            self._rat + o._rat, self._coef + o._coef, self._join_d(o))

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "ExactNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExactNumber._make(
            self._rat - o._rat, self._coef - o._coef, self._join_d(o))

    def __rsub__(self, other: Scalarish) -> "ExactNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "ExactNumber":
        return ExactNumber._make(-self._rat, -self._coef, self._d)

    def __mul__(self, other: Scalarish) -> "ExactNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        rat = self._rat * o._rat + self._coef * o._coef * d
        coef = self._rat * o._coef + self._coef * o._rat
        return ExactNumber._make(rat, coef, d)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "ExactNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._rat == 0 and o._coef == 0:
            raise DivisionByZero("division by zero")
        d = self._join_d(o)
        if o._coef == 0:
            return ExactNumber._make(self._rat / o._rat, self._coef / o._rat, d)
        # Multiply by the conjugate; a^2 - b^2 d != 0 because sqrt(d) is irrational.
        denom = o._rat * o._rat - o._coef * o._coef * d
        rat = self._rat * o._rat - self._coef * o._coef * d
        coef = self._coef * o._rat - self._rat * o._coef
        return ExactNumber._make(rat / denom, coef / denom, d)

    def __rtruediv__(self, other: Scalarish) -> "ExactNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self) -> "ExactNumber":
        return -self if self.sign() < 0 else self

    # ------------------------------------------------------------ comparison

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, decided on integers."""
        a, b = self._rat, self._coef
        return _sign(a.numerator * b.denominator,
                     b.numerator * a.denominator, self._d)

    def _cmp(self, other: Scalarish) -> int:
        """Sign of self - other, decided on integers without building it.

        With self = p1/q1 + (r1/s1)*sqrt(d) and other = p2/q2 + (r2/s2)*sqrt(d),
        self - other = (A + B*sqrt(d)) / (q1*q2*s1*s2) where
        A = (p1*q2 - p2*q1)*s1*s2 and B = (r1*s2 - r2*s1)*q1*q2.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare ExactNumber with {type(other)!r}")
        a1, a2, d = self._rat, o._rat, self._join_d(o)
        p1, q1 = a1.numerator, a1.denominator
        p2, q2 = a2.numerator, a2.denominator
        if not d:
            t = p1 * q2 - p2 * q1
            return (t > 0) - (t < 0)
        b1, b2 = self._coef, o._coef
        r1, s1 = b1.numerator, b1.denominator
        r2, s2 = b2.numerator, b2.denominator
        return _sign((p1 * q2 - p2 * q1) * s1 * s2,
                     (r1 * s2 - r2 * s1) * q1 * q2, d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactNumber):
            return (self._rat == other._rat and self._coef == other._coef
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return not self._coef and self._rat == other
        return NotImplemented

    def __lt__(self, other: Scalarish) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Scalarish) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Scalarish) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Scalarish) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self._rat)
        return hash((self._rat, self._coef, self._d))

    # ------------------------------------------------------------ conversion

    def __float__(self) -> float:
        """The correctly rounded float.  Only for display and heuristics;
        decisions never use it."""
        if not self._coef:
            return float(self._rat)
        # sqrt(d) lies strictly between r / 2**g and (r + 1) / 2**g; a surd
        # is irrational, so with enough guard bits both ends of the value's
        # bracket round to the same float, which is then the value's
        g = 64
        while True:
            r = isqrt(self._d << 2 * g)
            lo = float(self._rat + self._coef * Fraction(r, 1 << g))
            if lo == float(self._rat + self._coef * Fraction(r + 1, 1 << g)):
                return lo
            g *= 2

    def __repr__(self) -> str:
        return f"ExactNumber({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def as_exact(x: Scalarish) -> ExactNumber:
    """x as an ExactNumber; TypeError for anything but an exact scalar."""
    v = ExactNumber._coerce(x)
    if v is None:
        raise TypeError(f"expected exact scalar, got {type(x)!r}")
    return v


def compare(a: Scalarish, b: Scalarish) -> int:
    """Exact three-way comparison: -1, 0 or 1."""
    return as_exact(a)._cmp(as_exact(b))


# ================================================================== balls

def _is_dyadic(x: Fraction) -> bool:
    den = x.denominator
    return den & (den - 1) == 0


def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2**-bits that is >= x."""
    scale = 1 << bits
    num = x.numerator * scale
    q, r = divmod(num, x.denominator)
    if r:
        q += 1
    return Fraction(q, scale)


def _dyadic_round(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    n = (2 * x.numerator * scale + x.denominator) // (2 * x.denominator)
    return Fraction(n, scale)


@record
class Ball:
    """A rigorous enclosure [center - radius, center + radius].

    Both fields are dyadic rationals, so sums and halvings stay exact and
    every containment test below is an exact comparison.
    """

    center: Fraction
    radius: Fraction

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if not (_is_dyadic(self.center) and _is_dyadic(self.radius)):
            raise ValueError("ball center and radius must be dyadic rationals")

    @property
    def lo(self) -> Fraction:
        return self.center - self.radius

    @property
    def hi(self) -> Fraction:
        return self.center + self.radius

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction) -> "Ball":
        lo = Fraction(lo)
        hi = Fraction(hi)
        if hi < lo:
            raise ValueError("empty ball")
        return Ball((lo + hi) / 2, (hi - lo) / 2)

    @staticmethod
    def point(x: Fraction | int) -> "Ball":
        return Ball(Fraction(x), Fraction(0))

    # ------------------------------------------------------------ queries

    def contains(self, x: Scalarish) -> bool:
        v = as_exact(x)
        return v >= self.lo and v <= self.hi

    def contains_ball(self, other: "Ball") -> bool:
        return other.lo >= self.lo and other.hi <= self.hi

    def overlaps(self, other: "Ball") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    def strictly_below(self, other: "Ball") -> bool:
        return self.hi < other.lo

    def strictly_above(self, other: "Ball") -> bool:
        return self.lo > other.hi

    # ------------------------------------------------------------ arithmetic

    def _coerce_ball(self, other: "Ball | Fraction | int") -> "Ball":
        if isinstance(other, Ball):
            return other
        return Ball(Fraction(other), Fraction(0))

    def __add__(self, other: "Ball | Fraction | int") -> "Ball":
        o = self._coerce_ball(other)
        return Ball(self.center + o.center, self.radius + o.radius)

    __radd__ = __add__

    def __sub__(self, other: "Ball | Fraction | int") -> "Ball":
        o = self._coerce_ball(other)
        return Ball(self.center - o.center, self.radius + o.radius)

    def __rsub__(self, other: "Ball | Fraction | int") -> "Ball":
        return self._coerce_ball(other) - self

    def __neg__(self) -> "Ball":
        return Ball(-self.center, self.radius)

    def scale(self, s: Fraction | int) -> "Ball":
        """Multiply by an exact dyadic scalar."""
        s = Fraction(s)
        if not _is_dyadic(s):
            raise ValueError("scale factor must be dyadic")
        return Ball(self.center * s, self.radius * abs(s))

    def __repr__(self) -> str:
        return f"Ball(center={self.center}, radius={self.radius})"


def to_ball(x: Scalarish, precision_bits: int) -> Ball:
    """A Ball containing x with radius <= 2**-precision_bits.

    Exact dyadic inputs come back with radius 0.
    """
    v = as_exact(x)
    if precision_bits < 0:
        raise ValueError("precision_bits must be nonnegative")
    m = precision_bits + 3
    if v.is_rational:
        fr = v.rational_part
        if _is_dyadic(fr) and fr.denominator <= (1 << m):
            return Ball(fr, Fraction(0))
        center = _dyadic_round(fr, m)
        return Ball(center, Fraction(1, 1 << (m - 1)))
    coef = v.surd_coef
    cb = (abs(coef.numerator) // coef.denominator).bit_length() + 1
    g = m + cb
    root_lo_num = isqrt(v.radicand << (2 * g))
    s_lo = Fraction(root_lo_num, 1 << g)
    s_hi = Fraction(root_lo_num + 1, 1 << g)
    if coef > 0:
        lo = v.rational_part + coef * s_lo
        hi = v.rational_part + coef * s_hi
    else:
        lo = v.rational_part + coef * s_hi
        hi = v.rational_part + coef * s_lo
    center = _dyadic_round((lo + hi) / 2, m)
    worst = max(hi - center, center - lo)
    return Ball(center, dyadic_ceil(worst, m))


# ================================================================== text

# The grammar's digits and spaces are ASCII: without re.ASCII, \d and \s
# would take other scripts' digits and spaces, which int() accepts too
_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+))?\s*$", re.ASCII)
_SURD_RE = re.compile(
    r"^\s*\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)"
    r"\s*/\s*(\d+)\s*$",
    re.ASCII,
)


def parse_scalar(text: str) -> ExactNumber:
    """Parse the canonical scalar grammar: "p/q" or "(a+b*sqrt(d))/c"."""
    m = _RATIONAL_RE.match(text)
    if m:
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) else 1
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return ExactNumber(Fraction(p, q))
    m = _SURD_RE.match(text)
    if m:
        a = int(m.group(1))
        b = int(m.group(3)) * (1 if m.group(2) == "+" else -1)
        d = int(m.group(4))
        c = int(m.group(5))
        if c == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return ExactNumber(Fraction(a, c), Fraction(b, c), d)
    raise ValueError(f"not a valid scalar: {text!r}")


def format_scalar(x: Scalarish) -> str:
    """Canonical text for a scalar; parse_scalar round-trips it bit-exactly."""
    v = as_exact(x)
    if v.is_rational:
        fr = v.rational_part
        return f"{fr.numerator}/{fr.denominator}"
    # Common denominator, then strip the overall gcd.
    ra, rc = v.rational_part, v.surd_coef
    c = lcm(ra.denominator, rc.denominator)
    a = ra.numerator * (c // ra.denominator)
    b = rc.numerator * (c // rc.denominator)
    g = gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    sign = "+" if b >= 0 else "-"
    return f"({a}{sign}{abs(b)}*sqrt({v.radicand}))/{c}"
