"""Injective piecewise contractions of [0, 1) and periodic-orbit certificates.

A map here is affine on each half-open piece [x_{i-1}, x_i) with slope of
absolute value strictly below 1.  Unlike an interval exchange the images need
not tile [0, 1); they only have to stay inside it and be pairwise disjoint.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from ._record import record
from .errors import (
    BadPartition,
    CodingUndecidable,
    DenominatorBlowup,
    ImageEscapes,
    InsufficientVisits,
    MapFormatError,
    NotContracting,
    NotInjective,
    OutOfDomain,
    PeriodicOrbit,
)
from .intervals import Interval
from .numeric import (
    Ball,
    ExactNumber,
    Scalarish,
    as_exact,
    format_scalar,
    parse_scalar,
    to_ball,
)

DEFAULT_BIT_BUDGET = 4096


@record
class PiecewiseContraction:
    """A validated injective piecewise contraction; construct via new_pc."""

    breakpoints: tuple[ExactNumber, ...]
    slopes: tuple[ExactNumber, ...]
    intercepts: tuple[ExactNumber, ...]
    images: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.slopes)

    def piece_interval(self, i: int) -> Interval:
        return Interval(self.breakpoints[i - 1], self.breakpoints[i])

    def step(self, x: Scalarish) -> tuple[int, ExactNumber]:
        """(index of the piece containing x, f(x)): one exact orbit step."""
        v = as_exact(x)
        i = bisect_right(self.breakpoints, v)
        if not 1 <= i <= self.n:
            raise OutOfDomain(f"{v} outside [0, 1)")
        return i, self.slopes[i - 1] * v + self.intercepts[i - 1]

    def eval(self, x: Scalarish) -> ExactNumber:
        return self.step(x)[1]

    def to_json_dict(self) -> dict:
        return {
            "type": "pc",
            "breakpoints": [format_scalar(b) for b in self.breakpoints],
            "slopes": [format_scalar(s) for s in self.slopes],
            "intercepts": [format_scalar(c) for c in self.intercepts],
        }


def new_pc(
    breakpoints: Sequence[Scalarish],
    slopes: Sequence[Scalarish],
    intercepts: Sequence[Scalarish],
) -> PiecewiseContraction:
    """Validate and build; raises BadPartition, NotContracting, NotInjective,
    or ImageEscapes."""
    bps = tuple(as_exact(b) for b in breakpoints)
    sls = tuple(as_exact(s) for s in slopes)
    ics = tuple(as_exact(c) for c in intercepts)
    n = len(sls)
    if n < 1 or len(bps) != n + 1 or len(ics) != n:
        raise BadPartition("need n+1 breakpoints, n slopes, n intercepts")
    if bps[0] != 0 or bps[-1] != 1:
        raise BadPartition("breakpoints must run from 0 to 1")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise BadPartition("breakpoints must be strictly increasing")
    images = []
    for i in range(n):
        s = sls[i]
        if s == 0:
            raise NotInjective(f"piece {i + 1} has slope 0")
        if not abs(s) < 1:
            raise NotContracting(f"piece {i + 1} slope {s} has |slope| >= 1")
        lo_val = s * bps[i] + ics[i]
        hi_val = s * bps[i + 1] + ics[i]
        if s > 0:
            img = Interval(lo_val, hi_val, lo_closed=True, hi_closed=False)
        else:
            img = Interval(hi_val, lo_val, lo_closed=False, hi_closed=True)
        below = img.lo < 0
        above = img.hi > 1 or (img.hi == 1 and img.hi_closed)
        if below or above:
            raise ImageEscapes(f"piece {i + 1} image {img} leaves [0, 1)")
        images.append(img)
    for i in range(n):
        for j in range(i + 1, n):
            if not images[i].is_disjoint(images[j]):
                raise NotInjective(f"images of pieces {i + 1} and {j + 1} overlap")
    return PiecewiseContraction(bps, sls, ics, tuple(images))


def coding(
    f: PiecewiseContraction,
    x: Scalarish,
    length: int,
    bit_budget: int = DEFAULT_BIT_BUDGET,
    approximate: bool = False,
    precision_bits: int = 192,
):
    """Itinerary of x under f for the given number of steps.

    Exact mode iterates in exact arithmetic and raises DenominatorBlowup once
    a point's representation exceeds bit_budget bits.  Approximate mode tracks
    the orbit as a shrinking-slope ball instead; it never blows up but raises
    CodingUndecidable at the first step where the ball straddles a breakpoint.
    Both modes raise OutOfDomain when x lies outside [0, 1).
    """
    from .words import SymbolicWord

    if length < 1:
        raise ValueError("length must be >= 1")
    if approximate:
        letters, _ = _orbit(f, x, length, 0, precision_bits)
        return SymbolicWord(letters, f.n, "pc coding (ball)")
    letters, _ = _orbit(f, x, length, bit_budget)
    return SymbolicWord(letters, f.n, "pc coding")


def _fraction_bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _orbit(
    f: PiecewiseContraction, x: Scalarish, length: int, bit_budget: int,
    precision_bits: Optional[int] = None, floats: Optional[list] = None,
) -> tuple[list[int], bool]:
    """The first length letters of the orbit of x, and whether a ball
    carried part of it.

    The orbit is exact while it steps from points of at most bit_budget
    bits; rational maps step on their Fractions, others on ExactNumbers.
    At the first larger point it raises DenominatorBlowup(step, bits,
    bit_budget) when precision_bits is None, and otherwise continues as an
    outward-rounded ball of that precision, raising CodingUndecidable(step)
    where the ball first straddles a breakpoint; bit_budget 0 starts in the
    ball.  floats, when given, receives every point stepped from as a float
    (a ball's centre).  Raises OutOfDomain when x lies outside [0, 1); the
    images of f stay inside, so one check covers the whole orbit.
    """
    point = as_exact(x)
    if not 0 <= point < 1:
        raise OutOfDomain(f"{point} outside [0, 1)")
    params = (f.breakpoints, f.slopes, f.intercepts)
    if point.is_rational and all(v.is_rational for vs in params for v in vs):
        bps, sls, ics = ([v.to_fraction() for v in vs] for vs in params)
        point, bits = point.to_fraction(), _fraction_bits
    else:
        (bps, sls, ics), bits = params, ExactNumber.bit_size
    n = f.n
    letters: list[int] = []
    while len(letters) < length and bits(point) <= bit_budget:
        i = bisect_right(bps, point, 1, n)
        if floats is not None:
            floats.append(float(point))
        letters.append(i)
        point = sls[i - 1] * point + ics[i - 1]
    k = len(letters)
    if k == length:
        return letters, False
    if precision_bits is None:
        raise DenominatorBlowup(k, bits(point), bit_budget)
    letters += ball_orbit(
        to_ball(point, precision_bits), bps, bps,
        [to_ball(s, precision_bits) for s in f.slopes],
        [to_ball(c, precision_bits) for c in f.intercepts],
        max(precision_bits + 8, 16), length - k, floats,
    )
    if len(letters) < length:
        raise CodingUndecidable(len(letters))
    return letters, True


def _exponent(*values: Fraction) -> int:
    """The least e that puts every one of the dyadic values on the 2**-e
    lattice."""
    return max(q.denominator.bit_length() - 1 for q in values)


def _lattice(q: Fraction, e: int) -> int:
    """q * 2**e, which must be an integer."""
    num, rem = divmod(q.numerator << e, q.denominator)
    if rem:
        raise ValueError(f"{q} is not a multiple of 2**-{e}")
    return num


def _ceil_lattice(x: Scalarish, e: int) -> int:
    """ceil(x * 2**e), exactly: to_ball's bracket (an isqrt one for surds)
    is at most 2**-e wide, which leaves two candidates, and one exact
    comparison picks between them."""
    v = as_exact(x)
    lo = math.ceil(to_ball(v, e + 1).lo * (1 << e))
    return lo if v <= Fraction(lo, 1 << e) else lo + 1


def ball_orbit(
    ball: Ball, lower_edges: Sequence, upper_edges: Sequence,
    slopes: Sequence[Ball], intercepts: Sequence[Ball], grid: Optional[int],
    length: int, floats: Optional[list] = None,
) -> list[int]:
    """The letters of up to length steps of a ball orbit, ending early at
    the first ball that straddles a breakpoint.

    Breakpoint i is known to lie in [lower_edges[i], upper_edges[i]], and
    both edge lists are nondecreasing; exact breakpoints pass one list as
    both.  A ball lies in piece i when upper_edges[i-1] <= its lower end
    and its upper end < lower_edges[i]; piece 1's floor is exactly 0, so
    only its upper edge matters.  A step from piece i gives a ball holding
    s*x + c for every s in slopes[i-1], x in the ball and c in
    intercepts[i-1].  floats, when given, receives the centre of every
    ball stepped from, correctly rounded.

    The orbit runs on integers over 2**E.  With grid, E is grid: every
    input ball must lie on the 2**-grid lattice (edges may be any exact
    scalars and enter as ceil(edge * 2**grid)), and each product's centre
    is rounded down onto the lattice with the radius grown to cover it,
    which keeps long orbits at bounded size.  Without, every step is exact:
    balls and edges must be dyadic Fractions, and E grows by k at each
    slope over 2**k.
    """
    balls = [ball, *intercepts]
    if grid is None:
        e = _exponent(*lower_edges, *upper_edges,
                      *(v for b in balls for v in (b.center, b.radius)))
        edge = _lattice
        slope_exps = [_exponent(s.center, s.radius) for s in slopes]
    else:
        e, edge = grid, _ceil_lattice
        slope_exps = [grid] * len(slopes)
    lower = [edge(v, e) for v in lower_edges]
    upper = [edge(v, e) for v in upper_edges]
    steps = [(_lattice(s.center, k), _lattice(s.radius, k), k)
             for s, k in zip(slopes, slope_exps)]
    (c, r), *ics = [(_lattice(b.center, e), _lattice(b.radius, e)) for b in balls]
    top = len(lower)
    shift = 0  # the orbit's exponent E is e + shift
    letters: list[int] = []
    for _ in range(length):
        hi = (c + r) >> shift
        i = bisect_right(lower, hi, 1)
        if i == top or (i > 1 and upper[i - 1] > (c - r) >> shift):
            break
        letters.append(i)
        if floats is not None:
            floats.append(c / (1 << (e + shift)))
        sc, sr, k = steps[i - 1]
        ic, ir = ics[i - 1]
        p = sc * c
        r = abs(sc) * r + abs(c) * sr + sr * r
        if grid is None:
            shift += k
            c = p + (ic << shift)
            r += ir << shift
        else:
            # floor the centre; the radius covers the remainder, rounded up
            c = p >> k
            r = -(((c << k) - p - r) >> k) + ir
            c += ic
    return letters


# ------------------------------------------------------- periodic certificates


def _affine_preimage(a: ExactNumber, c: ExactNumber, iv: Interval) -> Interval:
    """Preimage of iv under x -> a*x + c (a nonzero)."""
    u = (iv.lo - c) / a
    v = (iv.hi - c) / a
    if a > 0:
        return Interval(u, v, iv.lo_closed, iv.hi_closed)
    return Interval(v, u, iv.hi_closed, iv.lo_closed)


def _compose_cycle(f: PiecewiseContraction | _DyadicPc, word: Sequence[int]):
    """Cylinder of the word and the full-cycle affine map.

    Returns (C, a, c) where C is the set of x whose first len(word) letters
    are exactly word, and f^p restricted to C is x -> a*x + c.  Returns None
    when the cylinder is empty.  When f is a contraction's _DyadicPc the
    same data comes back on scaled integers (_DyadicPc.compose_cycle).
    """
    if isinstance(f, _DyadicPc):
        return f.compose_cycle(word)
    C = f.piece_interval(word[0])
    a = ExactNumber(1)
    c = ExactNumber(0)
    for m in range(1, len(word)):
        s = f.slopes[word[m - 1] - 1]
        b = f.intercepts[word[m - 1] - 1]
        a = s * a
        c = s * c + b
        C = C.intersect(_affine_preimage(a, c, f.piece_interval(word[m])))
        if C is None:
            return None
    s = f.slopes[word[-1] - 1]
    b = f.intercepts[word[-1] - 1]
    return C, s * a, s * c + b


def _self_mapping_cycle(f: PiecewiseContraction | _DyadicPc, word: tuple[int, ...]):
    """(C, a, c, fixed) for the word's cylinder C and cycle x -> a*x + c
    when the cycle maps C into itself, else None; fixed is the cycle's
    fixed point, or None when it lies outside C.  f may be a contraction
    or its _DyadicPc, which gives the same answer."""
    built = _compose_cycle(f, word)
    if built is None:
        return None
    if isinstance(f, _DyadicPc):
        return f.self_mapping(*built)
    if not _cycle_contracts(*built):
        return None
    C, a, c = built
    fixed = c / (ExactNumber(1) - a)
    return C, a, c, (fixed if C.contains(fixed) else None)


def _dyadic_scale(groups: Sequence[Sequence], slopes: Sequence):
    """(e, scaled groups, steps) when every value of the groups is a
    rational over a power of two and every slope is +-2**-k with k >= 1,
    else None.

    Each value v comes back as the integer v * 2**e, e being the largest
    exponent among all the values, and slope j as steps[j] = (sign, k).
    """
    fracs = []
    for v in (as_exact(v) for vs in groups for v in vs):
        den = v.rational_part.denominator
        if not v.is_rational or den & (den - 1):
            return None
        fracs.append(v.rational_part)
    steps = []
    for s in map(as_exact, slopes):
        num, den = s.rational_part.numerator, s.rational_part.denominator
        if not s.is_rational or abs(num) != 1 or den == 1 or den & (den - 1):
            return None
        steps.append((num, _exponent(s.rational_part)))
    e = _exponent(*fracs)
    nums = iter(_lattice(q, e) for q in fracs)
    return e, [[next(nums) for _ in vs] for vs in groups], steps


class _DyadicPc:
    """The certificate search's word kernel for a contraction whose
    parameters are dyadic and whose slopes are +-2**-k, on scaled integers.

    Breakpoint i is bps[i] / 2**e and piece i maps x to
    sign * x / 2**k + ics[i-1] / 2**e for steps[i-1] = (sign, k).  A
    preimage under a composed cycle is a left shift, so cylinder ends stay
    over 2**e; a word whose shifts sum to K has its cycle intercept over
    2**(e + K).  Only self-mapping words leave the kernel, as the Interval
    and ExactNumber objects of the exact path.
    """

    __slots__ = ("e", "bps", "ics", "steps")

    def __init__(self, e: int, bps: list, ics: list, steps: list):
        self.e, self.bps, self.ics, self.steps = e, bps, ics, steps

    @classmethod
    def of(cls, f: PiecewiseContraction) -> Optional["_DyadicPc"]:
        scaled = _dyadic_scale((f.breakpoints, f.intercepts), f.slopes)
        if scaled is None:
            return None
        e, (bps, ics), steps = scaled
        return cls(e, bps, ics, steps)

    def compose_cycle(self, word: Sequence[int]):
        """((lo, lo_closed, hi, hi_closed), sign, K, c): the word's cylinder
        with ends over 2**e and its cycle x -> sign * x / 2**K +
        c / 2**(e + K), or None when the cylinder is empty."""
        bps, ics, steps = self.bps, self.ics, self.steps
        lo, lo_closed, hi, hi_closed = bps[word[0] - 1], True, bps[word[0]], False
        sign, shift, c = 1, 0, 0
        for prev, w in zip(word, word[1:]):
            s, k = steps[prev - 1]
            sign *= s
            shift += k
            c = s * c + (ics[prev - 1] << shift)
            # preimage of piece w, intersected as Interval.intersect does
            u = (bps[w - 1] << shift) - c
            v = (bps[w] << shift) - c
            if sign > 0:
                plo, plo_closed, phi, phi_closed = u, True, v, False
            else:
                plo, plo_closed, phi, phi_closed = -v, False, -u, True
            if plo > lo:
                lo, lo_closed = plo, plo_closed
            elif plo == lo:
                lo_closed = lo_closed and plo_closed
            if phi < hi:
                hi, hi_closed = phi, phi_closed
            elif phi == hi:
                hi_closed = hi_closed and phi_closed
            if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
                return None
        s, k = steps[word[-1] - 1]
        shift += k
        c = s * c + (ics[word[-1] - 1] << shift)
        return (lo, lo_closed, hi, hi_closed), sign * s, shift, c

    def self_mapping(self, C: tuple, sign: int, shift: int, c: int):
        """_self_mapping_cycle's answer from compose_cycle's data."""
        lo, lo_closed, hi, hi_closed = C
        # the image of C over 2**(e + shift), contained as in _cycle_contracts
        if sign > 0:
            img = (lo + c, lo_closed, hi + c, hi_closed)
        else:
            img = (c - hi, hi_closed, c - lo, lo_closed)
        lo_k, hi_k = lo << shift, hi << shift
        if img[0] < lo_k or (img[0] == lo_k and img[1] and not lo_closed):
            return None
        if img[2] > hi_k or (img[2] == hi_k and img[3] and not hi_closed):
            return None
        # the fixed point is c / (2**e * den): compare c with den times the ends
        den = (1 << shift) - sign
        inside = not (
            c < lo * den or c > hi * den
            or (c == lo * den and not lo_closed)
            or (c == hi * den and not hi_closed)
        )
        scale = 1 << self.e
        return (
            Interval(Fraction(lo, scale), Fraction(hi, scale), lo_closed, hi_closed),
            ExactNumber(Fraction(sign, 1 << shift)),
            ExactNumber(Fraction(c, scale << shift)),
            ExactNumber(Fraction(c, scale * den)) if inside else None,
        )


def _cycle_contracts(C: Interval, a: ExactNumber, c: ExactNumber) -> bool:
    """True when the cycle maps the cylinder into itself as a point set.

    Containment need not be strict: endpoint flags carry the half-open
    bookkeeping, so equality at a closed end of C is sound (every point of
    C still re-enters C and the period word repeats).  The common case is a
    fixed point sitting exactly at 0."""
    lo = a * C.lo + c
    hi = a * C.hi + c
    if a > 0:
        img = Interval(lo, hi, C.lo_closed, C.hi_closed)
    else:
        img = Interval(hi, lo, C.hi_closed, C.lo_closed)
    return C.contains_interval(img)


@record
class PeriodicCertificate:
    """Machine-checkable proof that the coding of start is q-preperiodic with
    period word period: f^p maps the cylinder of the period word into itself
    (as a point set, endpoint flags included) and f^q(start) lands inside
    that cylinder."""

    start: ExactNumber
    q: int
    p: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    cylinder: Interval
    cycle_slope: ExactNumber
    cycle_intercept: ExactNumber
    fixed_point: ExactNumber

    def eventual_word(self, length: int):
        """First letters of the certified infinite coding."""
        from .words import SymbolicWord

        letters = list(self.preperiod)
        while len(letters) < length:
            letters.extend(self.period)
        alpha = max(max(self.preperiod, default=1), max(self.period))
        return SymbolicWord(letters[:length], alpha, "certified periodic")

    def to_json_dict(self) -> dict:
        return {
            "type": "periodic-certificate",
            "start": format_scalar(self.start),
            "q": self.q,
            "p": self.p,
            "preperiod": list(self.preperiod),
            "period": list(self.period),
            "cylinder": {
                "lo": format_scalar(self.cylinder.lo),
                "hi": format_scalar(self.cylinder.hi),
                "lo_closed": self.cylinder.lo_closed,
                "hi_closed": self.cylinder.hi_closed,
            },
            "cycle_slope": format_scalar(self.cycle_slope),
            "cycle_intercept": format_scalar(self.cycle_intercept),
            "fixed_point": format_scalar(self.fixed_point),
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "PeriodicCertificate":
        """The certificate to_json_dict wrote.  MapFormatError unless data has
        exactly its fields and tag, the cylinder exactly its four, scalars
        are exact scalar strings, q, p and the letters JSON integers and the
        endpoint flags JSON booleans (JSON true is not the integer 1, nor 1
        the flag true)."""
        from .mapio import _scalar

        if not isinstance(data, dict) or set(data) != _CERT_KEYS:
            raise MapFormatError(
                f"a certificate must have exactly the fields {sorted(_CERT_KEYS)}")
        if data["type"] != "periodic-certificate":
            raise MapFormatError(f"unknown certificate type {data['type']!r}")
        cyl = data["cylinder"]
        if not isinstance(cyl, dict) or set(cyl) != _CYLINDER_KEYS:
            raise MapFormatError(
                f"the cylinder must have exactly the fields {sorted(_CYLINDER_KEYS)}")
        q, p, pre, per = data["q"], data["p"], data["preperiod"], data["period"]
        if not (isinstance(pre, list) and isinstance(per, list)) or any(
            type(v) is not int for v in (q, p, *pre, *per)
        ):
            raise MapFormatError("q, p, preperiod and period must hold integers")
        if any(type(cyl[k]) is not bool for k in ("lo_closed", "hi_closed")):
            raise MapFormatError("cylinder flags must be booleans")
        return cls(
            start=_scalar(data["start"], "start"),
            q=q,
            p=p,
            preperiod=tuple(pre),
            period=tuple(per),
            cylinder=Interval(
                _scalar(cyl["lo"], "lo"),
                _scalar(cyl["hi"], "hi"),
                cyl["lo_closed"],
                cyl["hi_closed"],
            ),
            cycle_slope=_scalar(data["cycle_slope"], "cycle_slope"),
            cycle_intercept=_scalar(data["cycle_intercept"], "cycle_intercept"),
            fixed_point=_scalar(data["fixed_point"], "fixed_point"),
        )


_CERT_KEYS = {"type", "start", "q", "p", "preperiod", "period", "cylinder",
              "cycle_slope", "cycle_intercept", "fixed_point"}
_CYLINDER_KEYS = {"lo", "hi", "lo_closed", "hi_closed"}


def _float_orbit(f: PiecewiseContraction, x0: float, length: int):
    """(points, letters) of the float orbit; cheap candidate generator only."""
    bps = [float(b) for b in f.breakpoints]
    sls = [float(s) for s in f.slopes]
    ics = [float(c) for c in f.intercepts]
    n = f.n
    pts = [0.0] * length
    lets = [0] * length
    x = x0
    for k in range(length):
        i = bisect_right(bps, x, 1, n)
        pts[k] = x
        lets[k] = i
        x = sls[i - 1] * x + ics[i - 1]
        if x < 0.0:
            x = 0.0
        elif x >= 1.0:
            x = math.nextafter(1.0, 0.0)
    return pts, lets


def _detection_candidates(f: PiecewiseContraction, x: ExactNumber, detect_len: int):
    """Candidate (q, p) pairs from the float orbit, cheapest-first, and the
    float orbit's letters."""
    from .words import SymbolicWord, detect_eventual_period

    pts, lets = _float_orbit(f, float(x), detect_len)
    candidates: list[tuple[int, int]] = []
    seen_at: dict[float, int] = {}
    for k, v in enumerate(pts):
        key = round(v, 10)
        if key in seen_at:
            q0, p0 = seen_at[key], k - seen_at[key]
            candidates.append((q0, p0))
            break
        seen_at[key] = k
    if len(lets) >= 8:
        word = SymbolicWord(lets, f.n, "float detection")
        hit = detect_eventual_period(word)
        if hit is not None:
            candidates.append(hit)
    out = []
    for q, p in candidates:
        for pair in ((q, p), (q, 2 * p)):
            if pair not in out:
                out.append(pair)
    return sorted(out), lets


def _enclosed_representative(f) -> Optional[PiecewiseContraction]:
    """The exact representative when f carries parameter enclosures (as
    construct.ConstructedPc does), else None.  Duck-typed on the .pc and
    .intercept_balls attributes, so any such carrier qualifies."""
    wrapped = getattr(f, "pc", None)
    if wrapped is not None and hasattr(f, "intercept_balls"):
        return wrapped
    return None


def certify_periodic(
    f,
    x: Scalarish,
    budget: int = 4096,
    bit_budget: int = 65536,
) -> Optional[PeriodicCertificate]:
    """Certify that the coding of x is ultimately periodic, or return None.

    Detection runs in floating point over the first `budget` orbit steps;
    every accepted certificate is verified in exact arithmetic (the cycle
    maps the cylinder into itself as a point set, containment need not be
    strict where endpoint flags allow it; the orbit enters the cylinder;
    the cycle's fixed point lies in it), so a wrong float hint can only
    cost time.  None means inconclusive, never a proof of aperiodicity.

    f may also be a constructed contraction carrying parameter enclosures
    (see construct.build_pc_from_iet).  Certificates are then additionally
    required to hold for every map inside the enclosures; a cycle that is
    an artifact of truncating the true parameters has containment margins
    far below the enclosure radii and is rejected, so the answer speaks
    for the true map, not for its representative.  Such a carrier is
    searched when its ball ends are dyadic and its slopes are +-2**-k, as
    for every build_pc_from_iet result; for any other the answer is None.
    """
    rep = _enclosed_representative(f)
    if rep is None:
        return _certify_exact(f, x, budget, bit_budget)
    from .construct import _Family, robust_certificate

    # one family, and so one word-half memo, for the whole search
    family = _Family.of(f)
    if family is None:
        return None
    return _certify_exact(
        rep, x, budget, bit_budget,
        _accept=lambda cert: robust_certificate(f, cert, _family=family),
    )


def _certify_exact(
    f: PiecewiseContraction,
    x: Scalarish,
    budget: int,
    bit_budget: int,
    _accept=None,
) -> Optional[PeriodicCertificate]:
    x0 = as_exact(x)
    candidates, float_letters = _detection_candidates(f, x0, budget)
    if not candidates:
        return None

    # orbit[t] is f^t(x0) and letters[t] its piece, for t < len(letters)
    orbit = [x0]
    letters: list[int] = []

    def orbit_point(m: int) -> ExactNumber:
        while len(orbit) <= m:
            point = orbit[-1]
            if point.bit_size() > bit_budget:
                raise DenominatorBlowup(len(orbit) - 1, point.bit_size(), bit_budget)
            i, point = f.step(point)
            letters.append(i)
            orbit.append(point)
        return orbit[m]

    # Per-search memo, period word -> (C, a, c, fixed point or None when it
    # lies outside C) for a nonempty self-mapping cylinder, else None.  The
    # m loop below meets each rotation of a period word up to three times,
    # and overlapping candidates meet the same rotations again.  Dyadic maps
    # fill it from their scaled-integer kernel.
    cycles: dict[tuple[int, ...], Optional[tuple]] = {}
    word_map = _DyadicPc.of(f) or f

    for q_hint, p in candidates:
        if q_hint + 2 * p + 1 > budget:
            continue
        base = tuple(float_letters[q_hint : q_hint + p])
        for m in range(max(0, q_hint - p), q_hint + 2 * p + 1):
            shift = (m - q_hint) % p
            word = base[shift:] + base[:shift]
            if word not in cycles:
                cycles[word] = _self_mapping_cycle(word_map, word)
            cycle = cycles[word]
            if cycle is None:
                continue
            C, a, c, fixed = cycle
            if not C.contains(orbit_point(m)) or fixed is None:
                continue
            cert = PeriodicCertificate(
                start=x0,
                q=m,
                p=p,
                preperiod=tuple(letters[:m]),
                period=word,
                cylinder=C,
                cycle_slope=a,
                cycle_intercept=c,
                fixed_point=fixed,
            )
            if _accept is None or _accept(cert):
                return cert
    return None


def check_certificate(f: PiecewiseContraction, cert: PeriodicCertificate) -> bool:
    """Re-derive every claim of the certificate from f alone."""
    if cert.p < 1 or cert.q < 0 or len(cert.period) != cert.p:
        return False
    if len(cert.preperiod) != cert.q:
        return False
    if any(not 1 <= w <= f.n for w in cert.period + cert.preperiod):
        return False
    cycle = _self_mapping_cycle(f, cert.period)
    if cycle is None:
        return False
    C, a, c, fixed = cycle
    if (C.lo, C.hi, C.lo_closed, C.hi_closed) != (
        cert.cylinder.lo,
        cert.cylinder.hi,
        cert.cylinder.lo_closed,
        cert.cylinder.hi_closed,
    ):
        return False
    if a != cert.cycle_slope or c != cert.cycle_intercept:
        return False
    if fixed is None or cert.fixed_point != fixed:
        return False
    point = cert.start
    for m in range(cert.q):
        try:
            i, point = f.step(point)
        except OutOfDomain:
            return False
        if i != cert.preperiod[m]:
            return False
    return C.contains(point)


# ------------------------------------------------------------ empirical factor


@record
class EmpiricalFactor:
    """Candidate semiconjugacy data read off one long orbit.

    h_grid samples the empirical distribution function of the orbit on a
    uniform grid; the factor candidate sends each visited piece
    [x_{i-1}, x_i) to a translation by translations_hat[i].  residual is
    the worst observed violation of h(f(s)) = h(s) + translation over the
    kept pieces.  approximate marks orbits that outgrew the exact bit
    budget and were continued in outward-rounded ball arithmetic; their
    letters stay certified, only the sampled points are ball centres.
    """

    orbit_len: int
    visit_counts: tuple[int, ...]
    kept_pieces: tuple[int, ...]
    breakpoints_hat: tuple[float, ...]
    translations_hat: dict[int, float]
    residual: float
    h_grid: tuple[float, ...]
    approximate: bool


def empirical_factor(
    f,
    x: Scalarish,
    m: int = 20000,
    grid_size: int = 512,
    bit_budget: int = 1 << 17,
    precision_bits: int = 192,
    burn_in: int = 64,
) -> EmpiricalFactor:
    """Estimate a translation structure for f from the orbit of x.

    f may be a plain contraction or a constructed one carrying parameter
    enclosures; statistics always follow the exact representative orbit.
    The m samples start at f^burn_in(x): after burn_in steps the orbit is
    within lambda^burn_in of its omega-limit, so the discarded head only
    smears the distribution function with transient mass.
    Raises PeriodicOrbit when the coding of x is certifiably ultimately
    periodic (a finite orbit closure supports no useful statistics),
    CodingUndecidable when the ball continuation past bit_budget cannot
    certify a letter, InsufficientVisits when no piece collects at least
    log2(m) visits, and OutOfDomain when x lies outside [0, 1).
    """
    import statistics
    from array import array

    if m < 1000:
        raise ValueError("m must be >= 1000")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rep = _enclosed_representative(f) or f
    x0 = as_exact(x)
    cert = certify_periodic(f, x0)
    if cert is not None:
        raise PeriodicOrbit(
            f"coding is ultimately periodic (q={cert.q}, p={cert.p})"
        )
    # a float orbit would truncate the parameters to 53 bits, and near a
    # rotation it locks onto an attractor whose period grows with precision
    pts = array("d")
    lets, approximate = _orbit(
        rep, x0, burn_in + m + 1, bit_budget, precision_bits, pts
    )
    orbit = pts[burn_in:]
    letters = lets[burn_in:]
    del pts, lets
    sample = array("d", sorted(orbit[:m]))
    H = array("d", (bisect_right(sample, v) / m for v in orbit))

    counts = [letters[:m].count(i) for i in range(1, rep.n + 1)]
    threshold = math.log2(m)
    kept = tuple(i for i in range(1, rep.n + 1) if counts[i - 1] >= threshold)
    if not kept:
        raise InsufficientVisits(
            f"no piece reached {threshold:.1f} visits in {m} steps"
        )

    # h at a breakpoint counts samples to its left, which the exact letters
    # already know; float comparisons would misplace samples when the
    # attractor has structure below double precision
    bps_hat = (0.0, *(c / m for c in accumulate(counts)))
    # i * step with the exact right end: i / grid_size can differ in the last bit
    grid = [i * (1.0 / grid_size) for i in range(grid_size)] + [1.0]
    h_grid = tuple(bisect_right(sample, v) / m for v in grid)
    jumps_of = {i: array("d") for i in kept}
    for i, a, b in zip(letters, H, H[1:]):
        if i in jumps_of:
            jumps_of[i].append(b - a)
    translations: dict[int, float] = {}
    residual = 0.0
    for i, jumps in jumps_of.items():
        b_hat = statistics.median(jumps)
        translations[i] = b_hat
        residual = max(residual, max(abs(j - b_hat) for j in jumps))
    return EmpiricalFactor(
        orbit_len=m,
        visit_counts=tuple(counts),
        kept_pieces=kept,
        breakpoints_hat=bps_hat,
        translations_hat=translations,
        residual=residual,
        h_grid=h_grid,
        approximate=approximate,
    )
