"""Exact scalar and ball arithmetic.

The scalar type must behave like the field Q(sqrt(d)) restricted to a single
radicand per value, and balls must be genuine enclosures: every sampled
member of the operand intervals must land inside the result interval.
"""

import decimal
import timeit
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietpc import (
    Ball,
    DivisionByZero,
    ExactNumber,
    IncompatibleRadicands,
    compare,
    format_scalar,
    parse_scalar,
    to_ball,
)
from ietpc.numeric import RADICAND_BITS, _square_free, dyadic_ceil

from cmp_reference import fraction_sign, subtraction_cmp

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=400)
radicands = st.sampled_from([2, 3, 5, 7])


@st.composite
def exact_numbers(draw, d=None):
    rat = draw(fracs)
    if d is None:
        d = draw(st.sampled_from([0, 2, 3, 5, 7]))
    coef = draw(fracs) if d else Fraction(0)
    return ExactNumber(rat, coef, d)


@st.composite
def exact_pairs(draw):
    """Two scalars sharing a radicand, so every ring operation is defined."""
    d = draw(st.sampled_from([0, 2, 3, 5, 7]))
    return draw(exact_numbers(d=d)), draw(exact_numbers(d=d))


@st.composite
def exact_triples(draw):
    d = draw(st.sampled_from([0, 2, 3, 5, 7]))
    return tuple(draw(exact_numbers(d=d)) for _ in range(3))


# ------------------------------------------------------------- ring laws


@given(exact_pairs())
def test_add_mul_commute(pair):
    a, b = pair
    assert a + b == b + a
    assert a * b == b * a


@given(exact_triples())
def test_associativity_distributivity(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(exact_numbers())
def test_additive_inverse(a):
    assert a - a == ExactNumber(0)
    assert a + (-a) == ExactNumber(0)
    assert -(-a) == a


@given(exact_pairs())
def test_division_inverts_multiplication(pair):
    a, b = pair
    if b == 0:
        with pytest.raises(DivisionByZero):
            a / b
    else:
        assert (a / b) * b == a


@given(fracs, fracs, radicands)
def test_conjugate_norm_is_rational(rat, coef, d):
    x = ExactNumber(rat, coef, d)
    conj = ExactNumber(rat, -coef, d)
    prod = x * conj
    assert prod.is_rational
    assert prod.to_fraction() == rat * rat - coef * coef * d


def test_radicand_normalization():
    # sqrt(8) = 2*sqrt(2), sqrt(4) = 2, sqrt(45) = 3*sqrt(5)
    assert ExactNumber(0, 1, 8) == ExactNumber(0, 2, 2)
    assert ExactNumber(0, 1, 8).radicand == 2
    assert ExactNumber(0, 1, 4) == ExactNumber(2)
    assert ExactNumber(0, 1, 4).is_rational
    assert ExactNumber(0, 1, 45) == ExactNumber(0, 3, 5)
    assert ExactNumber.sqrt(9).to_fraction() == 3


def _trial_division_square_free(d):
    """The former _square_free: trial division up to sqrt(d)."""
    s = 1
    f = 2
    while f * f <= d:
        ff = f * f
        while d % ff == 0:
            d //= ff
            s *= f
        f += 1
    return s, d


def test_square_free_matches_trial_division():
    for d in range(100_001):
        assert _square_free(d) == _trial_division_square_free(d), d


def test_square_free_large_cofactors():
    p, q = 2_147_483_647, 2_147_483_629  # primes, so p*p and p*q have 62 bits
    assert _square_free(p * p) == (p, 1)
    assert _square_free(2 * p * p) == (p, 2)
    assert _square_free(p * q) == (1, p * q)
    assert _square_free(10**12 + 39) == (1, 10**12 + 39)
    assert _square_free(12 * 10**12) == (2 * 10**6, 3)


def test_radicand_bound():
    top = (1 << RADICAND_BITS) - 1
    assert _square_free(top)[0] ** 2 * _square_free(top)[1] == top
    for d in (1 << RADICAND_BITS, 10**30):
        with pytest.raises(ValueError, match="exceeds"):
            ExactNumber.sqrt(d)
        with pytest.raises(ValueError, match="exceeds"):
            parse_scalar(f"(1+1*sqrt({d}))/2")
    # a rational scalar has no radicand to bound
    assert ExactNumber(3, 0, 10**30) == 3


def _slots(x):
    return x._rat, x._coef, x._d


big_radicands = st.sampled_from([2, 5, 1000003, 10**12 + 39])


@st.composite
def big_radicand_pairs(draw):
    d = draw(big_radicands)
    a, b = (ExactNumber(draw(fracs), draw(fracs), d) for _ in range(2))
    # cancellations: the negative, the conjugate, a rational or sqrt(d) itself
    b = draw(st.sampled_from([b, -a, ExactNumber(a.rational_part, -a.surd_coef, d),
                              ExactNumber(b.rational_part), ExactNumber.sqrt(d)]))
    return draw(st.sampled_from([a, ExactNumber.sqrt(d)])), b


@given(big_radicand_pairs())
def test_arithmetic_results_are_normalised(pair):
    a, b = pair
    results = [a + b, a - b, b - a, a * b, -a, a + 1, 2 - b, a * Fraction(1, 3)]
    if b != 0:
        results.append(a / b)
    if a != 0:
        results.append(3 / a)
    for r in results:
        normal = ExactNumber(r.rational_part, r.surd_coef, r.radicand)
        assert _slots(r) == _slots(normal)
        assert type(r.rational_part) is type(r.surd_coef) is Fraction


def test_cancellations_become_rational():
    for d in (2, 5, 1000003, 10**12 + 39):
        root = ExactNumber.sqrt(d)
        x = ExactNumber(Fraction(1, 3), Fraction(-2, 7), d)
        conj = ExactNumber(Fraction(1, 3), Fraction(2, 7), d)
        norm = Fraction(1, 9) - Fraction(4, 49) * d
        for r, value in ((root * root, d), (x * conj, norm), (x - x, 0),
                         (x + conj, Fraction(2, 3))):
            assert _slots(r) == (Fraction(value), 0, 0)


def test_arithmetic_cost_does_not_grow_with_the_radicand():
    def cost(d, op):
        a = ExactNumber(Fraction(1, 3), Fraction(2, 7), d)
        b = ExactNumber(Fraction(-5, 11), Fraction(3, 13), d)
        return min(timeit.repeat(lambda: op(a, b), number=200, repeat=5))

    for op in (lambda a, b: a + b, lambda a, b: a * b):
        assert cost(10**12 + 39, op) < 5 * cost(5, op)


def test_sqrt_squares_back():
    for d in (2, 3, 5, 7, 11, 13):
        r = ExactNumber.sqrt(d)
        assert r * r == ExactNumber(d)
        assert not r.is_rational


def test_mixed_radicands_rejected():
    with pytest.raises(IncompatibleRadicands):
        ExactNumber.sqrt(2) + ExactNumber.sqrt(3)
    with pytest.raises(IncompatibleRadicands):
        ExactNumber.sqrt(2) * ExactNumber.sqrt(3)
    # but a rational may join any radicand
    assert ExactNumber.sqrt(2) + 1 == ExactNumber(1, 1, 2)


def test_to_fraction_requires_rational():
    with pytest.raises(ValueError):
        ExactNumber.sqrt(2).to_fraction()


# ------------------------------------------------------------- ordering


@given(exact_pairs())
def test_trichotomy(pair):
    a, b = pair
    rels = [a < b, a == b, a > b]
    assert rels.count(True) == 1
    assert compare(a, b) == (-1 if a < b else (0 if a == b else 1))
    assert compare(b, a) == -compare(a, b)


@given(exact_pairs())
def test_order_agrees_with_enclosures(pair):
    """If 120-bit enclosures separate, the exact comparison must match."""
    a, b = pair
    ba, bb = to_ball(a, 120), to_ball(b, 120)
    if ba.hi < bb.lo:
        assert a < b
    elif bb.hi < ba.lo:
        assert b < a


@given(exact_numbers())
def test_sign_and_abs(a):
    s = a.sign()
    assert s in (-1, 0, 1)
    assert (s == 0) == (a == 0)
    assert abs(a) == (a if s >= 0 else -a)
    assert abs(a) >= 0


# ------------------------------------------ comparison against the oracle

ORACLE_RADICANDS = [2, 5, 1000003, 10**12 + 39]
# Pell solutions p^2 - d*y^2 = +-1: p - y*sqrt(d) is within 1/(2p) of 0
PELL = {2: [(3, 2), (17, 12), (99, 70), (577, 408), (665857, 470832)],
        5: [(2, 1), (9, 4), (161, 72), (2889, 1292)]}
wide_fracs = st.fractions(max_denominator=10**9).filter(lambda f: abs(f) < 10**9)


@st.composite
def comparable_pairs(draw):
    """Two scalars over at most one radicand: rationals, surds, equal
    values, rational against surd, and near-cancellations where a*a and
    b*b*d differ by a little."""
    d = draw(st.sampled_from([0] + ORACLE_RADICANDS))
    shape = draw(st.sampled_from(["free", "equal", "near", "pell"]))

    def rat():
        return draw(st.one_of(fracs, wide_fracs))

    if shape == "pell" and d in PELL:
        p, y = draw(st.sampled_from(PELL[d]))
        scale = draw(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6))
        a = ExactNumber(p * scale, -y * scale, d)
        b = ExactNumber(draw(st.sampled_from([0, p * scale])),
                        draw(st.sampled_from([0, y * scale, -y * scale])), d)
    elif shape == "near" and d:
        y = draw(st.integers(1, 10**12))
        p = isqrt(d * y * y) + draw(st.integers(-1, 1))
        q = draw(st.integers(1, 10**6))
        shift = rat()
        a = ExactNumber(Fraction(p, q) + shift, 0, 0)
        b = ExactNumber(shift, Fraction(y, q) * draw(st.sampled_from([1, -1])), d)
    else:
        a = ExactNumber(rat(), rat() if d and draw(st.booleans()) else 0, d)
        if shape == "equal":
            b = ExactNumber(a.rational_part, a.surd_coef, a.radicand)
        else:
            b = ExactNumber(rat(), rat() if d and draw(st.booleans()) else 0, d)
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=400)
@given(comparable_pairs())
def test_comparisons_agree_with_the_subtraction_oracle(pair):
    a, b = pair
    want = subtraction_cmp(a, b)
    assert a._cmp(b) == want
    assert compare(a, b) == want
    assert (a < b) == (want < 0)
    assert (a <= b) == (want <= 0)
    assert (a > b) == (want > 0)
    assert (a >= b) == (want >= 0)
    assert (a == b) == (want == 0)
    for x in (a, b, a - b):
        assert x.sign() == fraction_sign(x)
        assert abs(x) == (x if fraction_sign(x) >= 0 else -x)


@given(exact_numbers(), st.one_of(st.integers(-60, 60), fracs))
def test_comparisons_with_plain_rationals(a, r):
    want = subtraction_cmp(a, r)
    assert a._cmp(r) == compare(a, r) == -compare(r, a) == want
    assert (a < r) == (r > a) == (want < 0)
    assert (a >= r) == (r <= a) == (want >= 0)


def test_pell_near_cancellations():
    # 577^2 - 2*408^2 = 1: 577 - 408*sqrt(2) is positive and about 8.7e-4
    x = ExactNumber(577, -408, 2)
    assert x.sign() == 1 and (-x).sign() == -1
    assert ExactNumber(577) > ExactNumber(0, 408, 2)
    assert compare(ExactNumber(0, 408, 2), 577) == -1
    # 2889^2 - 5*1292^2 = 1 and 161^2 - 5*72^2 = 1
    assert ExactNumber(-2889, 1292, 5).sign() == -1
    assert compare(ExactNumber(Fraction(161, 7)), ExactNumber(0, Fraction(72, 7), 5)) == 1
    assert ExactNumber(Fraction(1, 3), 0, 0).sign() == 1


@pytest.mark.parametrize("a, b", [
    (ExactNumber.sqrt(2), ExactNumber.sqrt(3)),
    (ExactNumber(1, 1, 2), ExactNumber(1, 1, 3)),
    (ExactNumber(5, 1, 2), ExactNumber(-7, 1, 3)),
    (ExactNumber(Fraction(1, 2), -3, 2), ExactNumber(100, 2, 3)),
])
def test_comparing_mixed_radicands_raises(a, b):
    with pytest.raises(IncompatibleRadicands):
        subtraction_cmp(a, b)
    for op in (lambda: a._cmp(b), lambda: compare(b, a), lambda: a < b,
               lambda: a <= b, lambda: b > a, lambda: b >= a):
        with pytest.raises(IncompatibleRadicands):
            op()
    # a rational compares with either radicand
    for x in (a, b):
        assert compare(x, x.rational_part) == subtraction_cmp(x, x.rational_part)


@given(exact_pairs())
def test_hash_consistent_with_eq(pair):
    a, b = pair
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=400)
@given(exact_numbers(), st.one_of(st.integers(-60, 60), fracs, st.booleans()))
def test_equality_with_plain_rationals(x, r):
    """An int or Fraction operand is compared without coercion; the answer
    is the one against the same value as an ExactNumber."""
    for v in (r, x.rational_part, int(x.rational_part)):
        want = x == ExactNumber(v)
        assert (x == v) is want and (v == x) is want and (x != v) is not want
        if want:
            assert hash(x) == hash(v)


def test_float_conversion_close():
    phi = (ExactNumber(1) + ExactNumber.sqrt(5)) / 2
    # float() routes through a finite-precision ball, so only ask for ~12 digits
    assert abs(float(phi) - 1.6180339887498949) < 1e-12


def test_float_of_a_surd_is_correctly_rounded():
    # a 40-bit square root gave 0.3819660112503698
    assert float(ExactNumber(Fraction(3, 2), Fraction(-1, 2), 5)) == 0.38196601125010515


@given(exact_numbers())
def test_float_matches_an_80_digit_reference(x):
    rat, coef = x.rational_part, x.surd_coef
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        ref = (Decimal(rat.numerator) / rat.denominator
               + Decimal(coef.numerator) / coef.denominator * Decimal(x.radicand).sqrt())
    assert float(x) == float(ref)


# ------------------------------------------------------------- text forms


@given(exact_numbers())
def test_parse_format_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_examples():
    assert parse_scalar("1/3") == ExactNumber(Fraction(1, 3))
    assert parse_scalar("-7") == ExactNumber(-7)
    assert parse_scalar("(3-1*sqrt(5))/2") == ExactNumber(
        Fraction(3, 2), Fraction(-1, 2), 5
    )
    assert parse_scalar("(0+1*sqrt(2))/1") == ExactNumber.sqrt(2)


@pytest.mark.parametrize(
    "bad",
    [
        "1/0",
        "(1+2*sqrt(5))/0",
        "sqrt(5)",
        "1.5",
        "",
        "(4-(1+1*sqrt(5))/2)/1",  # nested expressions are not scalars
        "one third",
        # the grammar is ASCII: other scripts' digits and spaces are refused
        "\u0661/\u0663",
        "1/\u0663",
        "(3-1*sqrt(\u0665))/2",
        "\uff11/3",
        "1\u00a0/3",
        "\u20031/3",
        "(3-1*sqrt(5))/2\u3000",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


digits = st.text("0123456789", min_size=1, max_size=24)
scalar_like = st.one_of(
    st.text(),
    st.builds("{}/{}".format, st.integers(), digits),
    st.builds("({}{}{}*sqrt({}))/{}".format, st.integers(), st.sampled_from("+-"),
              digits, digits, digits),
)


@settings(deadline=None)  # a 64-bit prime radicand takes ~0.3 s
@given(scalar_like)
def test_parse_scalar_raises_only_value_error(text):
    try:
        x = parse_scalar(text)
    except ValueError:
        return
    assert parse_scalar(format_scalar(x)) == x


def test_format_is_canonical():
    assert format_scalar(Fraction(2, 4)) == "1/2"
    assert format_scalar(ExactNumber(Fraction(3, 2), Fraction(-1, 2), 5)) == (
        "(3-1*sqrt(5))/2"
    )


# ------------------------------------------------------------- balls

dyadics = st.builds(
    lambda m, e: Fraction(m, 1 << e),
    st.integers(min_value=-(1 << 20), max_value=1 << 20),
    st.integers(min_value=0, max_value=24),
)
small_dyadics = st.builds(
    lambda m, e: Fraction(m, 1 << e),
    st.integers(min_value=0, max_value=1 << 10),
    st.integers(min_value=0, max_value=16),
)
balls = st.builds(Ball, dyadics, small_dyadics)


def _members(b: Ball):
    return (b.lo, b.center, b.hi)


@given(balls, balls)
def test_ball_add_sub_enclose(x, y):
    s = x + y
    d = x - y
    for u in _members(x):
        for v in _members(y):
            assert s.lo <= u + v <= s.hi
            assert d.lo <= u - v <= d.hi


@given(balls, st.integers(min_value=-8, max_value=8), st.integers(min_value=0, max_value=6))
def test_ball_scale_encloses(x, m, e):
    s = Fraction(m, 1 << e)
    scaled = x.scale(s)
    for u in _members(x):
        assert scaled.lo <= u * s <= scaled.hi


@given(balls, balls)
def test_ball_predicates_consistent(x, y):
    if x.hi < y.lo or x.lo > y.hi:
        assert not x.overlaps(y)
    else:
        assert x.overlaps(y)
    if x.contains_ball(y):
        assert x.overlaps(y) or y.radius == 0
        for v in _members(y):
            assert x.contains(v)


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(Fraction(0), Fraction(-1, 2))
    with pytest.raises(ValueError):
        Ball(Fraction(1, 3), Fraction(0))  # non-dyadic center
    with pytest.raises(ValueError):
        Ball.from_endpoints(Fraction(1), Fraction(0))
    b = Ball.from_endpoints(Fraction(1, 4), Fraction(3, 4))
    assert b.lo == Fraction(1, 4) and b.hi == Fraction(3, 4)
    assert Ball.point(2).radius == 0


@given(exact_numbers(), st.integers(min_value=4, max_value=160))
def test_to_ball_encloses_tightly(x, bits):
    b = to_ball(x, bits)
    assert b.contains(x)
    assert b.radius <= Fraction(1, 1 << bits)


@settings(max_examples=60)
@given(st.fractions(min_value=-10, max_value=10, max_denominator=10**6),
       st.integers(min_value=1, max_value=80))
def test_dyadic_ceil_properties(x, bits):
    c = dyadic_ceil(x, bits)
    assert c >= x
    assert c - x < Fraction(1, 1 << bits)
    assert ((1 << bits) * c).denominator == 1
