"""Injective piecewise contractions: validation, codings, and certified
ultimately periodic orbits."""

import dataclasses
import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietpc import (
    Ball,
    BadPartition,
    CodingUndecidable,
    DenominatorBlowup,
    ExactNumber,
    ImageEscapes,
    NotContracting,
    NotInjective,
    OutOfDomain,
    PeriodicCertificate,
    PeriodicOrbit,
    build_pc_from_iet,
    certify_periodic,
    check_certificate,
    empirical_factor,
    golden_rotation,
    new_iet,
    new_pc,
    pc_coding,
)
from ietpc.pc import _orbit_stats, ball_piece
from strategies import half_slope_maps

HALF = Fraction(1, 2)


def one_piece():
    # f(x) = x/2 + 1/3, fixed point 2/3
    return new_pc([0, 1], [HALF], [Fraction(1, 3)])


def two_piece():
    # swaps the halves, attracting 2-cycle {1/6, 5/6}
    return new_pc([0, HALF, 1], [HALF, HALF], [Fraction(3, 4), Fraction(-1, 4)])


def slow_denominators():
    # slope 1/3 makes exact orbits grow a trit per step
    return new_pc([0, 1], [Fraction(1, 3)], [HALF])


# ------------------------------------------------------------- validation


def test_new_pc_validation():
    with pytest.raises(BadPartition):
        new_pc([0, HALF], [HALF], [0])
    with pytest.raises(BadPartition):
        new_pc([0, HALF, HALF, 1], [HALF, HALF, HALF], [0, 0, 0])
    with pytest.raises(NotContracting):
        new_pc([0, 1], [1], [0])
    with pytest.raises(NotContracting):
        new_pc([0, 1], [-1], [1])
    with pytest.raises(NotInjective):
        new_pc([0, 1], [0], [HALF])
    with pytest.raises(ImageEscapes):
        new_pc([0, 1], [HALF], [Fraction(3, 4)])
    with pytest.raises(ImageEscapes):
        new_pc([0, 1], [HALF], [Fraction(-1, 4)])


def test_new_pc_rejects_overlapping_images():
    # both pieces map onto [0, 1/4)
    with pytest.raises(NotInjective):
        new_pc([0, HALF, 1], [HALF, HALF], [0, Fraction(-1, 4)])


def _random_exchange(rng, bps):
    """An exchange of the given pieces in random order with random flips."""
    n = len(bps) - 1
    signs = [rng.choice((1, -1)) for _ in range(n)]
    order = rng.sample(range(n), n)
    start, pos = {}, Fraction(0)
    for i in order:
        start[i] = pos
        pos += bps[i + 1] - bps[i]
    translations = [
        start[i] - bps[i] if signs[i] == 1 else start[i] + bps[i + 1]
        for i in range(n)
    ]
    return new_iet(bps, signs, translations)


def test_piece_index_matches_linear_scan():
    rng = random.Random(3)
    for _ in range(20):
        cuts = sorted({Fraction(rng.randint(1, 39), 40) for _ in range(3)})
        bps = [Fraction(0)] + cuts + [Fraction(1)]
        n = len(bps) - 1
        f = new_pc(bps, [Fraction(1, 4)] * n, [Fraction(k, 2 * n) for k in range(n)])
        T = _random_exchange(rng, bps)
        # left endpoints matter for flipped pieces, whose step is special there
        xs = bps[:-1] + [Fraction(rng.randint(0, 239), 240) for _ in range(25)]
        for x in xs:
            expect = max(i for i in range(1, n + 1) if bps[i - 1] <= x)
            assert f.piece_index(x) == expect
            assert T.piece_index(x) == expect
            i, y = T.step(x)
            assert i == expect and T.images[i - 1].contains(y)
        for x in (Fraction(-1, 7), 1, Fraction(3, 2)):
            for g in (f, T):
                with pytest.raises(OutOfDomain):
                    g.piece_index(x)


def _ball_piece_scan(ball, lower, upper):
    """Reference locator: the first piece that certainly holds the ball."""
    for i in range(1, len(lower)):
        if (i == 1 or upper[i - 1] <= ball.lo) and ball.hi < lower[i]:
            return i
    return None


def test_ball_piece_matches_linear_scan():
    rng = random.Random(5)
    grid = Fraction(1, 64)
    for _ in range(200):
        n = rng.randint(1, 5)
        lower = [Fraction(0)] + sorted(rng.randint(0, 64) * grid for _ in range(n - 1))
        lower.append(Fraction(1))
        # nondecreasing upper edges, each at or above its lower edge
        upper = [lower[0]]
        for lo in lower[1:]:
            upper.append(max(upper[-1], lo + rng.randint(0, 3) * grid))
        for _ in range(20):
            a, b = sorted(rng.randint(-4, 68) * grid for _ in range(2))
            ball = Ball.from_endpoints(a, b)
            assert ball_piece(ball, lower, upper) == _ball_piece_scan(ball, lower, upper)
    # exact breakpoints: both edge lists are the breakpoints themselves
    f = two_piece()
    assert ball_piece(Ball.point(Fraction(1, 4)), f.breakpoints, f.breakpoints) == 1
    assert ball_piece(Ball.point(HALF), f.breakpoints, f.breakpoints) == 2
    assert ball_piece(Ball(HALF, grid), f.breakpoints, f.breakpoints) is None


# ---------------------------------------------------------------- codings


def test_coding_examples():
    assert pc_coding(one_piece(), 0, 5).to_text() == "11111"
    assert pc_coding(two_piece(), 0, 12).to_text() == "121212121212"


def test_exact_coding_blows_up_visibly():
    with pytest.raises(DenominatorBlowup) as info:
        pc_coding(slow_denominators(), 0, 200, bit_budget=40)
    assert info.value.step == 27
    assert info.value.bits > 40


def test_ball_coding_continues_past_blowup():
    w = pc_coding(slow_denominators(), 0, 200, approximate=True)
    assert w.to_text() == "1" * 200


@settings(max_examples=80, deadline=None)
@given(half_slope_maps(), st.sampled_from([8, 16, 40, 192]))
def test_ball_coding_agrees_with_exact_on_decided_letters(case, precision_bits):
    f, x = case
    exact = pc_coding(f, x, 60).symbols
    try:
        decided = len(pc_coding(f, x, 60, approximate=True,
                                precision_bits=precision_bits))
    except CodingUndecidable as exc:
        decided = exc.step
    if decided:
        ball = pc_coding(f, x, decided, approximate=True,
                         precision_bits=precision_bits)
        assert ball.symbols == exact[:decided]


def test_ball_coding_raises_when_undecidable():
    f = new_pc([0, HALF, 1], [HALF, HALF], [Fraction(1, 4), Fraction(1, 4)])
    # the orbit of 1/3 converges to the breakpoint 1/2 from below, so a
    # 16-bit ball eventually straddles it
    with pytest.raises(CodingUndecidable):
        pc_coding(f, Fraction(1, 3), 60, approximate=True, precision_bits=16)
    # exact arithmetic walks straight through
    assert pc_coding(f, Fraction(1, 3), 60).to_text() == "1" * 60


# ----------------------------------------------------------- certificates


def test_certify_fixed_point():
    f = one_piece()
    cert = certify_periodic(f, 0)
    assert (cert.q, cert.p) == (0, 1)
    assert cert.period == (1,)
    assert cert.fixed_point == Fraction(2, 3)
    assert check_certificate(f, cert)


def test_certify_two_cycle():
    f = two_piece()
    cert = certify_periodic(f, 0)
    assert (cert.q, cert.p) == (0, 2)
    assert abs(cert.cycle_slope) == Fraction(1, 4)
    assert check_certificate(f, cert)
    # the certified word is the exact coding
    assert cert.eventual_word(40).symbols == pc_coding(f, 0, 40).symbols


def test_certificate_respects_cycle_equation():
    cert = certify_periodic(two_piece(), 0)
    assert cert.cycle_slope * cert.fixed_point + cert.cycle_intercept == cert.fixed_point
    assert cert.cylinder.contains(cert.fixed_point)


def test_check_certificate_rejects_tampering():
    f = one_piece()
    cert = certify_periodic(f, 0)
    longer = dataclasses.replace(cert, period=(1,) * (cert.p + 1), p=cert.p + 1)
    assert not check_certificate(f, longer)
    moved = dataclasses.replace(cert, fixed_point=cert.fixed_point + Fraction(1, 100))
    assert not check_certificate(f, moved)
    from ietpc import Interval

    narrowed = dataclasses.replace(
        cert, cylinder=Interval(Fraction(0), Fraction(1, 100))
    )
    assert not check_certificate(f, narrowed)
    for q in (0, 1):  # a start outside [0, 1) is refused, not raised on
        outside = dataclasses.replace(
            cert, start=ExactNumber(2), q=q, preperiod=(1,) * q
        )
        assert not check_certificate(f, outside)


def test_certificate_serialization_round_trip():
    cert = certify_periodic(two_piece(), 0)
    data = cert.to_json_dict()
    back = PeriodicCertificate.from_json_dict(data)
    assert back == cert
    assert check_certificate(two_piece(), back)


def test_certify_honors_budget():
    # far too small to detect anything
    assert certify_periodic(slow_denominators(), Fraction(1, 7), budget=1) is None


def test_seeded_random_contractions_certify_and_revalidate():
    rng = random.Random(0)
    built = certified = 0
    while built < 20:
        x1 = Fraction(rng.randint(1, 59), 60)
        b1 = Fraction(rng.randint(0, 120), 120)
        b2 = Fraction(rng.randint(0, 120), 120)
        try:
            f = new_pc([0, x1, 1], [HALF, HALF], [b1, b2])
        except Exception:
            continue
        built += 1
        cert = certify_periodic(f, 0, budget=5000)
        if cert is not None:
            certified += 1
            assert check_certificate(f, cert)
    assert certified == 20


# ------------------------------------------------------- empirical factor


def test_empirical_factor_refuses_periodic_orbits():
    with pytest.raises(PeriodicOrbit):
        empirical_factor(one_piece(), 0, m=1000)


def test_empirical_factor_argument_validation():
    f = one_piece()
    with pytest.raises(ValueError):
        empirical_factor(f, 0, m=999)
    with pytest.raises(ValueError):
        empirical_factor(f, 0, m=1000, grid_size=1)
    with pytest.raises(ValueError):
        empirical_factor(f, 0, m=1000, burn_in=-1)


@pytest.mark.parametrize("grid_size, digest", [
    (512, "43f88b290ff30ad7"),
    (7, "3faf6e9114e87b59"),
])
def test_empirical_factor_needs_no_numpy(monkeypatch, grid_size, digest):
    # a None entry makes any `import numpy` raise ImportError; the digests
    # pin h_grid as the earlier numpy implementation computed it
    monkeypatch.setitem(sys.modules, "numpy", None)
    cpc = build_pc_from_iet(golden_rotation(), N=64)
    fac = empirical_factor(cpc, 0, m=1000, grid_size=grid_size, bit_budget=256)
    assert fac.approximate
    assert len(fac.h_grid) == grid_size + 1
    assert hashlib.sha256(repr(fac.h_grid).encode()).hexdigest()[:16] == digest


def test_orbit_stats_ball_tail_raises_on_straddle():
    f = new_pc([0, Fraction(1, 3), 1], [HALF, HALF], [Fraction(1, 3), HALF])
    # bit_budget 0 sends the orbit of 0 straight to the ball tail, and the
    # ball around its first image straddles the breakpoint 1/3
    with pytest.raises(CodingUndecidable) as info:
        _orbit_stats(f, ExactNumber(0), 6, 0, 16)
    assert info.value.step == 1
