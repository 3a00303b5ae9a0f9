"""Injective piecewise contractions: validation, codings, and certified
ultimately periodic orbits."""

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
from ietpc.numeric import as_exact, to_ball
from ietpc.pc import _ceil_lattice, _orbit, ball_orbit
from ball_reference import ball_orbit as oracle_ball_orbit, ball_piece
from strategies import dyadic_maps, half_slope_maps, replaced, slope_maps

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
            assert f.step(x)[0] == expect
            i, y = T.step(x)
            assert i == expect and T.images[i - 1].contains(y)
        for x in (Fraction(-1, 7), 1, Fraction(3, 2)):
            for g in (f, T):
                with pytest.raises(OutOfDomain):
                    g.step(x)


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
        slopes, intercepts = [Ball.point(HALF)] * n, [Ball.point(0)] * n
        for _ in range(20):
            a, b = sorted(rng.randint(-4, 68) * grid for _ in range(2))
            ball = Ball.from_endpoints(a, b)
            piece = _ball_piece_scan(ball, lower, upper)
            assert ball_piece(ball, lower, upper) == piece
            # the kernel's first letter, on the 2**-7 grid and exactly
            for mode in (7, None):
                first = ball_orbit(ball, lower, upper, slopes, intercepts, mode, 1)
                assert first == ([] if piece is None else [piece])
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


@pytest.mark.parametrize("approximate", [False, True])
@pytest.mark.parametrize("x", [Fraction(-1, 3), 1, Fraction(4, 3)])
def test_coding_refuses_starts_outside_the_domain(x, approximate):
    with pytest.raises(OutOfDomain):
        pc_coding(two_piece(), x, 6, approximate=approximate)


def _step_orbit(f, x, length, bit_budget):
    """(letters, points) by f.step, stopping like exact pc.coding."""
    point, letters, points = as_exact(x), [], []
    for k in range(length):
        if point.bit_size() > bit_budget:
            raise DenominatorBlowup(k, point.bit_size(), bit_budget)
        points.append(point)
        i, point = f.step(point)
        letters.append(i)
    return letters, points


def surd_contraction():
    a = (3 - ExactNumber.sqrt(5)) / 2
    return new_pc([0, a, 1], [HALF, HALF], [HALF, -a / 2])


def test_surd_contraction_codings_match_step_reference():
    f, x = surd_contraction(), Fraction(1, 7)
    letters, points = _step_orbit(f, x, 400, 10**5)
    assert pc_coding(f, x, 400).symbols == tuple(letters)
    assert pc_coding(f, x, 400, approximate=True).symbols == tuple(letters)
    with pytest.raises(DenominatorBlowup) as info:
        pc_coding(f, x, 400, bit_budget=300)
    with pytest.raises(DenominatorBlowup) as ref:
        _step_orbit(f, x, 400, 300)
    assert (info.value.step, info.value.bits) == (ref.value.step, ref.value.bits)
    for budget, approximate in ((300, True), (10**5, False)):
        floats = []
        assert _orbit(f, x, 400, budget, 192, floats) == (letters, approximate)
        assert floats == pytest.approx([float(p) for p in points], abs=1e-9)


def _assert_exact_coding_matches_step(f, x, length, bit_budget):
    try:
        expect = _step_orbit(f, x, length, bit_budget)[0]
    except DenominatorBlowup as ref:
        with pytest.raises(DenominatorBlowup) as info:
            pc_coding(f, x, length, bit_budget=bit_budget)
        assert (info.value.step, info.value.bits) == (ref.step, ref.bits)
    else:
        assert pc_coding(f, x, length, bit_budget=bit_budget).symbols == tuple(expect)


@settings(max_examples=60, deadline=None)
@given(half_slope_maps(), st.integers(1, 80))
def test_exact_coding_matches_step_on_half_slopes(case, bit_budget):
    _assert_exact_coding_matches_step(*case, 60, bit_budget)


@settings(max_examples=60, deadline=None)
@given(slope_maps(3), st.integers(1, 120))
def test_exact_coding_matches_step_on_third_slopes(case, bit_budget):
    _assert_exact_coding_matches_step(*case, 60, bit_budget)
    _assert_exact_coding_matches_step(slow_denominators(), case[1], 60, bit_budget)


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
    longer = replaced(cert, period=(1,) * (cert.p + 1), p=cert.p + 1)
    assert not check_certificate(f, longer)
    moved = replaced(cert, fixed_point=cert.fixed_point + Fraction(1, 100))
    assert not check_certificate(f, moved)
    from ietpc import Interval

    narrowed = replaced(cert, cylinder=Interval(Fraction(0), Fraction(1, 100)))
    assert not check_certificate(f, narrowed)
    for q in (0, 1):  # a start outside [0, 1) is refused, not raised on
        outside = replaced(cert, start=ExactNumber(2), q=q, preperiod=(1,) * q)
        assert not check_certificate(f, outside)


def test_certificate_serialization_round_trip():
    cert = certify_periodic(two_piece(), 0)
    data = cert.to_json_dict()
    back = PeriodicCertificate.from_json_dict(data)
    assert back == cert
    assert check_certificate(two_piece(), back)


@pytest.mark.parametrize("field, value", [
    ("q", True),
    ("p", 2.0),
    ("p", "2"),
    ("period", [1, True]),
    ("period", "12"),
    ("preperiod", [1.0]),
    ("lo_closed", 1),
    ("hi_closed", 0),
])
def test_certificate_json_types_are_strict(field, value):
    """Integers must be JSON integers and flags JSON booleans: JSON true is
    not the integer 1, nor 0 the flag false."""
    from ietpc import MapFormatError

    data = certify_periodic(two_piece(), 0).to_json_dict()
    if field.endswith("_closed"):
        data["cylinder"][field] = value
    else:
        data[field] = value
    with pytest.raises(MapFormatError):
        PeriodicCertificate.from_json_dict(data)


def _without(data, key):
    del data[key]


@pytest.mark.parametrize("mutate", [
    lambda d: _without(d, "start"),                  # a missing field
    lambda d: d.update(start=5),                     # a scalar that is no string
    lambda d: d.update(fixed_point="1/0"),           # text outside the grammar
    lambda d: d.update(cylinder=[]),                 # a cylinder that is no object
    lambda d: _without(d["cylinder"], "hi"),         # a cylinder field missing
    lambda d: d["cylinder"].update(width="1/2"),     # an unknown cylinder field
    lambda d: d["cylinder"].update(lo=0),            # a cylinder end that is no string
    lambda d: d.update(type="x"),                    # a wrong tag
    lambda d: d.update(note="hi"),                   # an unknown field
])
def test_certificate_json_shape_is_strict(mutate):
    """Every certificate file outside the emitted shape is a MapFormatError."""
    from ietpc import MapFormatError

    data = certify_periodic(two_piece(), 0).to_json_dict()
    mutate(data)
    with pytest.raises(MapFormatError):
        PeriodicCertificate.from_json_dict(data)


@pytest.mark.parametrize("data", [None, [], "periodic-certificate"])
def test_certificate_json_must_be_an_object(data):
    from ietpc import MapFormatError

    with pytest.raises(MapFormatError):
        PeriodicCertificate.from_json_dict(data)


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


@pytest.mark.parametrize("grid", [11, None])
def test_ball_orbit_edge_ties(grid):
    # breakpoint 1 is known to lie in [3/8, 1/2]: a ball whose lower end is
    # the upper edge lies in piece 2, one whose upper end is the lower edge
    # straddles the breakpoint
    lower = [Fraction(0), Fraction(3, 8), Fraction(1)]
    upper = [Fraction(0), HALF, Fraction(1)]
    maps = ([Ball.point(HALF)] * 2, [Ball.point(0)] * 2)
    cases = [
        (Ball.from_endpoints(HALF, Fraction(5, 8)), [2]),
        (Ball.from_endpoints(Fraction(1, 4), Fraction(3, 8)), []),
        (Ball.from_endpoints(Fraction(1, 4), Fraction(3, 8) - Fraction(1, 2**10)), [1]),
        (Ball.from_endpoints(Fraction(7, 16), HALF), []),
    ]
    for ball, letters in cases:
        assert ball_orbit(ball, lower, upper, *maps, grid, 1) == letters
        walk = oracle_ball_orbit(ball, lower, upper, *maps, grid, 1)
        assert [i for i, _ in walk] == letters


def test_ball_orbit_refuses_balls_off_its_lattice():
    edges = [Fraction(0), HALF, Fraction(1)]
    maps = ([Ball.point(HALF)] * 2, [Ball.point(0)] * 2)
    with pytest.raises(ValueError):
        ball_orbit(Ball.point(Fraction(1, 2**12)), edges, edges, *maps, 10, 1)
    # exact mode needs dyadic edges: a floor would misplace a ball near 1/3
    thirds = [Fraction(0), Fraction(1, 3), Fraction(1)]
    with pytest.raises(ValueError):
        ball_orbit(Ball.point(Fraction(1, 4)), thirds, thirds, *maps, None, 1)


def test_ceil_lattice_is_exact():
    a = (3 - ExactNumber.sqrt(5)) / 2
    values = [a, -a, a / 7, ExactNumber.sqrt(2) / 3, ExactNumber(Fraction(1, 3)),
              ExactNumber(Fraction(-5, 8)), ExactNumber(Fraction(3, 8))]
    for v in values:
        for e in range(0, 200, 7):
            c = _ceil_lattice(v, e)
            assert as_exact(Fraction(c - 1, 2**e)) < v <= as_exact(Fraction(c, 2**e))


def surd_maps():
    return st.builds(lambda k: (surd_contraction(), Fraction(k, 105)),
                     st.integers(0, 104))


@settings(max_examples=150, deadline=None)
@given(st.one_of(dyadic_maps(), half_slope_maps(), slope_maps(3),
                 slope_maps(2, dens=(60,)), surd_maps()),
       st.sampled_from([2, 4, 8, 16, 40, 192]))
def test_grid_ball_orbit_matches_the_fraction_oracle(case, precision_bits):
    """The scaled-integer kernel gives the Fraction loop's letters, stops at
    its first straddle, and its floats are the ball centres bit for bit,
    both called directly and as _orbit's ball tail (bit_budget 0)."""
    f, x = case
    P, length = precision_bits, 120
    args = (to_ball(x, P), f.breakpoints, f.breakpoints,
            [to_ball(s, P) for s in f.slopes], [to_ball(c, P) for c in f.intercepts],
            max(P + 8, 16))
    walk = list(oracle_ball_orbit(*args, length))
    letters, centres = [i for i, _ in walk], [float(b.center) for _, b in walk]
    floats = []
    assert ball_orbit(*args, length, floats) == letters
    assert floats == centres
    floats = []
    try:
        assert _orbit(f, x, length, 0, P, floats) == (letters, True)
    except CodingUndecidable as exc:
        assert exc.step == len(letters) < length
    assert floats == centres


def test_orbit_stats_ball_tail_raises_on_straddle():
    f = new_pc([0, Fraction(1, 3), 1], [HALF, HALF], [Fraction(1, 3), HALF])
    # bit_budget 0 sends the orbit of 0 straight to the ball tail, and the
    # ball around its first image straddles the breakpoint 1/3
    with pytest.raises(CodingUndecidable) as info:
        _orbit(f, ExactNumber(0), 6, 0, 16)
    assert info.value.step == 1
