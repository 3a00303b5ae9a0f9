"""The gap construction: from an exchange to a semiconjugate contraction.

Everything here is exact.  Gap k has length exactly 2^-k, the gaps are
ordered like the orbit points they shadow, and the constructed contraction
carries balls (dyadic center, dyadic radius) that enclose the parameters of
the true infinite-sum contraction.  Tests that perturb those balls check
that the verification machinery actually notices corruption.
"""

import itertools
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ietpc import (
    Ball,
    Interval,
    InvalidSeed,
    NotTransitiveEvidence,
    OrbitHitsBreakpoint,
    BadAlphabet,
    PrefixTooShort,
    build_gap_system,
    build_pc_from_iet,
    certify_periodic,
    check_certificate,
    default_seed,
    empirical_factor,
    golden_rotation,
    iet_coding,
    new_iet,
    new_pc,
    rabbit_constant,
    robust_certificate,
    rotation_pc,
    valid_seeds,
    verify_semiconjugacy,
)
from ietpc import construct, pc
from ietpc.errors import DenominatorBlowup, IetpcError
from ietpc.mapio import canonical_json
from ietpc.numeric import ExactNumber, as_exact, to_ball
from ietpc.pc import PeriodicCertificate
from ball_reference import ball_orbit as oracle_ball_orbit
from robust_reference import exact_robust_cycle
from strategies import dyadic_maps, half_slope_maps, replaced, slope_maps

ALPHA = ExactNumber(Fraction(3, 2), Fraction(-1, 2), 5)
RABBIT_19_DIGITS = Fraction("0.7098034428612913146")


@pytest.fixture(scope="module")
def golden():
    return golden_rotation()


@pytest.fixture(scope="module")
def cpc64(golden):
    return build_pc_from_iet(golden, N=64)


# ------------------------------------------------------------ gap system


def test_gap_lengths_are_exact_powers_of_two(golden):
    gs = build_gap_system(golden, ALPHA, 40)
    for k in range(1, 41):
        lo = gs.gap_inf_ball(k)
        hi = gs.gap_sup_ball(k)
        assert hi.center - lo.center == Fraction(1, 2**k)
        assert lo.radius == hi.radius == Fraction(1, 2**41)
    assert gs.total_truncated_measure == 1 - Fraction(1, 2**40)
    assert gs.tail == Fraction(1, 2**40)


def test_gap_order_mirrors_orbit_order(golden):
    """G_j sits left of G_k exactly when p_j < p_k, with full clearance."""
    gs = build_gap_system(golden, ALPHA, 64)
    for k in range(1, 65):
        for j in range(1, 65):
            if j == k:
                continue
            orbit_less = gs.orbit[j - 1] < gs.orbit[k - 1]
            trunc_less = gs.inf_truncs[j - 1] < gs.inf_truncs[k - 1]
            assert orbit_less == trunc_less
            if gs.orbit[k - 1] < gs.orbit[j - 1]:
                # the whole of G_k, length 2^-k, fits below inf G_j
                assert gs.inf_truncs[j - 1] >= gs.inf_truncs[k - 1] + Fraction(1, 2**k)


def test_gap_system_guards(golden):
    with pytest.raises(ValueError):
        build_gap_system(golden, ALPHA, 8)
    with pytest.raises(OrbitHitsBreakpoint):
        build_gap_system(golden, 0, 32)  # 0 is a partition point


# ----------------------------------------------------------------- seeds


def test_valid_seeds_are_image_endpoints(golden):
    seeds = valid_seeds(golden)
    assert set(seeds) == {ExactNumber(0), ALPHA}
    assert default_seed(golden, 64) == ALPHA  # 0 sits on the partition


def test_interior_seed_rejected(golden):
    with pytest.raises(InvalidSeed):
        build_pc_from_iet(golden, seed=Fraction(1, 3), N=32)


def test_breakpoint_seed_rejected(golden):
    # 0 is a valid image endpoint but its orbit starts on the partition
    with pytest.raises(OrbitHitsBreakpoint):
        build_pc_from_iet(golden, seed=0, N=32)


def test_finite_orbit_flip_has_no_seed():
    T = new_iet([0, Fraction(1, 2), 1], [-1, 1], [1, Fraction(-1, 2)])
    with pytest.raises(InvalidSeed):
        build_pc_from_iet(T, N=32)


def test_one_piece_exchange_rejected():
    with pytest.raises(NotTransitiveEvidence):
        build_pc_from_iet(new_iet([0, 1], [1], [0]), N=32)


def test_reducible_exchange_leaves_a_piece_unvisited():
    half_alpha = ALPHA / 2
    T = new_iet(
        [0, ExactNumber(Fraction(1, 2)) - half_alpha, Fraction(1, 2), 1],
        [1, 1, 1],
        [half_alpha, half_alpha - Fraction(1, 2), 0],
    )
    with pytest.raises(NotTransitiveEvidence):
        build_pc_from_iet(T, N=32)


# ----------------------------------------------------------- construction


def test_golden_construction_shape(cpc64, golden):
    f = cpc64.pc
    assert f.n == 2
    assert tuple(float(s) for s in f.slopes) == (0.5, 0.5)
    assert cpc64.seed_piece == 1
    assert cpc64.gaps.seed == ALPHA
    assert cpc64.gaps.warnings == ()
    assert 0 < cpc64.error_bound <= Fraction(1, 2**50)


def test_constructed_breakpoint_encloses_rabbit_constant(cpc64):
    R = rabbit_constant(200)
    assert cpc64.breakpoint_balls[1].contains_ball(R)


def test_construction_is_deterministic(golden):
    a = build_pc_from_iet(golden, N=32)
    b = build_pc_from_iet(golden, N=32)
    assert a == b
    assert canonical_json(a.to_sidecar_dict()) == canonical_json(b.to_sidecar_dict())


def test_intercepts_cross_checked_from_two_gap_pairs(cpc64):
    for prov in cpc64.provenance:
        assert prov.crosscheck_gap is not None
        assert prov.crosscheck_gap != prov.earliest_gap
    signs = tuple(p.sign for p in cpc64.provenance)
    assert signs == (1, 1)


def test_sidecar_payload(cpc64):
    data = cpc64.to_sidecar_dict()
    assert data["type"] == "construction-sidecar"
    assert data["depth"] == 64
    assert len(data["gap_orbit"]) == 64
    assert len(data["breakpoint_balls"]) == 3
    from ietpc import parse_scalar

    assert parse_scalar(data["seed"]) == ALPHA
    assert parse_scalar(data["error_bound"]) > 0


def flipped_exchange():
    one = ExactNumber(1)
    lengths = [ALPHA, ALPHA * ALPHA, one - ALPHA - ALPHA * ALPHA]
    bps = [ExactNumber(0)]
    for ln in lengths:
        bps.append(bps[-1] + ln)
    perm = (3, 1, 2)
    starts = {}
    pos = ExactNumber(0)
    for slot in range(1, 4):
        piece = perm.index(slot) + 1
        starts[piece] = pos
        pos = pos + lengths[piece - 1]
    trs = [starts[1] + bps[1], starts[2] - bps[1], starts[3] + bps[3]]
    return new_iet(bps, (-1, 1, -1), trs)


def test_flip_construction_has_negative_slopes():
    T = flipped_exchange()
    cpf = build_pc_from_iet(T, N=32)
    assert tuple(float(s) for s in cpf.pc.slopes) == (-0.5, 0.5, -0.5)
    assert tuple(p.sign for p in cpf.provenance) == (-1, 1, -1)
    report = verify_semiconjugacy(cpf, T, 24, 10)
    assert report.decided_disagree == 0
    assert report.decided_agree > 0


# -------------------------------------------------------- rotation route


def test_rotation_delta_matches_rabbit_identity(golden):
    theta = iet_coding(golden, ALPHA, 200)
    rot = rotation_pc(theta)
    assert not rot.degenerate
    R = rabbit_constant(60)
    assert R.radius <= Fraction(1, 2**60)
    assert R.contains(RABBIT_19_DIGITS)
    target = Ball(1 - R.center / 2, R.radius / 2)
    assert rot.delta.overlaps(target)
    # breakpoint of the induced contraction is the rabbit constant itself
    assert rot.breakpoint.overlaps(R)


def test_rotation_pc_guards(golden):
    from ietpc import SymbolicWord

    with pytest.raises(BadAlphabet):
        rotation_pc(SymbolicWord((0, 1) * 8, 2))
    with pytest.raises(PrefixTooShort):
        rotation_pc(SymbolicWord((1, 2, 1), 2))


def test_rabbit_constant_nesting():
    outer = rabbit_constant(60)
    inner = rabbit_constant(100)
    assert outer.contains_ball(inner)
    with pytest.raises(ValueError):
        rabbit_constant(4)


# ------------------------------------------------------- verification


def test_verify_semiconjugacy_clean(cpc64, golden):
    report = verify_semiconjugacy(cpc64, golden, 64, 20)
    assert report.decided_agree == 1280
    assert report.decided_disagree == 0
    assert report.undecided == 0
    assert report.first_disagreement is None
    assert report.relabeling_identity
    assert report.passed
    assert report.total_positions == 1280
    assert report.to_json_dict()["passed"] is True


def test_verify_codes_the_exchange_once_per_report(cpc64, golden, monkeypatch):
    """Each sample's exchange coding is a window of the seed's coding, so a
    report makes one iet_coding call of samples + L - 1 letters."""
    lengths = []
    coding = construct.iet_coding

    def counted_coding(T, x, length):
        lengths.append(length)
        return coding(T, x, length)

    monkeypatch.setattr(construct, "iet_coding", counted_coding)
    report = verify_semiconjugacy(cpc64, golden, 64, 20)
    assert lengths == [83]
    assert report.decided_agree == 1280 and report.passed


def test_verify_detects_corrupted_intercepts(cpc64, golden):
    balls = list(cpc64.intercept_balls)
    balls[0] = Ball(balls[0].center + Fraction(1, 2**10), balls[0].radius)
    bad = replaced(cpc64, intercept_balls=tuple(balls))
    report = verify_semiconjugacy(bad, golden, 64, 20)
    assert report.decided_disagree > 0
    assert not report.passed
    assert not report.relabeling_identity
    assert report.first_disagreement is not None
    sample, position = report.first_disagreement
    assert position <= 20  # a 2^-10 shift cannot hide for long


@pytest.fixture(scope="module")
def constructions(golden):
    return [build_pc_from_iet(T, N=32) for T in (golden, flipped_exchange())]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1), st.integers(1, 32), st.integers(0, 48), st.integers(1, 80))
def test_exact_ball_orbit_matches_the_fraction_oracle(constructions, which, k,
                                                      widen, length):
    """verify_semiconjugacy's exact kernel gives the Fraction loop's letters
    and centres on gap-midpoint balls, widened by 2**-widen to move the
    first straddle forward (0 keeps the ball)."""
    cpc = constructions[which]
    ball = cpc.gaps.gap_mid_ball(k)
    if widen:
        ball = Ball(ball.center, ball.radius + Fraction(1, 2**widen))
    args = (ball, [b.lo for b in cpc.breakpoint_balls],
            [b.hi for b in cpc.breakpoint_balls],
            [Ball.point(s.to_fraction()) for s in cpc.pc.slopes],
            cpc.intercept_balls, None)
    walk = list(oracle_ball_orbit(*args, length))
    floats = []
    assert pc.ball_orbit(*args, length, floats) == [i for i, _ in walk]
    assert floats == [float(b.center) for _, b in walk]


def test_verify_argument_validation(cpc64, golden):
    with pytest.raises(ValueError):
        verify_semiconjugacy(cpc64, golden, 0, 5)
    with pytest.raises(ValueError):
        verify_semiconjugacy(cpc64, golden, 8, 65)


# ------------------------------------------- family-quantified certificates


def _wrap(pc, bp_radius=Fraction(0), ic_radius=Fraction(0)):
    """A minimal enclosure carrier around an exact contraction: 64-bit
    dyadic balls around its parameters (exact for dyadic ones), widened by
    the given radii."""

    def ball(v, radius):
        b = to_ball(v, 64)
        return Ball(b.center, b.radius + radius)

    return types.SimpleNamespace(
        pc=pc,
        breakpoint_balls=tuple(ball(b, bp_radius) for b in pc.breakpoints),
        intercept_balls=tuple(ball(c, ic_radius) for c in pc.intercepts),
    )


def test_robust_certificate_accepts_point_enclosures():
    f = new_pc(
        [0, Fraction(1, 2), 1],
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(3, 4), Fraction(-1, 4)],
    )
    cert = certify_periodic(f, 0)
    assert cert is not None
    # zero-radius balls: the family is just f, so the certificate holds
    assert robust_certificate(_wrap(f), cert)
    # and the wrapped object certifies through the same public entry point
    wrapped_cert = certify_periodic(_wrap(f), 0)
    assert wrapped_cert is not None and wrapped_cert.p == cert.p


def test_robust_certificate_rejects_wide_enclosures():
    f = new_pc(
        [0, Fraction(1, 2), 1],
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(3, 4), Fraction(-1, 4)],
    )
    cert = certify_periodic(f, 0)
    # quarter-unit intercept uncertainty: some family member breaks the cycle
    assert not robust_certificate(_wrap(f, ic_radius=Fraction(1, 4)), cert)
    assert certify_periodic(_wrap(f, ic_radius=Fraction(1, 4)), 0) is None
    # garbage period words are rejected outright
    for period in ((1, 7), ()):
        bad = replaced(cert, period=period, p=len(period))
        assert not robust_certificate(_wrap(f), bad)


def test_robust_certificate_refuses_preperiod_letters_outside_the_pieces():
    """A preperiod letter outside 1..n names no piece: -1 must not be read
    as piece 2's domain with piece 1's map, nor 3 raise IndexError."""
    f = new_pc([0, Fraction(1, 12), 1], [Fraction(1, 2)] * 2, [0, 0])
    cert = certify_periodic(f, Fraction(3, 35))
    assert cert.preperiod == (2,) and robust_certificate(_wrap(f), cert)
    for letter in (-1, 0, 3):
        assert not robust_certificate(_wrap(f), replaced(cert, preperiod=(letter,)))


@settings(max_examples=30, deadline=None)
@given(slope_maps(3, min_pieces=2, max_pieces=3))
def test_carriers_with_slopes_off_powers_of_two_are_refused(case):
    """The family check runs on slopes +-2**-k only, so a slope-1/3
    carrier is refused even where its representative certifies."""
    f, x = case
    cert = certify_periodic(f, x)
    assume(cert is not None)
    carrier = _wrap(f)
    assert construct._Family.of(carrier) is None
    assert not robust_certificate(carrier, cert)
    assert certify_periodic(carrier, x) is None


def test_representative_lock_in_is_not_family_robust(cpc64):
    """The dyadic representative of the golden construction genuinely locks
    onto a periodic attractor; the family-quantified check must reject the
    resulting certificate, because the true contraction's coding factors
    onto an aperiodic rotation coding."""
    rep_cert = certify_periodic(cpc64.pc, Fraction(1, 3))
    assert rep_cert is not None
    assert rep_cert.p == 34
    assert not robust_certificate(cpc64, rep_cert)
    assert certify_periodic(cpc64, Fraction(1, 3)) is None


def test_certify_does_word_work_once_per_period_word(cpc64, monkeypatch):
    """The refused golden search meets 68 distinct period words (474 times
    over, across m and overlapping candidates); the cylinder and cycle
    check and the family-robust word half each run once per distinct
    word."""
    cycled, robust = [], []
    self_mapping_cycle, robust_cycle = pc._self_mapping_cycle, construct._robust_cycle

    def counted_cycle(f, word):
        cycled.append(tuple(word))
        return self_mapping_cycle(f, word)

    def counted_robust(family, word):
        robust.append(tuple(word))
        return robust_cycle(family, word)

    monkeypatch.setattr(pc, "_self_mapping_cycle", counted_cycle)
    monkeypatch.setattr(construct, "_robust_cycle", counted_robust)
    assert certify_periodic(cpc64, Fraction(1, 3)) is None
    assert len(cycled) == len(set(cycled)) == 68
    assert len(robust) == len(set(robust)) == 68


def test_empirical_factor_continues_in_balls_past_the_bit_budget(cpc64):
    """A 256-bit budget runs out after 192 exact steps, so most samples come
    from the outward-rounded ball orbit; its figures are pinned."""
    fac = empirical_factor(cpc64, 0, m=1000, bit_budget=256)
    assert fac.approximate
    assert fac.visit_counts == (618, 382)
    assert fac.breakpoints_hat == (0.0, 0.618, 1.0)
    assert fac.residual == 0.0010000000000000564


# ------------------------------------------------ search memo equivalence


def _inside(C, lo, hi, lo_closed, hi_closed):
    """Is the nonempty interval with these ends inside the cylinder tuple C?
    Written out here, not taken from ietpc.intervals, so the reference
    shares no interval code with the search it checks."""
    clo, chi, clo_closed, chi_closed = C
    return (clo < lo or (clo == lo and (clo_closed or not lo_closed))) and (
        hi < chi or (hi == chi and (chi_closed or not hi_closed)))


def _reference_certify(f, x, budget, bit_budget, accept=None):
    """The certificate search without memos: every m composes its rotation
    of the period word on the exact path and re-derives the cycle's
    verdicts afresh."""
    x0 = as_exact(x)
    candidates, float_letters = pc._detection_candidates(f, x0, budget)
    orbit, letters = [x0], []

    def orbit_point(m):
        while len(orbit) <= m:
            point = orbit[-1]
            if point.bit_size() > bit_budget:
                raise DenominatorBlowup(len(orbit) - 1, point.bit_size(), bit_budget)
            i, point = f.step(point)
            letters.append(i)
            orbit.append(point)
        return orbit[m]

    for q_hint, p in candidates:
        if q_hint + 2 * p + 1 > budget:
            continue
        base = tuple(float_letters[q_hint : q_hint + p])
        for m in range(max(0, q_hint - p), q_hint + 2 * p + 1):
            shift = (m - q_hint) % p
            word = base[shift:] + base[:shift]
            built = pc._compose_cycle(f, word)
            if built is None:
                continue
            C, a, c = built
            lo, hi, lo_closed, hi_closed = C
            u, v = a * lo + c, a * hi + c
            image = ((u, v, lo_closed, hi_closed) if a > 0
                     else (v, u, hi_closed, lo_closed))
            if not _inside(C, *image):
                continue
            point = orbit_point(m)
            if not _inside(C, point, point, True, True):
                continue
            fixed = c / (ExactNumber(1) - a)
            if not _inside(C, fixed, fixed, True, True):
                continue
            cert = PeriodicCertificate(x0, m, p, tuple(letters[:m]), word,
                                       Interval(*C), a, c, fixed)
            if accept is None or accept(cert):
                return cert
    return None


RADII = st.sampled_from([Fraction(0), Fraction(1, 2**60), Fraction(1, 2**24),
                         Fraction(1, 2**12), Fraction(1, 2**6)])
# short budgets make some searches give up, and small bit budgets make some
# raise DenominatorBlowup, so both outcomes are compared too
SEARCHES = st.fixed_dictionaries({"budget": st.sampled_from([5, 12, 512]),
                                  "bit_budget": st.sampled_from([10, 4096])})


def _search(f, x, **kw):
    """The search's answer, or the type of error it raised."""
    try:
        return kw.pop("reference", certify_periodic)(f, x, **kw)
    except DenominatorBlowup as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(half_slope_maps(min_pieces=2, max_pieces=3), SEARCHES)
# x -> x/2 + 1/2 maps [0, 1) into itself but fixes 1, outside it: the orbit
# is still walked first, so the 10-bit budget raises as before
@example(case=(new_pc([0, 1], [Fraction(1, 2)], [Fraction(1, 2)]),
               Fraction(1, 3)),
         search={"budget": 512, "bit_budget": 10})
def test_certify_matches_memo_free_reference(case, search):
    f, x = case
    assert _search(f, x, **search) == _search(
        f, x, reference=_reference_certify, **search)


@settings(max_examples=100, deadline=None)
@given(half_slope_maps(min_pieces=2, max_pieces=3), SEARCHES, RADII, RADII)
def test_certify_with_enclosures_matches_memo_free_reference(
        case, search, bp_r, ic_r):
    f, x = case
    carrier = _wrap(f, bp_r, ic_r)
    expected = _search(
        f, x, reference=_reference_certify,
        accept=lambda cert: robust_certificate(carrier, cert), **search)
    assert _search(carrier, x, **search) == expected


@settings(max_examples=60, deadline=None)
@given(half_slope_maps(min_pieces=2, max_pieces=3), SEARCHES, RADII, RADII)
def test_robust_verdict_does_not_depend_on_the_memo(case, search, bp_r, ic_r):
    f, x = case
    certs = []  # every certificate the exact search produces, repeats kept
    try:
        pc._certify_exact(f, x, _accept=certs.append, **search)
    except DenominatorBlowup:
        pass
    carrier = _wrap(f, bp_r, ic_r)
    family = construct._Family.of(carrier)
    for cert in certs + certs:
        assert robust_certificate(carrier, cert, _family=family) == (
            robust_certificate(carrier, cert))


# ------------------------------------------------------ dyadic word kernel


def test_empirical_factor_keeps_its_transient_memory_small(cpc64):
    """The golden orbit's sampled floats, distribution values and jumps sit
    in float arrays: at m = 20000 the traced peak stays under 2 MiB (it was
    2.9 MiB with lists)."""
    tracemalloc.start()
    try:
        empirical_factor(cpc64, 0, m=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _kernel_words(f, x, cert):
    """Every word up to length 3, windows of x's coding up to length 8, and
    every rotation of the period word of the map's certificate for x, if it
    has one."""
    letters = pc.coding(f, x, 40).symbols
    words = {letters[i:i + p] for p in range(1, 9) for i in range(0, 40 - p, 3)}
    words |= {w for p in (1, 2, 3)
              for w in itertools.product(range(1, f.n + 1), repeat=p)}
    if cert is not None:
        words |= {cert.period[i:] + cert.period[:i] for i in range(cert.p)}
    return sorted(words)


# Dyadic maps whose words reach ties the random maps rarely do, each found
# by searching for a map that tells a wrong endpoint flag from the right one
TIES = (
    # the cycle of (2, 1) maps (3/4, 1) into itself and fixes its open end
    new_pc([0, Fraction(1, 2), 1], [Fraction(-1, 4), Fraction(-1, 2)],
           [Fraction(7, 8), Fraction(7, 8)]),
    # the cylinder of (3, 2, 1) is (3/4, 1): a closed preimage end meets an
    # open one
    new_pc([0, Fraction(1, 4), Fraction(3, 4), 1],
           [Fraction(1, 4), Fraction(-1, 2), Fraction(-1, 4)],
           [Fraction(15, 16), Fraction(3, 8), Fraction(15, 16)]),
    # piece 1 maps [0, 1/2) onto (1/4, 1/2], closed at the open end 1/2
    new_pc([0, Fraction(1, 2), 1], [Fraction(-1, 2), Fraction(1, 2)],
           [Fraction(1, 2), Fraction(3, 8)]),
    # the cycle of (3, 2) maps the closed end of (1/2, 3/4] onto its open end
    new_pc([0, Fraction(1, 8), Fraction(1, 4), 1],
           [Fraction(1, 4), Fraction(1, 2), Fraction(-1, 2)],
           [Fraction(27, 32), Fraction(7, 16), Fraction(1, 2)]),
    # the cylinder of (2, 2) shrinks to the point 3/4 with both ends open
    new_pc([0, Fraction(1, 8), Fraction(3, 4), 1],
           [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 2)],
           [Fraction(0), Fraction(15, 16), Fraction(1, 8)]),
    # the for-all cylinder of (1, 1) shrinks to the point 1/8 with both
    # ends open
    new_pc([0, Fraction(1, 8), Fraction(7, 8), 1],
           [Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 2)],
           [Fraction(5, 32), Fraction(29, 32), Fraction(23, 32)]),
    # the for-all cylinder of (1, 2) shrinks to the point 1/2 with one end
    # open, and the cycle fixes 1/2
    new_pc([0, Fraction(1, 2), 1], [Fraction(1, 2), Fraction(1, 2)],
           [Fraction(1, 4), Fraction(1, 4)]),
)


def _with_ties(**kwargs):
    """Add an example from 7/8 on every map of TIES, with kwargs besides."""

    def add(test):
        for f in TIES:
            test = example(case=(f, Fraction(7, 8)), **kwargs)(test)
        return test

    return add


@settings(max_examples=100, deadline=None)
@given(dyadic_maps(max_pieces=3))
@_with_ties()
def test_dyadic_kernel_words_match_the_exact_path(case):
    f, x = case
    kernel = pc._DyadicPc.of(f)
    assert kernel is not None
    for word in _kernel_words(f, x, certify_periodic(f, x)):
        assert pc._self_mapping_cycle(kernel, word) == pc._self_mapping_cycle(f, word)


@settings(max_examples=100, deadline=None)
@given(st.one_of(dyadic_maps(max_pieces=3), half_slope_maps(max_pieces=3)),
       RADII, RADII)
@_with_ties(bp_r=Fraction(0), ic_r=Fraction(0))
def test_scaled_family_words_match_the_exact_path(case, bp_r, ic_r):
    """Carrier ends are dyadic balls, so the family of any slope-1/2 map,
    dyadic or not, runs on the scaled kernel."""
    f, x = case
    family = construct._Family.of(_wrap(f, bp_r, ic_r))
    assert family is not None
    for word in _kernel_words(f, x, certify_periodic(f, x)):
        assert construct._robust_cycle(family, word) == (
            exact_robust_cycle(family, word))


def test_non_dyadic_maps_never_enter_the_kernel(monkeypatch):
    """A 1/60-grid map, like certify-lockin's, certifies on the exact path;
    a dyadic one reaches the patched kernel."""

    def refuse(*args):
        raise AssertionError("entered the dyadic kernel")

    monkeypatch.setattr(pc._DyadicPc, "self_mapping_cycle", refuse)
    sixtieths = new_pc([0, Fraction(20, 60), 1], [Fraction(1, 2)] * 2,
                       [Fraction(60, 120), Fraction(-20, 120)])
    cert = certify_periodic(sixtieths, 0)
    assert cert is not None and cert.fixed_point == Fraction(1, 9)
    assert check_certificate(sixtieths, cert)
    dyadic = new_pc([0, Fraction(1, 2), 1], [Fraction(1, 2)] * 2,
                    [Fraction(3, 4), Fraction(-1, 4)])
    with pytest.raises(AssertionError, match="dyadic kernel"):
        certify_periodic(dyadic, 0)


def _exact_robust(carrier):
    """robust_certificate with the ExactNumber word half, the kernel's
    oracle."""

    def accept(cert):
        with mock.patch.object(construct, "_robust_cycle", exact_robust_cycle):
            return robust_certificate(carrier, cert)

    return accept


@settings(max_examples=100, deadline=None)
@given(dyadic_maps(min_pieces=2, max_pieces=3), SEARCHES)
def test_dyadic_certify_matches_memo_free_reference(case, search):
    f, x = case
    assert _search(f, x, **search) == _search(
        f, x, reference=_reference_certify, **search)


@settings(max_examples=100, deadline=None)
@given(dyadic_maps(min_pieces=2, max_pieces=3), SEARCHES, RADII, RADII)
def test_dyadic_certify_with_enclosures_matches_memo_free_reference(
        case, search, bp_r, ic_r):
    f, x = case
    carrier = _wrap(f, bp_r, ic_r)
    expected = _search(f, x, reference=_reference_certify,
                       accept=_exact_robust(carrier), **search)
    assert _search(carrier, x, **search) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(dyadic_maps(max_pieces=3), half_slope_maps(max_pieces=3)),
       RADII, RADII)
def test_robust_certificates_hold_on_every_corner_member(case, bp_r, ic_r):
    """Each family member whose interior breakpoints and intercepts sit at
    ends of the carrier's balls, and which is a valid contraction, codes
    the start as a robust certificate says."""
    f, x = case
    carrier = _wrap(f, bp_r, ic_r)
    certs = []  # every certificate the exact search produces
    try:
        pc._certify_exact(f, x, 512, 4096, _accept=certs.append)
    except DenominatorBlowup:
        pass
    unique = {(c.q, c.period): c for c in certs}.values()
    robust = [c for c in unique if robust_certificate(carrier, c)]
    # every member runs on [0, 1), so only interior breakpoints move
    corners = ([[0]] + [sorted({b.lo, b.hi}) for b in carrier.breakpoint_balls[1:-1]]
               + [[1]] + [sorted({b.lo, b.hi}) for b in carrier.intercept_balls])
    members = []
    for values in itertools.product(*corners):
        try:
            members.append(new_pc(values[:f.n + 1], f.slopes, values[f.n + 1:]))
        except IetpcError:
            pass
    for cert in robust:
        length = cert.q + 3 * cert.p
        expected = cert.eventual_word(length).symbols
        for g in members:
            assert pc.coding(g, cert.start, length).symbols == expected
