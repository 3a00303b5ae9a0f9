"""Gap construction: the piecewise half-affine contraction attached to an IET.

Given an exchange T and a point whose orbit p_1, p_2, ... is (expected to be)
dense and avoids the partition points, each index k receives a gap

    G_k = [ sum_{l in L_k} 2^-l ,  2^-k + sum_{l in L_k} 2^-l ],
    L_k = { l >= 1 : p_l < p_k },

so the gaps are pairwise disjoint, carry total measure 1, and are ordered on
the line exactly like the orbit points.  The contraction maps G_k onto
G_{k+1} affinely with slope sign(T' at p_k)/2; reading the induced affine
rule off any one piece of T determines an injective piecewise contraction
semiconjugate to T via the monotone map sending G_k to p_k.

Everything emitted about the true (infinite-sum) object is a Ball whose
radius absorbs the tail beyond the truncation depth N; alongside, an exact
dyadic representative contraction is synthesized that provably validates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._record import record
from .errors import (
    BadAlphabet,
    InterceptMismatch,
    InvalidSeed,
    NotTransitiveEvidence,
    OrbitHitsBreakpoint,
    PrefixTooShort,
)
from .iet import Iet
from .iet import coding as iet_coding
from .numeric import Ball, ExactNumber, Scalarish, as_exact, format_scalar
from .pc import PiecewiseContraction, _dyadic_scale, ball_orbit, new_pc
from .words import SymbolicWord, fibonacci_word


# --------------------------------------------------------------- gap system


@record
class GapSystem:
    """Truncated orbit/gap data for one IET and seed.

    orbit[k-1] is p_k (1-based k up to depth); inf_truncs[k-1] is the partial
    sum over l <= depth of 2^-l for p_l < p_k, so the true inf G_k lies in
    [inf_truncs[k-1], inf_truncs[k-1] + 2^-depth].
    """

    iet: Iet
    seed: ExactNumber
    depth: int
    orbit: tuple[ExactNumber, ...]
    piece_of: tuple[int, ...]
    inf_truncs: tuple[Fraction, ...]
    breakpoint_truncs: tuple[Fraction, ...]
    warnings: tuple[str, ...]

    @property
    def tail(self) -> Fraction:
        return Fraction(1, 2**self.depth)

    @property
    def total_truncated_measure(self) -> Fraction:
        return 1 - self.tail

    def gap_inf_ball(self, k: int) -> Ball:
        half = self.tail / 2
        return Ball(self.inf_truncs[k - 1] + half, half)

    def gap_sup_ball(self, k: int) -> Ball:
        half = self.tail / 2
        return Ball(self.inf_truncs[k - 1] + half + Fraction(1, 2**k), half)

    def gap_mid_ball(self, k: int) -> Ball:
        half = self.tail / 2
        return Ball(self.inf_truncs[k - 1] + half + Fraction(1, 2 ** (k + 1)), half)

    def breakpoint_ball(self, i: int) -> Ball:
        """Enclosure of the constructed breakpoint below IET breakpoint i."""
        if i == 0:
            return Ball(Fraction(0), Fraction(0))
        if i == self.iet.n:
            return Ball(Fraction(1), Fraction(0))
        half = self.tail / 2
        return Ball(self.breakpoint_truncs[i] + half, half)


def build_gap_system(T: Iet, seed: Scalarish, N: int) -> GapSystem:
    """Compute the depth-N orbit and truncated gap sums.

    The orbit must avoid every partition point of T for N steps (checked
    exactly; OrbitHitsBreakpoint otherwise).  A piece never visited by the
    orbit is recorded as a warning: the construction still runs but the
    result cannot be transitive evidence for that piece.
    """
    if N < 16:
        raise ValueError("truncation depth N must be >= 16")
    s = as_exact(seed)
    partition = set(T.breakpoints[:-1])
    orbit = []
    pieces = []
    point = s
    for k in range(N):
        if point in partition:
            raise OrbitHitsBreakpoint(k)
        orbit.append(point)
        i, point = T.step(point)
        pieces.append(i)

    order = sorted(range(N), key=orbit.__getitem__)
    inf_truncs: list[Optional[Fraction]] = [None] * N
    acc = Fraction(0)
    pending = Fraction(0)
    prev = None
    for idx in order:
        if prev is None or orbit[idx] != prev:
            acc += pending
            pending = Fraction(0)
        inf_truncs[idx] = acc
        pending += Fraction(1, 2 ** (idx + 1))
        prev = orbit[idx]

    piece_of = tuple(pieces)
    bp_truncs = [Fraction(0)]
    for i in range(1, T.n):
        y = T.breakpoints[i]
        bp_truncs.append(
            sum(
                (Fraction(1, 2 ** (l + 1)) for l in range(N) if orbit[l] < y),
                Fraction(0),
            )
        )
    bp_truncs.append(1 - Fraction(1, 2**N))

    warnings = []
    for i in range(1, T.n + 1):
        if i not in piece_of:
            warnings.append(f"orbit never visits piece {i} in {N} steps")
    return GapSystem(
        iet=T,
        seed=s,
        depth=N,
        orbit=tuple(orbit),
        piece_of=piece_of,
        inf_truncs=tuple(inf_truncs),
        breakpoint_truncs=tuple(bp_truncs),
        warnings=tuple(warnings),
    )


# ------------------------------------------------------------- seed choice


def valid_seeds(T: Iet) -> tuple[ExactNumber, ...]:
    """Seeds compatible with a piece-independent intercept.

    The affine rule on a piece J_i is k-independent only if the predicate
    "p_1 < T(p_k)" is constant as T(p_k) runs through the image of J_i,
    which forces the first orbit point to sit on an image boundary.  The
    admissible seeds are therefore exactly the images of the pieces' left
    endpoints, tried in the order T(x_1), ..., T(x_{n-1}), T(0).
    """
    candidates = [T.images[i].lo for i in range(1, T.n)]
    candidates.append(T.images[0].lo)
    out = []
    for c in candidates:
        if c not in out:
            out.append(c)
    return tuple(out)


def default_seed(T: Iet, N: int) -> ExactNumber:
    partition = set(T.breakpoints[:-1])
    for cand in valid_seeds(T):
        point = cand
        ok = True
        for _ in range(N):
            if point in partition:
                ok = False
                break
            point = T.eval(point)
        if ok:
            return cand
    raise InvalidSeed(
        "no image of a partition endpoint has a breakpoint-free orbit; "
        "the exchange looks finite-orbit on all default seeds"
    )


# ------------------------------------------------------- constructed object


@record
class PieceProvenance:
    piece: int
    sign: int
    earliest_gap: int
    crosscheck_gap: Optional[int]
    intercept: Ball


@record
class ConstructedPc:
    """Exact representative contraction plus enclosures of the true one."""

    pc: PiecewiseContraction
    gaps: GapSystem
    seed_piece: int
    breakpoint_balls: tuple[Ball, ...]
    intercept_balls: tuple[Ball, ...]
    provenance: tuple[PieceProvenance, ...]
    error_bound: Fraction

    def to_sidecar_dict(self) -> dict:
        def ball(b: Ball) -> dict:
            return {
                "center": format_scalar(ExactNumber(b.center)),
                "radius": format_scalar(ExactNumber(b.radius)),
            }

        return {
            "type": "construction-sidecar",
            "depth": self.gaps.depth,
            "seed": format_scalar(self.gaps.seed),
            "seed_piece": self.seed_piece,
            "error_bound": format_scalar(ExactNumber(self.error_bound)),
            "warnings": list(self.gaps.warnings),
            "breakpoint_balls": [ball(b) for b in self.breakpoint_balls],
            "intercept_balls": [
                {
                    "piece": p.piece,
                    "sign": p.sign,
                    "earliest_gap": p.earliest_gap,
                    "crosscheck_gap": p.crosscheck_gap,
                    **ball(p.intercept),
                }
                for p in self.provenance
            ],
            "gap_orbit": [
                {
                    "gap": k + 1,
                    "orbit_point": format_scalar(self.gaps.orbit[k]),
                    "piece": self.gaps.piece_of[k],
                }
                for k in range(self.gaps.depth)
            ],
        }


def _intercept_ball(gs: GapSystem, sign: int, k: int) -> Ball:
    """Intercept enclosure read off the pair (G_k, G_{k+1})."""
    nxt = gs.gap_inf_ball(k + 1)
    if sign == 1:
        return nxt - gs.gap_inf_ball(k).scale(Fraction(1, 2))
    return nxt + gs.gap_sup_ball(k).scale(Fraction(1, 2))


def build_pc_from_iet(
    T: Iet, seed: Optional[Scalarish] = None, N: int = 64
) -> ConstructedPc:
    """Build the semiconjugate piecewise half-affine contraction.

    When seed is omitted the first admissible image-endpoint seed is used.
    An explicit seed must be the image of a piece's left endpoint; interior
    seeds are rejected because they cannot yield a consistent intercept.
    """
    if T.n == 1:
        raise NotTransitiveEvidence("a 1-piece exchange has no dense orbit")
    if seed is None:
        s = default_seed(T, N)
    else:
        s = as_exact(seed)
        if all(s != v for v in valid_seeds(T)):
            raise InvalidSeed(
                f"seed {s} is not the image of a partition endpoint; "
                "the induced intercept would depend on the gap index"
            )
    gs = build_gap_system(T, s, N)
    if gs.warnings:
        raise NotTransitiveEvidence("; ".join(gs.warnings))

    n = T.n
    # seed piece: the piece whose image interval starts at the seed; the
    # hole (the untouched first gap) sits immediately below that image.
    seed_piece = T.image_piece_index(s)

    # exact dyadic representative: chain truncated widths so that domain
    # pieces tile [0, 1) and image intervals are verifiably disjoint
    width = [Fraction(0)] * (n + 1)
    for k in range(N):
        width[gs.piece_of[k]] += Fraction(1, 2 ** (k + 1))
    bps = [Fraction(0)]
    for i in range(1, n + 1):
        bps.append(bps[-1] + width[i])
    bps[n] = Fraction(1)  # last piece absorbs the 2^-N tail deficit

    order = T._image_order[1]

    eps = Fraction(1, 2 ** (N + 4))
    sep_before: dict[int, bool] = {}
    sep_count = 0
    for j, i in enumerate(order):
        need = (
            i != seed_piece
            and j > 0
            and T.signs[order[j - 1] - 1] == -1
            and T.signs[i - 1] == 1
        )
        sep_before[i] = need
        if need:
            sep_count += 1
    trailing = T.signs[order[-1] - 1] == -1
    if trailing:
        sep_count += 1
    hole = Fraction(1, 2) - sep_count * eps

    pos: dict[int, Fraction] = {}
    u = Fraction(0)
    for i in order:
        if i == seed_piece:
            u += hole
        elif sep_before[i]:
            u += eps
        pos[i] = u
        u += (bps[i] - bps[i - 1]) / 2
    assert u + (eps if trailing else Fraction(0)) == 1

    slopes = [Fraction(T.signs[i - 1], 2) for i in range(1, n + 1)]
    intercepts = []
    for i in range(1, n + 1):
        if T.signs[i - 1] == 1:
            intercepts.append(pos[i] - bps[i - 1] / 2)
        else:
            v = (bps[i] - bps[i - 1]) / 2
            intercepts.append(pos[i] + v + bps[i - 1] / 2)
    pc = new_pc(bps, slopes, intercepts)

    # enclosures of the true parameters, with the per-piece cross-check
    bp_balls = tuple(gs.breakpoint_ball(i) for i in range(n + 1))
    intercept_balls = []
    provenance = []
    for i in range(1, n + 1):
        ks = [k + 1 for k in range(N - 1) if gs.piece_of[k] == i]
        if not ks:
            raise NotTransitiveEvidence(f"no gap lands in piece {i}")
        k1 = ks[0]
        ball1 = _intercept_ball(gs, T.signs[i - 1], k1)
        k2 = ks[1] if len(ks) > 1 else None
        if k2 is not None:
            ball2 = _intercept_ball(gs, T.signs[i - 1], k2)
            if not ball1.overlaps(ball2):
                raise InterceptMismatch(
                    f"piece {i}: gaps {k1} and {k2} give disjoint intercept "
                    f"enclosures {ball1} and {ball2}"
                )
        intercept_balls.append(ball1)
        provenance.append(PieceProvenance(i, T.signs[i - 1], k1, k2, ball1))

    err = Fraction(0)
    for i in range(n + 1):
        dev = abs(bps[i] - bp_balls[i].center) + bp_balls[i].radius
        err = max(err, dev)
    for i in range(n):
        dev = abs(intercepts[i] - intercept_balls[i].center) + intercept_balls[i].radius
        err = max(err, dev)

    return ConstructedPc(
        pc=pc,
        gaps=gs,
        seed_piece=seed_piece,
        breakpoint_balls=bp_balls,
        intercept_balls=tuple(intercept_balls),
        provenance=tuple(provenance),
        error_bound=err,
    )


# --------------------------------------------- certification vs enclosures


def robust_certificate(
    cpc: ConstructedPc, cert, _family: Optional["_Family"] = None
) -> bool:
    """Does the certificate hold for EVERY map inside the enclosures?

    The representative contraction is one member of a family: any map whose
    breakpoints and intercepts lie in cpc's balls (the true infinite-sum
    contraction is another member).  A certificate proved for the exact
    representative may be an artifact of truncation: near a rotation the
    representative genuinely locks onto a periodic attractor whose margins
    are far below the enclosure radii.  This check redoes the certificate
    computations with interval arithmetic quantified over the whole family,
    in two halves.  The word half depends on the period word alone:

      * an inner cylinder contained in the true itinerary cylinder of the
        period word, whatever the true parameters are;
      * the cycle must map the inner cylinder into itself as a point set
        even after inflating images by the intercept uncertainty (endpoint
        flags carry the half-open bookkeeping, matching the exact checker).

    The start-orbit half then runs the orbit of the start point, inflated by
    parameter uncertainty, through the preperiod; it must land inside the
    inner cylinder.

    The family is checked when its ball ends are dyadic and its slopes are
    +-2**-k, as for every build_pc_from_iet result; any other carrier is
    refused (False).  _family, when given, is _Family.of(cpc), whose memo
    keeps the word half of each period word (certify_periodic passes one
    per search).  All endpoints stay exact, so True is a proof that the
    true contraction's coding of cert.start is ultimately periodic with the
    certified word.
    """
    family = _Family.of(cpc) if _family is None else _family
    if family is None:
        return False
    word, cycles = tuple(cert.period), family.cycles
    # the memo only holds words whose letters were checked
    if not word or len(word) != cert.p or (
            word not in cycles and any(not 1 <= w <= cpc.pc.n for w in word)):
        return False
    if word not in cycles:
        cycles[word] = _robust_cycle(family, word)
    cylinder = cycles[word]
    if cylinder is None:
        return False

    y = as_exact(cert.start)
    hull = (y, False, y, False)
    for letter in cert.preperiod:
        hull = family.step(hull, letter)
        if hull is None:
            return False
    return _encloses(cylinder, hull)


# Intervals of the family-robust check are (lo, lo_open, hi, hi_open) with
# exact endpoints.  The open flags matter: a hull whose supremum is never
# attained may share that supremum with a half-open piece and still be
# contained in it, and the exact cylinders produced by the backward
# recursion bind against some piece boundary almost always.


def _encloses(a: tuple, b: tuple) -> bool:
    """Is interval b a subset of interval a, endpoint flags respected?
    Ends may be exact scalars or numerators over one power of two."""
    alo, alo_open, ahi, ahi_open = a
    blo, blo_open, bhi, bhi_open = b
    if blo < alo or (blo == alo and alo_open and not blo_open):
        return False
    if bhi > ahi or (bhi == ahi and ahi_open and not bhi_open):
        return False
    return True


@record
class _Family:
    """Worst-case parameters of every map inside a carrier's enclosures,
    exact and as _dyadic_scale's integers (scaled)."""

    slopes: tuple[ExactNumber, ...]
    bp_lo: tuple[ExactNumber, ...]
    bp_hi: tuple[ExactNumber, ...]
    ic_lo: tuple[ExactNumber, ...]
    ic_hi: tuple[ExactNumber, ...]
    scaled: tuple

    @classmethod
    def of(cls, cpc) -> Optional["_Family"]:
        """The family of cpc, or None unless every ball end is dyadic and
        every slope is +-2**-k."""
        bps, ics = cpc.breakpoint_balls, cpc.intercept_balls
        ends = ([b.lo for b in bps], [b.hi for b in bps],
                [b.lo for b in ics], [b.hi for b in ics])
        scaled = _dyadic_scale(ends, cpc.pc.slopes)
        if scaled is None:
            return None
        return cls(cpc.pc.slopes, *(tuple(map(ExactNumber, vs)) for vs in ends),
                   scaled)

    @cached_property
    def cycles(self) -> dict:
        """robust_certificate's memo: period word -> _robust_cycle's answer."""
        return {}

    def inner_piece(self, i: int) -> tuple:
        """[worst-case left endpoint, worst-case right endpoint) of piece i."""
        return self.bp_hi[i - 1], False, self.bp_lo[i], True

    def step(self, y: tuple, letter: int) -> Optional[tuple]:
        """Hull of y's images under piece `letter` of every family member,
        or None when y may leave that piece or there is no such piece."""
        if not 1 <= letter <= len(self.slopes) or not _encloses(
                self.inner_piece(letter), y):
            return None
        ylo, ylo_open, yhi, yhi_open = y
        s = self.slopes[letter - 1]
        blo, bhi = self.ic_lo[letter - 1], self.ic_hi[letter - 1]
        if s > 0:
            return s * ylo + blo, ylo_open, s * yhi + bhi, yhi_open
        return s * yhi + blo, yhi_open, s * ylo + bhi, ylo_open


def _robust_cycle(family: _Family, word: tuple[int, ...]) -> Optional[tuple]:
    """The word half of robust_certificate: the for-all inner cylinder of
    word when the worst-case cycle hull lands back inside it, else None.

    It runs on the family's scaled integers.  The backward recursion stays
    over 2**e, a for-all preimage being a left shift; the forward hull of a
    word whose shifts sum to K ends over 2**(e + K).  Only the cylinder
    leaves as ExactNumbers.
    """
    e, (bp_lo, bp_hi, ic_lo, ic_hi), steps = family.scaled
    lo, lo_open, hi, hi_open = bp_hi[word[-1] - 1], False, bp_lo[word[-1]], True
    for letter in reversed(word[:-1]):
        sign, k = steps[letter - 1]
        blo, bhi = ic_lo[letter - 1], ic_hi[letter - 1]
        if sign > 0:
            pre_lo, pre_lo_open = (lo - blo) << k, lo_open
            pre_hi, pre_hi_open = (hi - bhi) << k, hi_open
        else:
            pre_lo, pre_lo_open = (bhi - hi) << k, hi_open
            pre_hi, pre_hi_open = (blo - lo) << k, lo_open
        plo, phi = bp_hi[letter - 1], bp_lo[letter]
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

    # the hull never leaves an inner piece on the way: each step lands
    # in the next letter's for-all preimage, which the recursion above
    # intersected with that letter's inner piece
    ylo, ylo_open, yhi, yhi_open = lo, lo_open, hi, hi_open
    shift = 0
    for letter in word:
        sign, k = steps[letter - 1]
        shift += k
        blo, bhi = ic_lo[letter - 1] << shift, ic_hi[letter - 1] << shift
        if sign > 0:
            ylo, yhi = ylo + blo, yhi + bhi
        else:
            ylo, ylo_open, yhi, yhi_open = blo - yhi, yhi_open, bhi - ylo, ylo_open
    if not _encloses((lo << shift, lo_open, hi << shift, hi_open),
                     (ylo, ylo_open, yhi, yhi_open)):
        return None
    scale = 1 << e
    return (ExactNumber(Fraction(lo, scale)), lo_open,
            ExactNumber(Fraction(hi, scale)), hi_open)


# ------------------------------------------------- rotation specialization


@record
class RotationPc:
    delta: Ball
    breakpoint: Ball
    degenerate: bool


def rotation_pc(theta: SymbolicWord) -> RotationPc:
    """Contraction data for a rotation, straight from its coding word.

    delta = (1/4) * sum of theta_l * 2^-l; the enclosure bounds the tail by
    1 <= theta_l <= 2.  The breakpoint of the induced 2-piece contraction is
    2 - 2*delta.  Degenerate means the enclosures do not certify that both
    delta and the breakpoint lie strictly inside (0, 1).
    """
    if any(c not in (1, 2) for c in theta):
        raise BadAlphabet("rotation coding must use letters 1 and 2")
    L = len(theta)
    if L < 8:
        raise PrefixTooShort("need at least 8 letters")
    partial = sum(
        (Fraction(theta[l], 2 ** (l + 2)) for l in range(L)), Fraction(0)
    )
    delta = Ball.from_endpoints(
        partial + Fraction(1, 2 ** (L + 1)), partial + Fraction(1, 2**L)
    )
    breakpoint = Ball(2 - 2 * delta.center, 2 * delta.radius)
    inside = (
        delta.lo > 0 and delta.hi < 1 and breakpoint.lo > 0 and breakpoint.hi < 1
    )
    return RotationPc(delta, breakpoint, not inside)


def rabbit_constant(precision_bits: int) -> Ball:
    """Enclosure of R = 1 - sum of w_l * 2^-(l+1) over the fibonacci word w."""
    if precision_bits < 8:
        raise ValueError("precision_bits must be >= 8")
    L = precision_bits + 2
    w = fibonacci_word(L)
    partial = sum(
        (Fraction(w[l], 2 ** (l + 1)) for l in range(L)), Fraction(0)
    )
    return Ball.from_endpoints(1 - partial - Fraction(1, 2**L), 1 - partial)


# ------------------------------------------------------------ verification


@record
class SemiconjugacyReport:
    """Outcome of comparing gap-midpoint codings against IET codings.

    A position is decided when the orbit ball clears every breakpoint ball;
    once a position is undecided the rest of that sample is unknowable and
    counts as undecided too.
    """

    samples: int
    length: int
    decided_agree: int
    decided_disagree: int
    undecided: int
    first_disagreement: Optional[tuple[int, int]]
    relabeling_identity: bool

    @property
    def total_positions(self) -> int:
        return self.samples * self.length

    @property
    def passed(self) -> bool:
        return self.decided_disagree == 0

    def to_json_dict(self) -> dict:
        return {
            "type": "semiconjugacy-report",
            "samples": self.samples,
            "length": self.length,
            "decided_agree": self.decided_agree,
            "decided_disagree": self.decided_disagree,
            "undecided": self.undecided,
            "first_disagreement": list(self.first_disagreement)
            if self.first_disagreement
            else None,
            "relabeling_identity": self.relabeling_identity,
            "passed": self.passed,
        }


def verify_semiconjugacy(
    cpc: ConstructedPc, T: Iet, L: int, samples: int
) -> SemiconjugacyReport:
    """Compare codings through the semiconjugacy on gap midpoints.

    For each gap index k <= samples the contraction's coding of the midpoint
    of G_k must reproduce the exact IET coding of the orbit point p_k letter
    for letter; T is the exchange cpc was built from.  The contraction side
    is run as a ball orbit: centers follow the exact dyadic representative,
    radii carry the distance to the true map, so any decided letter is
    certified.  The letter bijection between a sample's decided prefix and
    the IET coding is the identity exactly when all its letters agree (one
    differing letter sends a to b != a, or breaks the bijection), so
    relabeling_identity is decided_disagree == 0.
    """
    if L < 1 or samples < 1:
        raise ValueError("L and samples must be >= 1")
    gs = cpc.gaps
    if samples > gs.depth:
        raise ValueError("samples cannot exceed the gap-system depth")
    # exact slopes keep every step exact: no rounding grid below
    slopes = [Ball.point(s.to_fraction()) for s in cpc.pc.slopes]
    lower = [b.lo for b in cpc.breakpoint_balls]
    upper = [b.hi for b in cpc.breakpoint_balls]
    agree = disagree = undecided = 0
    first_disagreement = None
    # p_k = T^(k-1)(seed), so its coding is letters [k-1, k-1+L) of the seed's
    seed_letters = iet_coding(T, gs.seed, samples + L - 1).symbols
    for k in range(1, samples + 1):
        t_letters = seed_letters[k - 1:k - 1 + L]
        letters = ball_orbit(gs.gap_mid_ball(k), lower, upper, slopes,
                             cpc.intercept_balls, None, L)
        undecided += L - len(letters)
        for j, piece in enumerate(letters):
            if piece == t_letters[j]:
                agree += 1
            else:
                disagree += 1
                if first_disagreement is None:
                    first_disagreement = (k, j)
    return SemiconjugacyReport(
        samples=samples,
        length=L,
        decided_agree=agree,
        decided_disagree=disagree,
        undecided=undecided,
        first_disagreement=first_disagreement,
        relabeling_identity=disagree == 0,
    )
