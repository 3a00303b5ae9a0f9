"""Interval exchange transformations of [0, 1) under exact arithmetic.

Pieces follow the half-open convention [x_{i-1}, x_i).  A piece with sign -1
reverses orientation; its literal pointwise image would be left-open, which
cannot tile [0, 1) together with half-open images, so eval sends the piece's
left endpoint to the otherwise-missing infimum of the image.  This touches a
single point per flipped piece, keeps the map a genuine bijection of [0, 1),
and makes every piece image a half-open interval [lo, hi).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from ._record import record
from .errors import (
    BadPartition,
    NotBijective,
    OrbitHitsBreakpoint,
    OutOfDomain,
)
from .intervals import Interval
from .numeric import ExactNumber, Scalarish, as_exact
from .words import ComplexityTable, SymbolicWord


@record
class Iet:
    """A validated n-piece interval exchange; construct via new_iet."""

    breakpoints: tuple[ExactNumber, ...]
    signs: tuple[int, ...]
    translations: tuple[ExactNumber, ...]
    images: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.signs)

    @property
    def interior_breakpoints(self) -> tuple[ExactNumber, ...]:
        return self.breakpoints[1:-1]

    def step(self, x: Scalarish) -> tuple[int, ExactNumber]:
        """(index of the piece containing x, T(x)): one exact orbit step."""
        v = as_exact(x)
        i = bisect_right(self.breakpoints, v)
        if not 1 <= i <= self.n:
            raise OutOfDomain(f"{v} outside [0, 1)")
        if self.signs[i - 1] == 1:
            return i, v + self.translations[i - 1]
        if v == self.breakpoints[i - 1]:
            return i, self.images[i - 1].lo
        return i, self.translations[i - 1] - v

    def piece_index(self, x: Scalarish) -> int:
        """1-based index of the half-open piece containing x."""
        return self.step(x)[0]

    def eval(self, x: Scalarish) -> ExactNumber:
        return self.step(x)[1]

    @cached_property
    def _image_order(self) -> tuple[tuple[ExactNumber, ...], tuple[int, ...]]:
        """Left ends of the piece images in increasing order, and their pieces."""
        order = sorted(range(self.n), key=lambda i: self.images[i].lo)
        return tuple(self.images[i].lo for i in order), tuple(i + 1 for i in order)

    def image_piece_index(self, y: Scalarish) -> int:
        """1-based piece index whose image contains y."""
        v = as_exact(y)
        if v < 0 or v >= 1:
            raise OutOfDomain(f"{v} outside [0, 1)")
        starts, pieces = self._image_order
        # the images tile [0, 1), so the last image starting at or below v holds it
        return pieces[bisect_right(starts, v) - 1]

    def eval_inverse(self, y: Scalarish) -> ExactNumber:
        v = as_exact(y)
        j = self.image_piece_index(v)
        if self.signs[j - 1] == 1:
            return v - self.translations[j - 1]
        if v == self.images[j - 1].lo:
            return self.breakpoints[j - 1]  # left endpoint of piece j
        return self.translations[j - 1] - v

    def to_json_dict(self) -> dict:
        from .numeric import format_scalar

        return {
            "type": "iet",
            "breakpoints": [format_scalar(b) for b in self.breakpoints],
            "signs": list(self.signs),
            "translations": [format_scalar(t) for t in self.translations],
        }


def new_iet(
    breakpoints: Sequence[Scalarish],
    signs: Sequence[int],
    translations: Sequence[Scalarish],
) -> Iet:
    """Validate and build an IET; raises BadPartition or NotBijective."""
    bps = tuple(as_exact(b) for b in breakpoints)
    trs = tuple(as_exact(t) for t in translations)
    sgs = tuple(int(s) for s in signs)
    n = len(sgs)
    if n < 1 or len(bps) != n + 1 or len(trs) != n:
        raise BadPartition("need n+1 breakpoints, n signs, n translations")
    if any(s not in (-1, 1) for s in sgs):
        raise BadPartition("signs must be +1 or -1")
    if bps[0] != 0 or bps[-1] != 1:
        raise BadPartition("breakpoints must run from 0 to 1")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise BadPartition("breakpoints must be strictly increasing")
    images = []
    for i in range(n):
        if sgs[i] == 1:
            lo = bps[i] + trs[i]
            hi = bps[i + 1] + trs[i]
        else:
            lo = trs[i] - bps[i + 1]
            hi = trs[i] - bps[i]
        if lo < 0 or hi > 1:
            raise NotBijective(f"piece {i + 1} image [{lo}, {hi}) leaves [0, 1)")
        images.append(Interval(lo, hi))
    order = sorted(range(n), key=lambda i: images[i].lo)
    cursor = ExactNumber(0)
    for i in order:
        if images[i].lo != cursor:
            raise NotBijective("piece images do not tile [0, 1)")
        cursor = images[i].hi
    if cursor != 1:
        raise NotBijective("piece images do not tile [0, 1)")
    return Iet(bps, sgs, trs, tuple(images))


def coding(T: Iet, x: Scalarish, length: int) -> SymbolicWord:
    """Natural coding: letter at step k is the piece containing T^k(x)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    point = as_exact(x)
    letters = []
    for _ in range(length):
        i, point = T.step(point)
        letters.append(i)
    return SymbolicWord(letters, T.n, "iet coding")


def irreducible(T: Iet) -> bool:
    """False when a proper prefix of pieces maps onto its own initial segment."""
    for j in range(1, T.n):
        xj = T.breakpoints[j]
        if all(T.images[i].hi <= xj for i in range(j)):
            return False
    return True


@record
class IdocCertificate:
    """Finite certificate about the orbits of the interior breakpoints.

    verdict is one of "passed_to_depth", "failed_finite", "failed_disjoint".
    """

    depth: int
    verdict: str
    i: Optional[int] = None
    j: Optional[int] = None
    k: Optional[int] = None
    l: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.verdict == "passed_to_depth"

    def to_json_dict(self) -> dict:
        out: dict = {"depth": self.depth, "verdict": self.verdict}
        for name in ("i", "j", "k", "l"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def idoc_check(T: Iet, depth: int) -> IdocCertificate:
    """Check the infinite-distinct-orbit condition to the given depth.

    Iterates each interior breakpoint forward depth steps, watching for an
    exact repeat within one orbit (failed_finite) or an exact collision
    between two orbits (failed_disjoint).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    seen: dict[ExactNumber, tuple[int, int]] = {}
    for i in range(1, T.n):
        point = T.breakpoints[i]
        for k in range(depth + 1):
            if point in seen:
                j, l = seen[point]
                if j == i:
                    return IdocCertificate(depth, "failed_finite", i=i, k=k)
                return IdocCertificate(depth, "failed_disjoint", i=i, j=j, k=k, l=l)
            seen[point] = (i, k)
            point = T.eval(point)
    return IdocCertificate(depth, "passed_to_depth")


@record
class RefinementComplexity:
    __slots__ = ("table", "m_values", "m_nonincreasing")

    table: ComplexityTable
    m_values: tuple[int, ...]
    m_nonincreasing: bool


def refinement_complexity(T: Iet, x_regular: Scalarish, k_max: int) -> RefinementComplexity:
    """Complexity of the coding partition refined along backward orbits.

    p(k) = 1 + sum of m_0..m_{k-1}, where m_l counts the points of
    T^{-l}(interior breakpoints) inside (0, 1) not produced at a smaller l.
    The regular point only enters through the precondition that its forward
    orbit must miss the breakpoints for k_max steps (the table itself is a
    property of the partition refinement).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    point = as_exact(x_regular)
    interior = set(T.interior_breakpoints)
    for step in range(k_max + 1):
        if point in interior:
            raise OrbitHitsBreakpoint(step)
        point = T.eval(point)

    chains = list(T.interior_breakpoints)
    seen: set[ExactNumber] = set(chains)
    m_values = [len(chains)]
    for _ in range(1, k_max):
        count = 0
        for idx, c in enumerate(chains):
            c = T.eval_inverse(c)
            chains[idx] = c
            if c != 0 and c not in seen:
                seen.add(c)
                count += 1
        m_values.append(count)

    entries = []
    total = 1
    for k in range(1, k_max + 1):
        total += m_values[k - 1]
        entries.append((k, total))

    alpha = m_values[-1]
    run_start = len(m_values) - 1
    while run_start > 0 and m_values[run_start - 1] == alpha:
        run_start -= 1
    beta = 1 + sum(m_values[:run_start]) - alpha * run_start
    k0 = max(run_start, 1)
    table = ComplexityTable(tuple(entries), alpha, beta, k0)

    nonincreasing = all(a >= b for a, b in zip(m_values, m_values[1:]))
    return RefinementComplexity(table, tuple(m_values), nonincreasing)


@record
class MinimalityCertificate:
    """Keane-style conditional evidence: irreducible + no flips + idoc-to-depth."""

    irreducible: bool
    standard: bool
    idoc: IdocCertificate
    conditionally_minimal: bool


def keane_minimality_certificate(T: Iet, depth: int) -> MinimalityCertificate:
    irr = irreducible(T)
    standard = all(s == 1 for s in T.signs)
    cert = idoc_check(T, depth)
    return MinimalityCertificate(irr, standard, cert, irr and standard and cert.passed)


# ------------------------------------------------------------------ factories

def rotation_iet(alpha: Scalarish) -> Iet:
    """The rotation x -> x + alpha (mod 1) as a 2-piece exchange."""
    a = as_exact(alpha)
    if not (a > 0 and a < 1):
        raise BadPartition("rotation angle must lie in (0, 1)")
    one = ExactNumber(1)
    return new_iet([ExactNumber(0), one - a, one], [1, 1], [a, a - one])


def golden_rotation() -> Iet:
    """Rotation by 2 - phi = (3 - sqrt(5))/2."""
    alpha = ExactNumber(Fraction(3, 2), Fraction(-1, 2), 5)
    return rotation_iet(alpha)


def from_lengths_and_permutation(
    lengths: Sequence[Scalarish], permutation: Sequence[int]
) -> Iet:
    """Standard IET rearranging pieces of the given lengths by the permutation.

    permutation[i] is the 1-based position of piece i+1 in the image order.
    """
    lens = [as_exact(v) for v in lengths]
    n = len(lens)
    perm = tuple(int(p) for p in permutation)
    if sorted(perm) != list(range(1, n + 1)):
        raise BadPartition("not a permutation of 1..n")
    if any(not v > 0 for v in lens):
        raise BadPartition("lengths must be positive")
    total = ExactNumber(0)
    breakpoints = [ExactNumber(0)]
    for v in lens:
        total = total + v
        breakpoints.append(total)
    if breakpoints[-1] != 1:
        raise BadPartition("lengths must sum to 1")
    breakpoints[-1] = ExactNumber(1)
    translations = []
    for i in range(n):
        before_image = sum(
            (lens[j] for j in range(n) if perm[j] < perm[i]), ExactNumber(0)
        )
        translations.append(before_image - breakpoints[i])
    return new_iet(breakpoints, [1] * n, translations)
