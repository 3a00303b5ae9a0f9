"""Finite symbolic words: factor sets, complexity tables, period detection.

Words here are finite prefixes of codings produced by the map modules.  The
complexity operations count factors of a fixed prefix, so callers are pushed
(via the length guard) to hand in prefixes much longer than the largest k
they care about.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from ._record import record
from .errors import KTooLarge, LengthMismatch, PrefixTooShort


@record
class SymbolicWord:
    """An immutable word over a small integer alphabet.

    ``alphabet_size`` is a hint for the ambient alphabet {0..alphabet_size}
    or {1..alphabet_size}; codings of n-piece maps use letters 1..n, while
    binary combinatorial words use 0/1.

    The letters are stored one byte each when ``alphabet_size <= 255`` and
    as a tuple otherwise.  ``word[i]`` is a letter, ``word[i:j]`` a tuple of
    letters, and ``symbols`` copies all of them into a tuple.
    """

    __slots__ = ("_letters", "alphabet_size", "provenance")

    _letters: Union[bytes, tuple[int, ...]]
    alphabet_size: int
    provenance: str

    def __init__(self, symbols: Sequence[int], alphabet_size: int,
                 provenance: str = ""):
        if len(symbols) < 1:
            raise ValueError("empty word")
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        if min(symbols) < 0 or max(symbols) > alphabet_size:
            for s in symbols:
                if not 0 <= s <= alphabet_size:
                    raise ValueError(f"symbol {s} outside 0..{alphabet_size}")
        letters = bytes(symbols) if alphabet_size <= 255 else tuple(symbols)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "provenance", provenance)

    @property
    def symbols(self) -> tuple[int, ...]:
        """The letters as a new tuple (a copy of the stored letters)."""
        return tuple(self._letters)

    def __repr__(self) -> str:
        return (f"SymbolicWord(symbols={self.symbols!r}, "
                f"alphabet_size={self.alphabet_size!r}, "
                f"provenance={self.provenance!r})")

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._letters[i])
        return self._letters[i]

    def suffix(self, q: int) -> "SymbolicWord":
        if not 0 <= q < len(self._letters):
            raise ValueError("suffix drop out of range")
        return SymbolicWord(
            self._letters[q:], self.alphabet_size, f"{self.provenance}|drop {q}"
        )

    def prefix(self, n: int) -> "SymbolicWord":
        if not 1 <= n <= len(self._letters):
            raise ValueError("prefix length out of range")
        return SymbolicWord(self._letters[:n], self.alphabet_size, self.provenance)

    def shift_letters(self, offset: int) -> "SymbolicWord":
        shifted = tuple(s + offset for s in self._letters)
        size = max(self.alphabet_size + offset, max(shifted))
        return SymbolicWord(shifted, size, f"{self.provenance}|shift {offset:+d}")

    def to_text(self) -> str:
        if self.alphabet_size <= 9:
            return "".join(map(str, self._letters))
        return ",".join(map(str, self._letters))

    @staticmethod
    def from_text(text: str, alphabet_size: int, provenance: str = "") -> "SymbolicWord":
        text = text.strip()
        if "," in text:
            symbols = tuple(int(t) for t in text.split(","))
        else:
            symbols = tuple(int(ch) for ch in text)
        return SymbolicWord(symbols, alphabet_size, provenance)


@record
class ComplexityTable:
    """Pairs (k, p(k)) for k = 1..k_max plus an optional exact affine tail
    p(k) = alpha*k + beta.

    The values p(1..k_max) are stored one byte each when every one is at
    most 255, and as a tuple otherwise; ``entries`` builds the pairs.
    """

    __slots__ = ("_values", "alpha", "beta", "k0")

    _values: Union[bytes, tuple[int, ...]]
    alpha: Optional[int]
    beta: Optional[int]
    k0: Optional[int]

    def __init__(self, entries: Sequence[tuple[int, int]],
                 alpha: Optional[int] = None, beta: Optional[int] = None,
                 k0: Optional[int] = None):
        if not entries or any(k != i for i, (k, _) in enumerate(entries, 1)):
            raise ValueError("table entries must be (k, p(k)) for k = 1..n")
        values = tuple(p for _, p in entries)
        if 0 <= min(values) and max(values) <= 255:
            values = bytes(values)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "k0", k0)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The pairs (k, p(k)) as a new tuple."""
        return tuple(zip(range(1, len(self._values) + 1), self._values))

    def __repr__(self) -> str:
        return (f"ComplexityTable(entries={self.entries!r}, "
                f"alpha={self.alpha!r}, beta={self.beta!r}, k0={self.k0!r})")

    def __hash__(self) -> int:
        return hash((self.entries, self.alpha, self.beta, self.k0))

    def p(self, k: int) -> int:
        if k in range(1, len(self._values) + 1):
            return self._values[int(k) - 1]
        raise KeyError(f"k={k} not tabulated")

    @property
    def k_max(self) -> int:
        return len(self._values)

    def to_csv_text(self) -> str:
        lines = ["k,p"]
        lines.extend(f"{k},{p}" for k, p in self.entries)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        out: dict = {"entries": [[k, p] for k, p in self.entries]}
        out["alpha"] = self.alpha
        out["beta"] = self.beta
        out["k0"] = self.k0
        return out


def factors(word: SymbolicWord, k: int) -> set[tuple[int, ...]]:
    """The set of length-k factors of the word."""
    n = len(word)
    if k < 1 or k > n:
        raise KTooLarge(f"k={k} outside 1..{n}")
    letters = word._letters
    return {tuple(letters[i : i + k]) for i in range(n - k + 1)}


def _affine_tail(entries: list[tuple[int, int]]) -> tuple[Optional[int], Optional[int], Optional[int]]:
    """Exact affine fit of the table tail, or (None, None, None).

    The fit is emitted only when the last ceil(k_max/2) entries lie exactly on
    an integer line; k0 is then pushed as far left as the line extends.
    """
    k_max = entries[-1][0]
    need = (k_max + 1) // 2
    if len(entries) < 2 or need < 2:
        return None, None, None
    tail = entries[-need:]
    (k1, p1), (k2, p2) = tail[0], tail[1]
    if (p2 - p1) % (k2 - k1) != 0:
        return None, None, None
    alpha = (p2 - p1) // (k2 - k1)
    beta = p1 - alpha * k1
    for k, p in tail:
        if p != alpha * k + beta:
            return None, None, None
    k0 = tail[0][0]
    for k, p in reversed(entries[: len(entries) - need]):
        if p == alpha * k + beta:
            k0 = k
        else:
            break
    return alpha, beta, k0


def complexity(word: SymbolicWord, k_max: int, force: bool = False) -> ComplexityTable:
    """Factor-count table p(1..k_max) of the finite prefix.

    Guard: k_max must not exceed len(word)//4 so the prefix has room to show
    all factors; pass force=True to override deliberately.
    """
    n = len(word)
    if k_max < 1:
        raise KTooLarge("k_max must be >= 1")
    if not force and k_max > n // 4:
        raise PrefixTooShort(
            f"k_max={k_max} too large for a length-{n} prefix (limit {n // 4})"
        )
    if k_max > n:
        raise KTooLarge(f"k_max={k_max} exceeds word length {n}")
    # distinct slices of the stored letters are the distinct factors
    letters = word._letters
    entries = [(k, len({letters[i : i + k] for i in range(n - k + 1)}))
               for k in range(1, k_max + 1)]
    alpha, beta, k0 = _affine_tail(entries)
    return ComplexityTable(tuple(entries), alpha, beta, k0)


def isomorphic(w1: SymbolicWord, w2: SymbolicWord) -> Optional[dict[int, int]]:
    """Position-wise letter bijection pi with w2[k] == pi(w1[k]), or None."""
    if len(w1) != len(w2):
        raise LengthMismatch(f"lengths differ: {len(w1)} vs {len(w2)}")
    mapping: dict[int, int] = {}
    inverse: dict[int, int] = {}
    for a, b in zip(w1._letters, w2._letters):
        if a in mapping:
            if mapping[a] != b:
                return None
        elif b in inverse:
            return None
        else:
            mapping[a] = b
            inverse[b] = a
    return mapping


def detect_eventual_period(word: SymbolicWord) -> Optional[tuple[int, int]]:
    """Smallest (q, p), ordered by q then p, such that the suffix from q is
    p-periodic with at least three full repetitions inside the prefix.

    One failure-function pass over the reversed word gives the smallest
    period of every suffix: the suffix from q, reversed, is the reversed
    word's prefix of length m = n - q, a word and its reversal have the same
    periods, and that prefix's smallest period is m - border[m - 1].  Only the
    smallest period can satisfy 3p <= m, so the first q that does wins.
    Returns None when no such pair exists.
    """
    n = len(word)
    if n < 8:
        raise PrefixTooShort("need at least 8 letters to call a period")
    rev = word._letters[::-1]
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and rev[i] != rev[k]:
            k = border[k - 1]
        if rev[i] == rev[k]:
            k += 1
        border[i] = k
    for q in range(n - 2):
        m = n - q
        p = m - border[m - 1]
        if 3 * p <= m:
            return (q, p)
    return None


def fibonacci_word(length: int) -> SymbolicWord:
    """Prefix of the fixed point of 0 -> 01, 1 -> 0."""
    if length < 1:
        raise ValueError("length must be >= 1")
    w = [0]
    while len(w) < length:
        w = [s for a in w for s in ((0, 1) if a == 0 else (0,))]
    return SymbolicWord(w[:length], 2, "fibonacci")


def morse_hedlund_flag(table: ComplexityTable) -> bool:
    """True when some tabulated k has p(k) <= k (forcing eventual periodicity)."""
    return any(p <= k for k, p in table.entries)


@record
class StabilityReport:
    stable: bool
    changed_last_doubling: bool
    changed_previous_doubling: bool
    lengths: tuple[int, int, int] = (0, 0, 0)


def complexity_stability(word: SymbolicWord, k_max: int) -> StabilityReport:
    """Whether the table still moves under the last two prefix doublings.

    Compares the tables computed from prefixes of length L/4, L/2 and L.  A
    stable result is evidence (not proof) that the prefix is long enough.
    """
    n = len(word)
    if n // 4 < 4 * k_max:
        raise PrefixTooShort("need length >= 16*k_max to assess stability")
    quarter = complexity(word.prefix(n // 4), k_max)
    half = complexity(word.prefix(n // 2), k_max)
    full = complexity(word, k_max)
    changed_prev = quarter.entries != half.entries
    changed_last = half.entries != full.entries
    return StabilityReport(
        stable=not (changed_prev or changed_last),
        changed_last_doubling=changed_last,
        changed_previous_doubling=changed_prev,
        lengths=(n // 4, n // 2, n),
    )
