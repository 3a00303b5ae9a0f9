"""Factor complexity, letter relabelings, and eventual-period detection."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ietpc import (
    KTooLarge,
    LengthMismatch,
    PrefixTooShort,
    SymbolicWord,
    complexity,
    complexity_stability,
    detect_eventual_period,
    factors,
    fibonacci_word,
    isomorphic,
    golden_rotation,
    morse_hedlund_flag,
)
from ietpc.iet import coding, refinement_complexity
from ietpc.words import ComplexityTable


def brute_p(symbols, k):
    """Reference factor count, quadratic and obviously correct."""
    return len({symbols[i : i + k] for i in range(len(symbols) - k + 1)})


def test_complexity_matches_brute_force_fibonacci():
    w = fibonacci_word(400)
    table = complexity(w, 20)
    for k, p in table.entries:
        assert p == brute_p(w.symbols, k)


def test_complexity_matches_brute_force_random():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(40, 200)
        syms = tuple(rng.randint(1, 3) for _ in range(n))
        w = SymbolicWord(syms, 3)
        table = complexity(w, n // 4)
        for k, p in table.entries:
            assert p == brute_p(syms, k)


def test_fibonacci_word_prefix_and_complexity():
    assert fibonacci_word(13).to_text() == "0100101001001"
    table = complexity(fibonacci_word(4000), 30)
    for k in range(1, 31):
        assert table.p(k) == k + 1
    assert (table.alpha, table.beta) == (1, 1)
    assert not morse_hedlund_flag(table)


def test_morse_hedlund_flag_on_periodic_word():
    w = SymbolicWord((1, 2) * 40, 2)
    table = complexity(w, 10)
    assert table.p(1) == 2 and table.p(5) == 2
    assert morse_hedlund_flag(table)


def test_affine_tail_detected_on_eventually_constant_table():
    w = SymbolicWord((3,) + (1, 1, 2) * 8, 3)
    table = complexity(w, 6)
    assert table.entries == ((1, 3), (2, 4), (3, 4), (4, 4), (5, 4), (6, 4))
    assert (table.alpha, table.beta) == (0, 4)


def test_factors_and_guards():
    w = SymbolicWord((1, 2, 1), 2)
    assert factors(w, 2) == {(1, 2), (2, 1)}
    with pytest.raises(KTooLarge):
        factors(w, 4)
    with pytest.raises(PrefixTooShort):
        complexity(w, 2)  # 2 > 3//4
    forced = complexity(w, 2, force=True)
    assert forced.p(2) == 2


def test_isomorphic_relabeling():
    w1 = SymbolicWord((1, 2, 1, 3), 3)
    w2 = SymbolicWord((2, 3, 2, 1), 3)
    assert isomorphic(w1, w2) == {1: 2, 2: 3, 3: 1}
    # conflicting images
    assert isomorphic(SymbolicWord((1, 1), 2), SymbolicWord((1, 2), 2)) is None
    # non-injective relabeling
    assert isomorphic(SymbolicWord((1, 2), 2), SymbolicWord((1, 1), 2)) is None
    with pytest.raises(LengthMismatch):
        isomorphic(SymbolicWord((1,), 1), SymbolicWord((1, 1), 1))


def test_detect_eventual_period_examples():
    assert detect_eventual_period(SymbolicWord((1,) * 13, 1)) == (0, 1)
    # periodic from the very start: the minimal preperiod is 0, not 1
    w = SymbolicWord.from_text("2112112112112", 2)
    assert detect_eventual_period(w) == (0, 3)
    # a genuine preperiod: the leading 3 never recurs
    w = SymbolicWord((3,) + (1, 1, 2) * 8, 3)
    assert detect_eventual_period(w) == (1, 3)
    with pytest.raises(PrefixTooShort):
        detect_eventual_period(SymbolicWord((1, 2, 1, 2, 1, 2, 1), 2))


def test_detect_on_aperiodic_prefixes_is_only_a_filter():
    """Sturmian prefixes can end in a cube, so detection may fire without the
    infinite word being periodic; certification is the sound layer."""
    w = fibonacci_word(51).shift_letters(1)
    assert detect_eventual_period(w) is None
    w100 = fibonacci_word(100).shift_letters(1)
    assert detect_eventual_period(w100) == (34, 21)


def reference_detect(word):
    """The per-start detector the one-pass version replaced: a failure
    function for every suffix, O(n^2), kept as the test oracle."""
    syms = word.symbols
    n = len(syms)
    for q in range(n - 2):
        s = syms[q:]
        m = len(s)
        fail = [0] * m
        k = 0
        for i in range(1, m):
            while k and s[i] != s[k]:
                k = fail[k - 1]
            if s[i] == s[k]:
                k += 1
            fail[i] = k
        border = fail[m - 1]
        while True:  # the periods of s, smallest first
            p = m - border
            if 3 * p <= m:
                return (q, p)
            if p > m // 3 or border == 0:
                break
            border = fail[border - 1]
    return None


letters = st.integers(1, 3)


@st.composite
def uniform_words(draw):
    size = draw(st.integers(1, 3))
    return draw(st.lists(st.integers(1, size), min_size=8, max_size=300))


@st.composite
def eventually_periodic_words(draw):
    pre = draw(st.lists(letters, max_size=60))
    block = draw(st.lists(letters, min_size=1, max_size=20))
    n = draw(st.integers(8, 300))
    return (pre + block * (n // len(block) + 1))[:n]


@st.composite
def shifted_fibonacci_prefixes(draw):
    start = draw(st.integers(0, 200))
    n = draw(st.integers(8, 300))
    return list(fibonacci_word(start + n).shift_letters(1).symbols[start:])


@settings(max_examples=300, deadline=None)
@given(st.one_of(uniform_words(), eventually_periodic_words(),
                 shifted_fibonacci_prefixes()))
def test_detect_matches_per_start_reference(symbols):
    w = SymbolicWord(tuple(symbols), 3)
    assert detect_eventual_period(w) == reference_detect(w)


def test_detect_is_linear_on_a_long_fibonacci_word():
    """The per-start scan needs about a minute on 2^15 letters."""
    w = fibonacci_word(2**15)
    t0 = time.perf_counter()
    hit = detect_eventual_period(w)
    assert time.perf_counter() - t0 < 1.0
    assert hit is not None and 3 * hit[1] <= len(w) - hit[0]


def test_suffix_complexity_invariance_of_recurrent_word():
    """Dropping q letters from a recurrent word leaves the table unchanged."""
    w = fibonacci_word(4000)
    base = complexity(w, 20)
    for q in (1, 2, 5):
        assert complexity(w.suffix(q), 20).entries == base.entries


def test_suffix_complexity_drop_on_marked_word():
    """A non-recurring first letter contributes exactly one factor per k."""
    w = SymbolicWord((3,) + (1, 1, 2) * 8, 3)
    base = complexity(w, 6)
    shifted = complexity(w.suffix(1), 6)
    for k in range(1, 7):
        assert base.p(k) == shifted.p(k) + 1


def test_word_plumbing():
    w = SymbolicWord((0, 1, 0, 0, 1), 1, "demo")
    assert len(w) == 5 and w[2] == 0
    assert w.prefix(3).symbols == (0, 1, 0)
    assert w.suffix(2).symbols == (0, 0, 1)
    assert w.shift_letters(1).symbols == (1, 2, 1, 1, 2)
    assert SymbolicWord.from_text(w.to_text(), 1).symbols == w.symbols
    big = SymbolicWord((3, 11, 7), 11)
    assert big.to_text() == "3,11,7"
    assert SymbolicWord.from_text(big.to_text(), 11).symbols == big.symbols
    with pytest.raises(ValueError):
        SymbolicWord((), 1)
    with pytest.raises(ValueError):
        SymbolicWord((4,), 2)


def test_word_letters_copies_equality_and_repr():
    syms = (1, 2, 2, 1, 3)
    w = SymbolicWord(syms, 3, "demo")
    assert type(w.symbols) is tuple and w.symbols == syms
    assert type(w[1]) is int and w[1] == 2 and w[-1] == 3
    assert w[1:4] == (2, 2, 1) and list(w) == list(syms)
    assert repr(w) == (
        "SymbolicWord(symbols=(1, 2, 2, 1, 3), alphabet_size=3, provenance='demo')")
    same = SymbolicWord(list(syms), 3, "demo")
    assert w == same and hash(w) == hash(same) and len({w, same}) == 1
    for other in (SymbolicWord(syms, 4, "demo"), SymbolicWord(syms, 3),
                  SymbolicWord(syms[:-1], 3, "demo")):
        assert w != other
    with pytest.raises(AttributeError):
        w.alphabet_size = 4
    with pytest.raises(AttributeError):
        w.letters = b"\x01"  # not a field, and the slots leave no room


def test_large_alphabet_falls_back_to_a_tuple():
    assert isinstance(SymbolicWord((255, 0), 255)._letters, bytes)
    w = SymbolicWord((300, 0, 255, 300), 300)
    assert isinstance(w._letters, tuple)
    assert w.symbols == (300, 0, 255, 300) and w[0] == 300 and w[1:3] == (0, 255)
    assert w.to_text() == "300,0,255,300"
    assert w.suffix(1).symbols == (0, 255, 300)
    assert factors(w, 2) == {(300, 0), (0, 255), (255, 300)}
    assert complexity(w, 1, force=True).entries == ((1, 3),)


@pytest.mark.parametrize(
    "syms, size, message",
    [
        ((), 1, "empty word"),
        ((1,), 0, "alphabet_size must be positive"),
        ((4,), 2, "symbol 4 outside 0..2"),
        ((1, -1, 3), 2, "symbol -1 outside 0..2"),
        ((256,), 255, "symbol 256 outside 0..255"),
        ((1, 301, -2), 300, "symbol 301 outside 0..300"),
    ],
)
def test_word_validation_messages(syms, size, message):
    with pytest.raises(ValueError) as info:
        SymbolicWord(syms, size)
    assert str(info.value) == message


def test_coding_keeps_one_byte_per_letter():
    T, x = golden_rotation(), Fraction(1, 3)
    coding(T, x, 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        word = coding(T, x, 3000)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(word) == 3000
    assert kept < 4096


def test_complexity_tables_keep_one_byte_per_value():
    T, x = golden_rotation(), Fraction(1, 3)
    word = coding(T, x, 3000)
    complexity(word, 4), refinement_complexity(T, x, 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = complexity(word, 40)
        refined = refinement_complexity(T, x, 40)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.entries == refined.table.entries
    assert table.k_max == 40
    assert kept < 1536


@pytest.mark.parametrize(
    "entries",
    [(), ((0, 1),), ((2, 3),), ((1, 2), (3, 4)), ((1, 2), (1, 2))],
)
def test_complexity_table_needs_k_from_one(entries):
    with pytest.raises(ValueError):
        ComplexityTable(entries)


def test_complexity_table_values_past_a_byte():
    entries = ((1, 7), (2, 300), (3, 70000))
    table = ComplexityTable(entries, 1, 2, 3)
    assert table.entries == entries
    assert [table.p(k) for k in (1, 2, 3)] == [7, 300, 70000]
    assert table == ComplexityTable(entries, 1, 2, 3)
    assert hash(table) == hash((entries, 1, 2, 3))
    assert repr(table) == (
        "ComplexityTable(entries=((1, 7), (2, 300), (3, 70000)), "
        "alpha=1, beta=2, k0=3)")
    with pytest.raises(KeyError):
        table.p(4)


def test_complexity_table_serialization():
    table = complexity(fibonacci_word(200), 8)
    assert table.to_csv_text().splitlines()[0] == "k,p"
    assert table.to_csv_text().splitlines()[1] == "1,2"
    data = table.to_json_dict()
    assert data["entries"][0] == [1, 2]
    assert data["alpha"] == 1


def test_complexity_stability():
    assert complexity_stability(fibonacci_word(4000), 20).stable
    # a late symbol change flips the table between doublings
    syms = (1,) * 300 + (2,) + (1,) * 60
    rep = complexity_stability(SymbolicWord(syms, 2), 4)
    assert not rep.stable
    assert rep.changed_last_doubling
    with pytest.raises(PrefixTooShort):
        complexity_stability(fibonacci_word(100), 20)
