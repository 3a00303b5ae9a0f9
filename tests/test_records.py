"""The frozen record classes: construction, defaults, equality, hashing,
repr, immutability, and copying, pinned on one instance of each."""

import copy
import pickle
from fractions import Fraction

import pytest

from ietpc import (
    Ball,
    ComplexityTable,
    EmpiricalFactor,
    ExactNumber,
    IdocCertificate,
    Interval,
    SymbolicWord,
    build_gap_system,
    build_pc_from_iet,
    certify_periodic,
    complexity_stability,
    default_seed,
    fibonacci_word,
    golden_rotation,
    keane_minimality_certificate,
    new_pc,
    refinement_complexity,
    rotation_iet,
    rotation_pc,
    verify_semiconjugacy,
)
from ietpc.cli import DispatchResult, RunConfig
from ietpc.construct import _Family

F = Fraction

# Field names in declaration order, for every record whose constructor
# takes its fields.
FIELDS = {
    "Interval": ("lo", "hi", "lo_closed", "hi_closed"),
    "Ball": ("center", "radius"),
    "RunConfig": (
        "command", "map_path", "x", "length", "k_max", "depth", "m",
        "precision_bits", "budget", "samples", "seed", "refinement", "fmt",
        "out_path", "sidecar_path", "force"),
    "DispatchResult": ("exit_code", "out", "err"),
    "StabilityReport": (
        "stable", "changed_last_doubling", "changed_previous_doubling", "lengths"),
    "Iet": ("breakpoints", "signs", "translations", "images"),
    "IdocCertificate": ("depth", "verdict", "i", "j", "k", "l"),
    "RefinementComplexity": ("table", "m_values", "m_nonincreasing"),
    "MinimalityCertificate": ("irreducible", "standard", "idoc", "conditionally_minimal"),
    "PiecewiseContraction": ("breakpoints", "slopes", "intercepts", "images"),
    "PeriodicCertificate": (
        "start", "q", "p", "preperiod", "period", "cylinder", "cycle_slope",
        "cycle_intercept", "fixed_point"),
    "EmpiricalFactor": (
        "orbit_len", "visit_counts", "kept_pieces", "breakpoints_hat",
        "translations_hat", "residual", "h_grid", "approximate"),
    "GapSystem": (
        "iet", "seed", "depth", "orbit", "piece_of", "inf_truncs",
        "breakpoint_truncs", "warnings"),
    "PieceProvenance": ("piece", "sign", "earliest_gap", "crosscheck_gap", "intercept"),
    "ConstructedPc": (
        "pc", "gaps", "seed_piece", "breakpoint_balls", "intercept_balls",
        "provenance", "error_bound"),
    "_Family": ("slopes", "bp_lo", "bp_hi", "ic_lo", "ic_hi", "scaled"),
    "RotationPc": ("delta", "breakpoint", "degenerate"),
    "SemiconjugacyReport": (
        "samples", "length", "decided_agree", "decided_disagree", "undecided",
        "first_disagreement", "relabeling_identity"),
}

# The two word classes take their letters or table entries, not their
# stored fields; the stored fields are still what equality compares.
STORED = {
    "SymbolicWord": ("_letters", "alphabet_size", "provenance"),
    "ComplexityTable": ("_values", "alpha", "beta", "k0"),
}

# Reprs written by the records' own __repr__ or small enough to pin whole.
REPRS = {
    "Interval": "[1/3, 1/2)",
    "Ball": "Ball(center=1/2, radius=1/8)",
    "RunConfig": (
        "RunConfig(command='code', map_path='m.json', x='1/3', length=5, "
        "k_max=None, depth=None, m=None, precision_bits=None, budget=None, "
        "samples=None, seed=None, refinement=False, fmt=None, out_path=None, "
        "sidecar_path=None, force=False)"),
    "DispatchResult": "DispatchResult(exit_code=0, out='11211\\n', err='')",
    "SymbolicWord": "SymbolicWord(symbols=(1, 2, 1), alphabet_size=2, provenance='demo')",
    "ComplexityTable": (
        "ComplexityTable(entries=((1, 2), (2, 3)), alpha=1, beta=1, k0=1)"),
    "StabilityReport": (
        "StabilityReport(stable=True, changed_last_doubling=False, "
        "changed_previous_doubling=False, lengths=(16, 32, 64))"),
    "Iet": (
        "Iet(breakpoints=(ExactNumber('0/1'), ExactNumber('2/3'), "
        "ExactNumber('1/1')), signs=(1, 1), translations=(ExactNumber('1/3'), "
        "ExactNumber('-2/3')), images=([1/3, 1/1), [0/1, 1/3)))"),
    "IdocCertificate": (
        "IdocCertificate(depth=3, verdict='failed_finite', i=1, j=None, k=3, l=None)"),
    "RefinementComplexity": (
        "RefinementComplexity(table=ComplexityTable(entries=((1, 2), (2, 3)), "
        "alpha=1, beta=1, k0=1), m_values=(1, 1), m_nonincreasing=True)"),
    "MinimalityCertificate": (
        "MinimalityCertificate(irreducible=True, standard=True, "
        "idoc=IdocCertificate(depth=3, verdict='failed_finite', i=1, j=None, "
        "k=3, l=None), conditionally_minimal=False)"),
    "PiecewiseContraction": (
        "PiecewiseContraction(breakpoints=(ExactNumber('0/1'), ExactNumber('1/2'), "
        "ExactNumber('1/1')), slopes=(ExactNumber('1/2'), ExactNumber('1/2')), "
        "intercepts=(ExactNumber('1/2'), ExactNumber('0/1')), "
        "images=([1/2, 3/4), [1/4, 1/2)))"),
    "PeriodicCertificate": (
        "PeriodicCertificate(start=ExactNumber('0/1'), q=0, p=2, preperiod=(), "
        "period=(1, 2), cylinder=[0/1, 1/2), cycle_slope=ExactNumber('1/4'), "
        "cycle_intercept=ExactNumber('1/4'), fixed_point=ExactNumber('1/3'))"),
    "EmpiricalFactor": (
        "EmpiricalFactor(orbit_len=10, visit_counts=(6, 4), kept_pieces=(1, 2), "
        "breakpoints_hat=(0.0, 0.5, 1.0), translations_hat={1: 0.5, 2: -0.5}, "
        "residual=0.0, h_grid=(0.0, 1.0), approximate=False)"),
    "PieceProvenance": (
        "PieceProvenance(piece=1, sign=1, earliest_gap=1, crosscheck_gap=3, "
        "intercept=Ball(center=169107/262144, radius=3/262144))"),
    "RotationPc": (
        "RotationPc(delta=Ball(center=10569/16384, radius=1/16384), "
        "breakpoint=Ball(center=5815/8192, radius=1/8192), degenerate=False)"),
    "SemiconjugacyReport": (
        "SemiconjugacyReport(samples=2, length=4, decided_agree=8, "
        "decided_disagree=0, undecided=0, first_disagreement=None, "
        "relabeling_identity=True)"),
}


def _samples() -> dict:
    third = rotation_iet(F(1, 3))
    golden = golden_rotation()
    cpc = build_pc_from_iet(golden, N=16)
    pc = new_pc([0, F(1, 2), 1], [F(1, 2), F(1, 2)], [F(1, 2), 0])
    table = ComplexityTable(((1, 2), (2, 3)), 1, 1, 1)
    objs = [
        Interval(F(1, 3), F(1, 2)),
        Ball(F(1, 2), F(1, 8)),
        RunConfig("code", map_path="m.json", x="1/3", length=5),
        DispatchResult(0, "11211\n", ""),
        SymbolicWord((1, 2, 1), 2, "demo"),
        table,
        complexity_stability(fibonacci_word(64), 2),
        third,
        keane_minimality_certificate(third, 3).idoc,
        refinement_complexity(golden, F(1, 3), 2),
        keane_minimality_certificate(third, 3),
        pc,
        certify_periodic(pc, 0),
        EmpiricalFactor(10, (6, 4), (1, 2), (0.0, 0.5, 1.0), {1: 0.5, 2: -0.5},
                        0.0, (0.0, 1.0), False),
        build_gap_system(golden, default_seed(golden, 16), 16),
        cpc.provenance[0],
        cpc,
        _Family.of(cpc),
        rotation_pc(fibonacci_word(12).shift_letters(1)),
        verify_semiconjugacy(cpc, golden, 4, 2),
    ]
    return {type(o).__name__: o for o in objs}


SAMPLES = _samples()
# Records without an instance dict.  A frozen dataclass with slots raises
# TypeError, not AttributeError, on assignment to a name that is not a field.
SLOTTED = ("ComplexityTable", "DispatchResult", "RefinementComplexity", "SymbolicWord")
NAMES = sorted(SAMPLES)
GENERIC = sorted(FIELDS)


def _values(obj, names):
    return [getattr(obj, n) for n in names]


def _names(name):
    return FIELDS.get(name) or STORED[name]


def _other(name):
    """A sample of a different record class."""
    return SAMPLES["Ball" if name != "Ball" else "Interval"]


def test_every_record_class_has_a_sample():
    assert len(SAMPLES) == 20 and set(SAMPLES) == set(FIELDS) | set(STORED)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    obj = SAMPLES[name]
    if name in REPRS:
        assert repr(obj) == REPRS[name]
    if name in FIELDS and name not in ("Interval", "Ball"):
        body = ", ".join(f"{n}={getattr(obj, n)!r}" for n in FIELDS[name])
        assert repr(obj) == f"{name}({body})"


@pytest.mark.parametrize("name", GENERIC)
def test_construction_by_position_and_by_keyword(name):
    obj, names = SAMPLES[name], FIELDS[name]
    values = _values(obj, names)
    by_position = type(obj)(*values)
    by_keyword = type(obj)(**dict(zip(names, values)))
    mixed = type(obj)(values[0], **dict(zip(names[1:], values[1:])))
    for built in (by_position, by_keyword, mixed):
        assert type(built) is type(obj) and built == obj
        assert _values(built, names) == values


@pytest.mark.parametrize("name", GENERIC)
def test_bad_arguments_raise_type_error(name):
    cls, names = type(SAMPLES[name]), FIELDS[name]
    values = _values(SAMPLES[name], names)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, unknown_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[-1])


def test_word_constructors_raise_type_error():
    with pytest.raises(TypeError):
        SymbolicWord()
    with pytest.raises(TypeError):
        SymbolicWord((1, 2), 2, provenance="", unknown_field=1)
    with pytest.raises(TypeError):
        ComplexityTable(((1, 2),), alpha=1, entries=((1, 2),))


def test_defaults():
    lo, hi = F(1, 3), F(1, 2)
    assert Interval(lo, hi) == Interval(lo, hi, True, False)
    config = RunConfig("code")
    assert _values(config, FIELDS["RunConfig"][1:]) == [None] * 10 + [
        False, None, None, None, False]
    assert IdocCertificate(3, "passed_to_depth") == IdocCertificate(
        3, "passed_to_depth", None, None, None, None)
    report = type(SAMPLES["StabilityReport"])(True, False, False)
    assert report.lengths == (0, 0, 0)
    assert SymbolicWord((1, 2), 2).provenance == ""
    table = ComplexityTable(((1, 2),))
    assert (table.alpha, table.beta, table.k0) == (None, None, None)


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    obj = SAMPLES[name]
    twin = copy.copy(obj)
    assert twin is not obj and twin == obj and not twin != obj
    assert obj != _other(name) and not obj == _other(name)
    assert obj.__eq__(_other(name)) is NotImplemented
    values = tuple(_values(obj, _names(name)))
    assert obj != values
    if name in ("EmpiricalFactor", "_Family"):
        # a dict of translations, or lists inside the scaled parameters
        with pytest.raises(TypeError):
            hash(obj)
    elif name == "ComplexityTable":
        assert hash(obj) == hash((obj.entries, obj.alpha, obj.beta, obj.k0))
    else:
        assert hash(obj) == hash(values) == hash(twin)


@pytest.mark.parametrize("name", GENERIC)
def test_a_changed_field_breaks_equality(name):
    obj, names = SAMPLES[name], FIELDS[name]
    values = _values(obj, names)
    built_any = False
    for i, n in enumerate(names):
        other = values[:i] + [_replacement(name, n, values[i])] + values[i + 1:]
        try:
            built = type(obj)(*other)
        except (TypeError, ValueError):
            continue  # the replacement fails the record's own checks
        assert built != obj
        built_any = True
    assert built_any


def _replacement(name, field, value):
    if name == "RunConfig" and field == "command":
        return "complexity"
    if name == "RunConfig" and field == "fmt":
        return "text"
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction, ExactNumber)):
        return value + 1 if name != "Ball" else value / 2
    if value is None and name == "RunConfig":
        return "x.json" if field.endswith("path") else 1
    return object()


def test_word_equality_sees_every_stored_field():
    w = SAMPLES["SymbolicWord"]
    for other in (SymbolicWord((1, 2, 2), 2, "demo"), SymbolicWord((1, 2, 1), 3, "demo"),
                  SymbolicWord((1, 2, 1), 2, "")):
        assert w != other
    t = SAMPLES["ComplexityTable"]
    for other in (ComplexityTable(((1, 2), (2, 4)), 1, 1, 1),
                  ComplexityTable(((1, 2), (2, 3)), 1, 1, None)):
        assert t != other


def test_post_init_checks():
    with pytest.raises(ValueError, match="out of order"):
        Interval(F(1, 2), F(1, 3))
    with pytest.raises(ValueError, match="degenerate"):
        Interval(F(1, 2), F(1, 2))
    with pytest.raises(ValueError, match="degenerate"):
        Interval(F(1, 2), F(1, 2), True, False)
    point = Interval(F(1, 2), F(1, 2), True, True)
    assert point.contains(F(1, 2))
    assert Interval(0, 1).lo == F(0) and type(Interval(0, 1).lo).__name__ == "ExactNumber"
    with pytest.raises(ValueError, match="nonnegative"):
        Ball(F(1, 2), F(-1, 8))
    with pytest.raises(ValueError, match="dyadic"):
        Ball(F(1, 3), F(0))
    with pytest.raises(ValueError, match="dyadic"):
        Ball(F(1, 2), F(1, 6))
    with pytest.raises(ValueError, match="unknown subcommand"):
        RunConfig("explode")
    for option in ("length", "k_max", "depth", "m", "precision_bits", "budget",
                   "samples"):
        with pytest.raises(ValueError, match="must be positive"):
            RunConfig("code", **{option: 0})
    with pytest.raises(ValueError, match="nonempty"):
        RunConfig("code", map_path="")
    with pytest.raises(ValueError, match="format"):
        RunConfig("code", fmt="yaml")


@pytest.mark.parametrize("name", NAMES)
def test_records_are_frozen(name):
    obj = SAMPLES[name]
    before = repr(obj)
    for n in _names(name):
        with pytest.raises(AttributeError):
            setattr(obj, n, None)
        with pytest.raises(AttributeError):
            delattr(obj, n)
    if name not in SLOTTED:
        with pytest.raises(AttributeError):
            obj.unknown_field = 1
    assert repr(obj) == before


@pytest.mark.parametrize("name", NAMES)
def test_copy_deepcopy_and_pickle_round_trip(name):
    obj = SAMPLES[name]
    for clone in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and clone == obj
        assert repr(clone) == repr(obj)
        with pytest.raises(AttributeError):
            setattr(clone, _names(name)[0], None)
