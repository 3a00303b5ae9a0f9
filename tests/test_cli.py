"""Command line surface: dispatch-level behavior and the argparse front end.

Everything routes through dispatch(RunConfig), so most tests avoid spawning
a terminal.  Exit codes: 0 success, 1 invalid input, 2 inconclusive.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ietpc
from ietpc import (
    BadPartition,
    ImageEscapes,
    IncompatibleRadicands,
    MapFormatError,
    NotBijective,
    NotContracting,
    NotInjective,
    PeriodicCertificate,
    certify_periodic,
    golden_rotation,
    load_map,
    new_pc,
    rotation_iet,
)
from ietpc.cli import DispatchResult, RunConfig, dispatch, main
from ietpc.mapio import canonical_json, map_from_json_dict

from strategies import exchanges, slope_maps

GOLDEN_X = "(3-1*sqrt(5))/2"


@pytest.fixture()
def maps(tmp_path):
    paths = {}

    def put(name, obj):
        p = tmp_path / name
        p.write_text(canonical_json(obj.to_json_dict()), encoding="utf-8")
        paths[name] = str(p)

    put("golden.json", golden_rotation())
    put("third.json", rotation_iet(Fraction(1, 3)))
    put(
        "twopiece.json",
        new_pc(
            [0, Fraction(1, 2), 1],
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(3, 4), Fraction(-1, 4)],
        ),
    )
    put(
        "wanderer.json",
        new_pc(
            [0, Fraction(17, 30), 1],
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(13, 20), Fraction(1, 10)],
        ),
    )
    from ietpc import new_iet

    put("ident.json", new_iet([0, 1], [1], [0]))
    paths["dir"] = str(tmp_path)
    return paths


def run(**kw) -> DispatchResult:
    return dispatch(RunConfig(**kw))


# ----------------------------------------------------------------- config


def test_runconfig_rejects_unknown_fields():
    with pytest.raises(TypeError):
        RunConfig(**{"command": "code", "verbosity": 3})
    cfg = RunConfig(**{"command": "code", "length": 5})
    assert cfg.length == 5


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(command="explode")
    with pytest.raises(ValueError):
        RunConfig(command="code", fmt="yaml")
    with pytest.raises(ValueError):
        RunConfig(command="code", length=0)
    with pytest.raises(ValueError):
        RunConfig(command="code", map_path="")


# ------------------------------------------------------------------- code


def test_code_golden_plain(maps):
    res = run(command="code", map_path=maps["golden.json"], x=GOLDEN_X, length=13)
    assert res.exit_code == 0
    assert res.out == "1211212112112\n"
    assert res.err == ""


def test_code_formats(maps):
    csv = run(command="code", map_path=maps["third.json"], x="0/1", length=6,
              fmt="csv")
    assert csv.out.splitlines()[:3] == ["step,letter", "0,1", "1,1"]
    js = run(command="code", map_path=maps["third.json"], x="0/1", length=6,
             fmt="json")
    payload = json.loads(js.out)
    assert payload["text"] == "112112"
    assert payload["letters"] == [1, 1, 2, 1, 1, 2]


def test_code_on_contraction(maps):
    res = run(command="code", map_path=maps["twopiece.json"], x="0/1", length=8)
    assert res.exit_code == 0 and res.out == "12121212\n"


def test_code_rejects_out_of_domain_point(maps):
    res = run(command="code", map_path=maps["golden.json"], x="3/2", length=5)
    assert res.exit_code == 1 and res.out == ""
    err = json.loads(res.err)
    assert err["error"] == "OutOfDomain"


def test_missing_required_argument(maps):
    res = run(command="code", map_path=maps["golden.json"], x="1/3")
    assert res.exit_code == 1
    assert json.loads(res.err)["error"] == "ValueError"


def test_bad_map_file_reports_cleanly(maps):
    res = run(command="code", map_path=maps["dir"] + "/absent.json", x="1/3",
              length=5)
    assert res.exit_code == 1
    assert json.loads(res.err)["error"] == "MapFormatError"


# ------------------------------------------------------------- complexity


def test_complexity_csv_default(maps):
    res = run(command="complexity", map_path=maps["golden.json"], x=GOLDEN_X,
              length=200, k_max=8)
    lines = res.out.splitlines()
    assert lines[0] == "k,p"
    assert [tuple(map(int, ln.split(","))) for ln in lines[1:]] == [
        (k, k + 1) for k in range(1, 9)
    ]


def test_complexity_json_has_affine_tail(maps):
    res = run(command="complexity", map_path=maps["golden.json"], x=GOLDEN_X,
              length=400, k_max=10, fmt="json")
    payload = json.loads(res.out)
    assert payload["alpha"] == 1 and payload["beta"] == 1


def test_complexity_constant_word(maps):
    res = run(command="complexity", map_path=maps["ident.json"], x="1/3",
              length=100, k_max=3)
    assert res.out.splitlines()[1:] == ["1,1", "2,1", "3,1"]


def test_complexity_refinement_route(maps):
    res = run(command="complexity", map_path=maps["golden.json"], x="1/3",
              k_max=6, refinement=True, fmt="json")
    payload = json.loads(res.out)
    assert payload["m_values"] == [1] * 6
    assert payload["m_nonincreasing"] is True
    # refinement is an exchange-side notion
    bad = run(command="complexity", map_path=maps["twopiece.json"], x="1/3",
              k_max=6, refinement=True)
    assert bad.exit_code == 1


# ------------------------------------------------------------ idoc/verify


def test_idoc_verdicts(maps):
    good = run(command="idoc", map_path=maps["golden.json"], depth=100)
    assert json.loads(good.out)["verdict"] == "passed_to_depth"
    bad = run(command="idoc", map_path=maps["third.json"], depth=50)
    assert json.loads(bad.out)["verdict"] == "failed_finite"


def test_verify_golden_passes(maps):
    res = run(command="verify", map_path=maps["golden.json"], depth=64,
              length=32, samples=10)
    assert res.exit_code == 0
    payload = json.loads(res.out)
    assert payload["passed"] is True
    assert payload["decided_disagree"] == 0


# -------------------------------------------------------------- construct


def test_construct_round_trip(maps, tmp_path):
    out = str(tmp_path / "built.json")
    res = run(command="construct", map_path=maps["golden.json"], depth=64,
              out_path=out)
    assert res.exit_code == 0
    reloaded = load_map(out)
    from ietpc import build_pc_from_iet

    direct = build_pc_from_iet(golden_rotation(), N=64)
    assert reloaded == direct.pc
    sidecar = json.loads((tmp_path / "built.json.sidecar.json").read_text())
    assert sidecar["type"] == "construction-sidecar"
    assert sidecar["depth"] == 64


def test_construct_refuses_overwrite_without_force(maps, tmp_path):
    out = str(tmp_path / "built.json")
    first = run(command="construct", map_path=maps["golden.json"], out_path=out)
    assert first.exit_code == 0
    second = run(command="construct", map_path=maps["golden.json"], out_path=out)
    assert second.exit_code == 1
    assert "--force" in json.loads(second.err)["detail"]
    forced = run(command="construct", map_path=maps["golden.json"], out_path=out,
                 force=True)
    assert forced.exit_code == 0


def test_construct_output_is_deterministic(maps):
    a = run(command="construct", map_path=maps["golden.json"], depth=64)
    b = run(command="construct", map_path=maps["golden.json"], depth=64)
    assert a.out == b.out and a.exit_code == 0


# ---------------------------------------------------------- rabbit/certify


def test_rabbit_identity(maps):
    res = run(command="rabbit", precision_bits=60)
    assert res.exit_code == 0
    payload = json.loads(res.out)
    assert payload["identity_overlaps"] is True
    assert payload["rabbit"]["decimal"].startswith("0.709803442861291314")


def test_certify_success_and_inconclusive(maps):
    good = run(command="certify", map_path=maps["twopiece.json"], x="0/1")
    assert good.exit_code == 0
    payload = json.loads(good.out)
    assert (payload["q"], payload["p"]) == (0, 2)
    none = run(command="certify", map_path=maps["wanderer.json"], x="0/1",
               budget=50)
    assert none.exit_code == 2
    assert json.loads(none.out)["result"] == "none"


def test_certify_requires_contraction(maps):
    res = run(command="certify", map_path=maps["golden.json"], x="0/1")
    assert res.exit_code == 1


def test_factor_payload(maps):
    res = run(command="factor", map_path=maps["wanderer.json"], x="0/1", m=1000)
    assert res.exit_code == 0
    payload = json.loads(res.out)
    assert payload["type"] == "empirical-factor"
    assert payload["orbit_len"] == 1000
    assert payload["approximate"] is False
    assert set(payload["kept_pieces"]) <= {1, 2}


def test_factor_refuses_periodic(maps):
    res = run(command="factor", map_path=maps["twopiece.json"], x="0/1", m=1000)
    assert res.exit_code == 1
    assert json.loads(res.err)["error"] == "PeriodicOrbit"


# -------------------------------------------------------------- front end


def call_main(argv, capsys) -> DispatchResult:
    """Run main(argv) and return its exit code, stdout and stderr."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    return DispatchResult(stop.value.code, captured.out, captured.err)


def test_main_code_command(maps, capsys):
    result = call_main(
        ["code", "--map", maps["golden.json"], "--x", GOLDEN_X, "--len", "13"],
        capsys,
    )
    assert result.exit_code == 0
    assert result.out == "1211212112112\n"


def test_main_error_exit_code(maps, capsys):
    result = call_main(
        ["code", "--map", maps["golden.json"], "--x", "1/0", "--len", "5"], capsys
    )
    assert result.exit_code == 1


def test_main_help_lists_subcommands(capsys):
    result = call_main(["--help"], capsys)
    assert result.exit_code == 0
    for name in ("code", "complexity", "construct", "verify", "rabbit",
                 "certify", "factor", "idoc"):
        assert name in result.out


# argv flags after --map, and the RunConfig fields they must give
SUBCOMMANDS = [
    ("code", "golden.json", ["--x", GOLDEN_X, "--len", "13"],
     dict(x=GOLDEN_X, length=13)),
    ("code", "third.json", ["--x", "0/1", "--len", "6", "--format", "json"],
     dict(x="0/1", length=6, fmt="json")),
    ("complexity", "golden.json", ["--x", GOLDEN_X, "--len", "200", "--kmax", "8"],
     dict(x=GOLDEN_X, length=200, k_max=8)),
    ("complexity", "golden.json",
     ["--x", "1/3", "--kmax", "6", "--refinement", "--format", "json"],
     dict(x="1/3", k_max=6, refinement=True, fmt="json")),
    ("idoc", "golden.json", [], {}),
    ("idoc", "third.json", ["--depth", "50"], dict(depth=50)),
    ("construct", "golden.json", ["--N", "32"], dict(depth=32)),
    ("verify", "golden.json", ["--len", "32", "--samples", "10"],
     dict(length=32, samples=10)),
    ("rabbit", None, ["--bits", "80"], dict(precision_bits=80)),
    ("certify", "twopiece.json", ["--x", "0/1"], dict(x="0/1")),
    ("certify", "wanderer.json", ["--x", "0/1", "--budget", "50"],
     dict(x="0/1", budget=50)),
    ("factor", "wanderer.json", ["--x", "0/1", "--m", "1000"],
     dict(x="0/1", m=1000)),
    # a value may start with '-': the signed zero codes like 0/1
    ("code", "golden.json", ["--x", "-0/1", "--len", "5"], dict(x="0/1", length=5)),
]


@pytest.mark.parametrize("command,map_name,flags,fields", SUBCOMMANDS)
def test_main_matches_dispatch(maps, capsys, command, map_name, flags, fields):
    """main only parses: its output is dispatch's on the RunConfig its flags
    name (the last case compares `--x -0/1` with x="0/1", the same point)."""
    argv = [command]
    if map_name is not None:
        argv += ["--map", maps[map_name]]
        fields = dict(fields, map_path=maps[map_name])
    expected = dispatch(RunConfig(command=command, **fields))
    assert call_main(argv + flags, capsys) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["explode"],  # unknown subcommand
        [],  # no subcommand
        ["code", "--map", "{golden}", "--x", "0", "--len", "5", "--bogus"],
        ["code", "--ma", "{golden}", "--x", "0", "--len", "5"],  # no abbreviations
        ["code", "--map", "{golden}", "--x", "0", "--len", "five"],
        ["code", "--map", "{golden}", "--x", "0", "--len"],  # value missing
        ["code", "--map", "{golden}", "--x", "0", "--len", "5", "--format", "yaml"],
        ["code", "--map", "{golden}", "--x", "0", "--len", "0"],  # out of range
        ["certify", "--map", "{twopiece}", "--x", "0", "--budget", "0"],
        ["certify", "--map", "{twopiece}"],  # missing --x
        ["rabbit", "--bits", "0"],
        ["code", "--map", "", "--x", "0", "--len", "5"],
        ["code", "--map", "{golden}", "--x", "1/0", "--len", "5"],
        ["code", "--map", "{golden}", "--x", "-1/3", "--len", "5"],  # out of domain
    ],
)
def test_main_input_errors_exit_1_with_json(maps, capsys, argv):
    paths = {"golden": maps["golden.json"], "twopiece": maps["twopiece.json"]}
    result = call_main([a.format(**paths) for a in argv], capsys)
    assert result.exit_code == 1
    assert result.out == ""
    lines = result.err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "detail"}
    if "-1/3" in argv:  # the parser hands the value on, so dispatch's detail shows
        assert result == dispatch(RunConfig(command="code", map_path=paths["golden"],
                                            x="-1/3", length=5))


@pytest.mark.parametrize("data", [
    # JSON true is not the sign +1
    {"type": "iet", "breakpoints": ["0/1", "1/2", "1/1"], "signs": [True, True],
     "translations": ["1/2", "-1/2"]},
    # Arabic-Indic digits are not the grammar's
    {"type": "iet", "breakpoints": ["0/1", "\u0661/\u0662", "1/1"], "signs": [1, 1],
     "translations": ["1/2", "-1/2"]},
    # nor is a no-break space
    {"type": "pc", "breakpoints": ["0/1", "1/1"], "slopes": ["1/2"],
     "intercepts": ["1/\u00a04"]},
])
def test_maps_outside_the_grammar_exit_1(tmp_path, capsys, data):
    with pytest.raises(MapFormatError):
        map_from_json_dict(data)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = call_main(["code", "--map", str(path), "--x", "1/3", "--len", "5"],
                       capsys)
    assert result.exit_code == 1 and result.out == ""
    lines = result.err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "detail"}


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this ietpc package."""
    src = os.path.dirname(os.path.dirname(ietpc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_importing_cli_leaves_click_unloaded():
    """The front end is stdlib argparse: nothing on the CLI path loads click."""
    probe = ("import sys, ietpc, ietpc.cli\n"
             "try:\n"
             "    ietpc.cli.main(['--help'])\n"
             "except SystemExit as stop:\n"
             "    assert stop.code == 0\n"
             "assert 'click' not in sys.modules")
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    """Records are plain classes, so start-up pays for neither module; -S
    keeps imports made by site-packages .pth files out of the check."""
    probe = ("import sys, ietpc, ietpc.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = _python("-S", "-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_module_entry_point(maps):
    result = _python("-m", "ietpc.cli", "code", "--map", maps["golden.json"],
                     "--x", GOLDEN_X, "--len", "13")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1211212112112\n"


# ----------------------------------------------------------------- fuzzing

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
scalar_texts = st.sampled_from(
    ["0/1", "1/2", "1", "1/3", "2/3", "-1/4", "(3-1*sqrt(5))/2", "(1+1*sqrt(2))/4",
     "(0+1*sqrt(100000000000000000000))/1", "1/0", "x", ""])
map_like = st.fixed_dictionaries(
    {"type": st.sampled_from(["iet", "pc", "rotation"]),
     "breakpoints": st.lists(scalar_texts, max_size=4) | json_values},
    optional={
        "signs": st.lists(st.sampled_from([1, -1, 0, True, "1"]), max_size=3)
        | json_values,
        "translations": st.lists(scalar_texts, max_size=3) | json_values,
        "slopes": st.lists(scalar_texts, max_size=3) | json_values,
        "intercepts": st.lists(scalar_texts, max_size=3) | json_values,
        "extra": json_values,
    },
)
# a well-formed file may still describe no valid map: the constructors'
# typed validation errors stay what the CLI reports for it
MAP_ERRORS = (ValueError, MapFormatError, BadPartition, NotBijective, NotContracting,
              NotInjective, ImageEscapes, IncompatibleRadicands)


def _main_output(argv: list[str]) -> DispatchResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            main(argv)
    return DispatchResult(stop.value.code, out.getvalue(), err.getvalue())


def _assert_clean_exit(result: DispatchResult) -> None:
    """Exit 0 with no stderr, or exit 1 with one JSON error line."""
    if result.exit_code == 0:
        assert result.err == ""
        return
    assert result.exit_code == 1 and result.out == ""
    lines = result.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in result.err
    assert set(json.loads(lines[0])) == {"error", "detail"}


@settings(deadline=None, max_examples=150)
@given(json_values | map_like)
def test_map_from_json_dict_raises_only_typed_errors(data):
    try:
        map_from_json_dict(data)
    except MAP_ERRORS:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        _assert_clean_exit(_main_output(
            ["code", "--map", path, "--x", "1/3", "--len", "5"]))


@settings(deadline=None)
@given(st.text() | scalar_texts)
def test_main_reports_any_start_point_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "golden.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(golden_rotation().to_json_dict()))
        _assert_clean_exit(_main_output(
            ["code", "--map", path, "--x", text, "--len", "5"]))


# --------------------------------------------------------------- round trips


@settings(deadline=None, max_examples=60)
@given(st.one_of(slope_maps(max_pieces=4), slope_maps(3), exchanges()))
def test_maps_round_trip_through_canonical_json(m):
    """A loaded map re-serialises to the bytes it came from."""
    f = m[0] if isinstance(m, tuple) else m
    text = canonical_json(f.to_json_dict())
    back = map_from_json_dict(json.loads(text))
    assert back == f
    assert canonical_json(back.to_json_dict()) == text


@settings(deadline=None, max_examples=40)
@given(slope_maps(max_pieces=3))
def test_certificates_round_trip_through_canonical_json(fx):
    cert = certify_periodic(*fx)
    if cert is None:
        return
    text = canonical_json(cert.to_json_dict())
    back = PeriodicCertificate.from_json_dict(json.loads(text))
    assert back == cert
    assert canonical_json(back.to_json_dict()) == text
