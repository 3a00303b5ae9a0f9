"""Command line: one option table, an argparse front end, and dispatch.

Every subcommand funnels through dispatch(RunConfig), which is plain Python
(no terminal dependency) so the whole surface is unit-testable.  Output is
deterministic: canonical JSON (sorted keys) or CSV, exact scalars as text.
Exit codes: 0 success, 1 invalid input (malformed options included),
2 inconclusive result.  Defaults and required options live in the
handlers alone, because library callers reach only dispatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import construct as construct_mod
from . import iet as iet_mod
from . import pc as pc_mod
from . import words as words_mod
from ._record import record
from .errors import IetpcError
from .iet import Iet
from .mapio import atomic_write_text, canonical_json, load_map
from .numeric import Ball, ExactNumber, format_scalar, parse_scalar
from .pc import PiecewiseContraction

_FORMATS = {"json", "csv", "plain"}


# One entry per flag: the RunConfig field it sets, its kind and its help.
# Kinds: "int" (positive), "path" (nonempty), "str", "flag".
_OPTIONS = {
    "--map": ("map_path", "path", "Path to an iet/pc JSON map file."),
    "--x": ("x", "str", "Exact scalar, e.g. 1/3 or (3-1*sqrt(5))/2."),
    "--len": ("length", "int", "Coding length."),
    "--kmax": ("k_max", "int", "Largest factor length."),
    "--refinement": ("refinement", "flag", "Refinement table (iet maps only)."),
    "--depth": ("depth", "int", "Depth of the idoc check."),
    "--N": ("depth", "int", "Truncation depth of the gap system."),
    "--seed": ("seed", "str", "Orbit seed (image of a partition endpoint)."),
    "--samples": ("samples", "int", "Number of gap midpoints to code."),
    "--sidecar": ("sidecar_path", "path", "Where to write the sidecar."),
    "--bits": ("precision_bits", "int", "Precision of the enclosures."),
    "--budget": ("budget", "int", "Float-orbit length hunted for candidates."),
    "--m": ("m", "int", "Orbit length."),
    "--format": ("fmt", "str", f"Output format: {', '.join(sorted(_FORMATS))}."),
    "--out": ("out_path", "path", "Write output to this file (atomic)."),
    "--force": ("force", "flag", "Overwrite existing output files."),
}


@record
class RunConfig:
    command: str
    map_path: Optional[str] = None
    x: Optional[str] = None
    length: Optional[int] = None
    k_max: Optional[int] = None
    depth: Optional[int] = None
    m: Optional[int] = None
    precision_bits: Optional[int] = None
    budget: Optional[int] = None
    samples: Optional[int] = None
    seed: Optional[str] = None
    refinement: bool = False
    fmt: Optional[str] = None
    out_path: Optional[str] = None
    sidecar_path: Optional[str] = None
    force: bool = False

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown subcommand {self.command!r}")
        if self.fmt is not None and self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {sorted(_FORMATS)}")
        for name, kind, _ in _OPTIONS.values():
            value = getattr(self, name)
            if value is not None and kind == "int" and value < 1:
                raise ValueError(f"{name} must be positive")
            if value is not None and kind == "path" and not value:
                raise ValueError(f"{name} must be nonempty")


@record
class DispatchResult:
    __slots__ = ("exit_code", "out", "err")

    exit_code: int
    out: str
    err: str


def _error_line(exc: BaseException) -> str:
    return (
        json.dumps(
            {"error": type(exc).__name__, "detail": str(exc)}, sort_keys=True
        )
        + "\n"
    )


def _ball_dict(b: Ball) -> dict:
    return {
        "center": format_scalar(ExactNumber(b.center)),
        "radius": format_scalar(ExactNumber(b.radius)),
        "decimal": _decimal(b.center),
    }


def _decimal(value, places: int = 25) -> str:
    """Exact decimal rendering of a Fraction, truncated toward zero."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value.numerator * 10**places // value.denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"subcommand {config.command!r} requires {name}")


def _load_any(config: RunConfig):
    _require(config, "map_path")
    return load_map(config.map_path)


def _need_iet(m) -> Iet:
    if not isinstance(m, Iet):
        raise ValueError("this subcommand needs an exchange ('type': 'iet') map")
    return m


def _need_pc(m) -> PiecewiseContraction:
    if not isinstance(m, PiecewiseContraction):
        raise ValueError("this subcommand needs a contraction ('type': 'pc') map")
    return m


def _write_out(config: RunConfig, path: str, text: str) -> None:
    if os.path.exists(path) and not config.force:
        raise ValueError(f"{path} exists; pass --force to overwrite")
    atomic_write_text(path, text)


def dispatch(config: RunConfig) -> DispatchResult:
    try:
        code, out = _run(config)
    except (IetpcError, ValueError) as exc:
        return DispatchResult(1, "", _error_line(exc))
    return DispatchResult(code, out, "")


def _run(config: RunConfig) -> tuple[int, str]:
    code, text = _COMMANDS[config.command][0](config)
    if config.out_path is not None:
        _write_out(config, config.out_path, text)
    return code, text


def _coding(m, x: ExactNumber, length: int):
    """The natural coding of x under an exchange or a contraction."""
    return (iet_mod.coding if isinstance(m, Iet) else pc_mod.coding)(m, x, length)


def _cmd_code(config: RunConfig) -> tuple[int, str]:
    _require(config, "x", "length")
    m = _load_any(config)
    word = _coding(m, parse_scalar(config.x), config.length)
    fmt = config.fmt or "plain"
    if fmt == "plain":
        return 0, word.to_text() + "\n"
    if fmt == "csv":
        rows = ["step,letter"]
        rows.extend(f"{k},{word[k]}" for k in range(len(word)))
        return 0, "\n".join(rows) + "\n"
    return 0, canonical_json(
        {
            "type": "word",
            "alphabet_size": word.alphabet_size,
            "letters": list(word),
            "text": word.to_text(),
        }
    )


def _cmd_complexity(config: RunConfig) -> tuple[int, str]:
    _require(config, "x", "k_max")
    m = _load_any(config)
    x = parse_scalar(config.x)
    fmt = config.fmt or "csv"
    if config.refinement:
        T = _need_iet(m)
        rc = iet_mod.refinement_complexity(T, x, config.k_max)
        if fmt == "json":
            payload = rc.table.to_json_dict()
            payload["m_values"] = list(rc.m_values)
            payload["m_nonincreasing"] = rc.m_nonincreasing
            return 0, canonical_json(payload)
        return 0, rc.table.to_csv_text()
    _require(config, "length")
    table = words_mod.complexity(_coding(m, x, config.length), config.k_max)
    if fmt == "json":
        return 0, canonical_json(table.to_json_dict())
    return 0, table.to_csv_text()


def _cmd_idoc(config: RunConfig) -> tuple[int, str]:
    T = _need_iet(_load_any(config))
    depth = config.depth or 100
    cert = iet_mod.idoc_check(T, depth)
    return 0, canonical_json(cert.to_json_dict())


def _cmd_construct(config: RunConfig) -> tuple[int, str]:
    T = _need_iet(_load_any(config))
    N = config.depth or 64
    seed = parse_scalar(config.seed) if config.seed is not None else None
    cpc = construct_mod.build_pc_from_iet(T, seed, N)
    pc_text = canonical_json(cpc.pc.to_json_dict())
    sidecar_text = canonical_json(cpc.to_sidecar_dict())
    sidecar_path = config.sidecar_path
    if sidecar_path is None and config.out_path is not None:
        sidecar_path = config.out_path + ".sidecar.json"
    if sidecar_path is not None:
        _write_out(config, sidecar_path, sidecar_text)
    return 0, pc_text


def _cmd_verify(config: RunConfig) -> tuple[int, str]:
    _require(config, "length", "samples")
    T = _need_iet(_load_any(config))
    N = config.depth or 64
    seed = parse_scalar(config.seed) if config.seed is not None else None
    cpc = construct_mod.build_pc_from_iet(T, seed, N)
    report = construct_mod.verify_semiconjugacy(
        cpc, T, config.length, config.samples
    )
    text = canonical_json(report.to_json_dict())
    if report.decided_disagree > 0:
        return 1, text
    if report.decided_agree == 0:
        return 2, text
    return 0, text


def _cmd_rabbit(config: RunConfig) -> tuple[int, str]:
    bits = config.precision_bits or 60
    R = construct_mod.rabbit_constant(bits)
    target = Ball(1 - R.center / 2, R.radius / 2)
    coding_len = max(200, bits + 8)
    T = iet_mod.golden_rotation()
    theta = iet_mod.coding(T, T.translations[0], coding_len)
    rot = construct_mod.rotation_pc(theta)
    overlaps = rot.delta.overlaps(target)
    payload = {
        "type": "rabbit-report",
        "precision_bits": bits,
        "rabbit": _ball_dict(R),
        "delta_from_coding": _ball_dict(rot.delta),
        "one_minus_half_rabbit": _ball_dict(target),
        "identity_overlaps": overlaps,
    }
    return (0 if overlaps else 1), canonical_json(payload)


def _cmd_certify(config: RunConfig) -> tuple[int, str]:
    _require(config, "x")
    f = _need_pc(_load_any(config))
    x = parse_scalar(config.x)
    budget = config.budget or 4096
    cert = pc_mod.certify_periodic(f, x, budget=budget)
    if cert is None:
        return 2, canonical_json(
            {"type": "periodic-certificate-search", "result": "none",
             "budget": budget}
        )
    if not pc_mod.check_certificate(f, cert):
        raise IetpcError("internal: certificate failed re-validation")
    return 0, canonical_json(cert.to_json_dict())


def _cmd_factor(config: RunConfig) -> tuple[int, str]:
    _require(config, "x")
    f = _need_pc(_load_any(config))
    x = parse_scalar(config.x)
    m = config.m or 20000
    fac = pc_mod.empirical_factor(f, x, m)
    payload = {
        "type": "empirical-factor",
        "orbit_len": fac.orbit_len,
        "visit_counts": list(fac.visit_counts),
        "kept_pieces": list(fac.kept_pieces),
        "breakpoints_hat": [repr(v) for v in fac.breakpoints_hat],
        "translations_hat": {
            str(k): repr(v) for k, v in sorted(fac.translations_hat.items())
        },
        "residual": repr(fac.residual),
        "approximate": fac.approximate,
    }
    return 0, canonical_json(payload)


# ------------------------------------------------------------ front end


# One entry per subcommand: its handler and its flags; every subcommand
# also takes --out and --force.
_COMMANDS = {
    "code": (_cmd_code, ("--map", "--x", "--len", "--format")),
    "complexity": (_cmd_complexity,
                   ("--map", "--x", "--len", "--kmax", "--refinement", "--format")),
    "idoc": (_cmd_idoc, ("--map", "--depth")),
    "construct": (_cmd_construct, ("--map", "--N", "--seed", "--sidecar")),
    "verify": (_cmd_verify, ("--map", "--N", "--seed", "--len", "--samples")),
    "rabbit": (_cmd_rabbit, ("--bits",)),
    "certify": (_cmd_certify, ("--map", "--x", "--budget")),
    "factor": (_cmd_factor, ("--map", "--x", "--m")),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ValueError(message)  # main reports it like dispatch: exit 1


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ietpc", allow_abbrev=False, description=(
        "Exact codings, complexity tables, and contraction constructions."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in (*flags, "--out", "--force"):
            field, kind, text = _OPTIONS[flag]
            if kind == "flag":
                p.add_argument(flag, dest=field, action="store_true", help=text)
            else:
                p.add_argument(flag, dest=field, help=text,
                               type=int if kind == "int" else None)
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write `--x -0/1` as `--x=-0/1`: a value-taking option takes the next
    token whatever its first character, unless that token is one of the
    subcommand's flags (argparse alone reads `-0/1` as a flag)."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    command, *rest = argv
    flags = {*_COMMANDS[command][1], "--out", "--force", "-h", "--help"}
    takes_value = {f for f in flags & _OPTIONS.keys() if _OPTIONS[f][1] != "flag"}
    out = [command]
    for token in rest:
        if out[-1] in takes_value and token.startswith("-") and token not in flags:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[list[str]] = None) -> None:
    """Parse argv, dispatch, write out/err and exit with the result's code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = RunConfig(**vars(_parser().parse_args(_attach_dash_values(argv))))
    except ValueError as exc:
        result = DispatchResult(1, "", _error_line(exc))
    else:
        result = dispatch(config)
    sys.stdout.write(result.out)
    sys.stderr.write(result.err)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
