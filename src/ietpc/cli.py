"""Command line front end.

Every subcommand funnels through dispatch(RunConfig), which is plain Python
(no terminal dependency) so the whole surface is unit-testable.  Output is
deterministic: canonical JSON (sorted keys) or CSV, exact scalars as text.
Exit codes: 0 success, 1 validation error, 2 inconclusive result.  The click
commands live in cli_click, which loads only when cli.main is first used.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Optional

from . import construct as construct_mod
from . import iet as iet_mod
from . import pc as pc_mod
from . import words as words_mod
from .errors import IetpcError
from .iet import Iet
from .mapio import atomic_write_text, canonical_json, load_map
from .numeric import Ball, ExactNumber, format_scalar, parse_scalar
from .pc import PiecewiseContraction

_COMMANDS = {
    "code",
    "complexity",
    "idoc",
    "construct",
    "verify",
    "rabbit",
    "certify",
    "factor",
}
_FORMATS = {"json", "csv", "plain"}


@dataclasses.dataclass(frozen=True)
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
        for name in ("length", "k_max", "depth", "m", "precision_bits",
                     "budget", "samples"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("map_path", "out_path", "sidecar_path"):
            value = getattr(self, name)
            if value is not None and not value:
                raise ValueError(f"{name} must be nonempty")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class DispatchResult:
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
    handler = {
        "code": _cmd_code,
        "complexity": _cmd_complexity,
        "idoc": _cmd_idoc,
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "rabbit": _cmd_rabbit,
        "certify": _cmd_certify,
        "factor": _cmd_factor,
    }[config.command]
    code, text = handler(config)
    if config.out_path is not None:
        _write_out(config, config.out_path, text)
    return code, text


def _cmd_code(config: RunConfig) -> tuple[int, str]:
    _require(config, "x", "length")
    m = _load_any(config)
    x = parse_scalar(config.x)
    if isinstance(m, Iet):
        word = iet_mod.coding(m, x, config.length)
    else:
        word = pc_mod.coding(m, x, config.length)
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
            "letters": list(word.symbols),
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
    if isinstance(m, Iet):
        word = iet_mod.coding(m, x, config.length)
    else:
        word = pc_mod.coding(m, x, config.length)
    table = words_mod.complexity(word, config.k_max)
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


def __getattr__(name: str):
    # The click front end loads on first use of cli.main, so library users
    # of dispatch never import click.
    if name == "main":
        from .cli_click import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    from .cli_click import main

    main()
