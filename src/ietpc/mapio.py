"""Reading and writing map files.

A map file is a JSON object; scalars are exact text ("p/q" or
"(a+b*sqrt(d))/c"), never floats, so files round-trip byte-identically:

    {"type": "iet", "breakpoints": [...], "signs": [...], "translations": [...]}
    {"type": "pc",  "breakpoints": [...], "slopes": [...], "intercepts": [...]}
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Union

from .errors import MapFormatError
from .iet import Iet, new_iet
from .numeric import ExactNumber, parse_scalar
from .pc import PiecewiseContraction, new_pc

AnyMap = Union[Iet, PiecewiseContraction]

_IET_KEYS = {"type", "breakpoints", "signs", "translations"}
_PC_KEYS = {"type", "breakpoints", "slopes", "intercepts"}


def _scalar(value: object, key: str) -> ExactNumber:
    """value, an element of field key, parsed as an exact scalar string."""
    if not isinstance(value, str):
        raise MapFormatError(
            f"field {key!r} must hold exact scalar strings, got {value!r}"
        )
    try:
        return parse_scalar(value)
    except ValueError as exc:
        raise MapFormatError(f"bad scalar in {key!r}: {exc}") from exc


def _scalar_list(data: dict, key: str) -> list:
    values = data.get(key)
    if not isinstance(values, list) or not values:
        raise MapFormatError(f"field {key!r} must be a nonempty list")
    return [_scalar(v, key) for v in values]


def map_from_json_dict(data: object) -> AnyMap:
    if not isinstance(data, dict):
        raise MapFormatError("map file must hold a JSON object")
    kind = data.get("type")
    if kind == "iet":
        if set(data) != _IET_KEYS:
            raise MapFormatError(
                f"iet map must have exactly the fields {sorted(_IET_KEYS)}"
            )
        signs = data["signs"]
        if not isinstance(signs, list) or any(
            type(s) is not int or s not in (-1, 1) for s in signs  # JSON true is no sign
        ):
            raise MapFormatError("field 'signs' must be a list of +1/-1")
        return new_iet(
            _scalar_list(data, "breakpoints"), signs, _scalar_list(data, "translations")
        )
    if kind == "pc":
        if set(data) != _PC_KEYS:
            raise MapFormatError(
                f"pc map must have exactly the fields {sorted(_PC_KEYS)}"
            )
        return new_pc(
            _scalar_list(data, "breakpoints"),
            _scalar_list(data, "slopes"),
            _scalar_list(data, "intercepts"),
        )
    raise MapFormatError(f"unknown map type {kind!r}")


def load_map(path: str) -> AnyMap:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise MapFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"{path} is not valid JSON: {exc}") from exc
    return map_from_json_dict(data)


def canonical_json(obj: object) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, one trailing
    newline.  Identical inputs give byte-identical files."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
