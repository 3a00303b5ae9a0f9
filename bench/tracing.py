"""Spans around the library's public functions, installed from outside.

The traced run replaces every binding the workloads call through with a
wrapper that records a span (name, start, end, parent) and a few counts
taken at the same boundary.  Spans stay in memory until the run ends.
A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

from ietpc import cli, construct, iet, mapio, pc, words

LAYERS = ("iet", "words", "pc", "construct", "mapio", "cli")


def _pc_coding_name(a: dict) -> str:
    return "pc.coding.ball" if a["approximate"] else "pc.coding.exact"


def _length(a, r):
    return a["length"]


def _json_bytes(a, r):
    return len(r)


# (module, attribute, span name or a function of the bound arguments,
#  {count suffix: amount(bound arguments, result)}).  Modules that import a
# function by name hold their own binding, so each of those is listed too:
# cli takes load_map and canonical_json by name and construct takes
# iet.coding as iet_coding.  pc imports detect_eventual_period and
# robust_certificate inside functions, which reads the patched attribute.
BINDINGS = (
    (iet, "coding", "iet.coding", {"letters": _length}),
    (construct, "iet_coding", "iet.coding", {"letters": _length}),
    (iet, "refinement_complexity", "iet.refinement_complexity", {}),
    (words, "complexity", "words.complexity",
     {"cells": lambda a, r: len(a["word"]) * a["k_max"]}),
    (words, "detect_eventual_period", "words.detect_eventual_period",
     {"letters": lambda a, r: len(a["word"])}),
    (pc, "certify_periodic", "pc.certify_periodic",
     {"found": lambda a, r: r is not None}),
    (pc, "check_certificate", "pc.check_certificate",
     {"passed": lambda a, r: bool(r)}),
    (construct, "robust_certificate", "construct.robust_certificate",
     {"accepted": lambda a, r: bool(r)}),
    (pc, "empirical_factor", "pc.empirical_factor",
     {"steps": lambda a, r: a["burn_in"] + a["m"] + 1}),
    (pc, "coding", _pc_coding_name, {"letters": _length}),
    (construct, "verify_semiconjugacy", "construct.verify_semiconjugacy",
     {"decided": lambda a, r: r.decided_agree + r.decided_disagree,
      "positions": lambda a, r: r.total_positions}),
    (construct, "build_pc_from_iet", "construct.build_pc_from_iet", {}),
    (mapio, "load_map", "mapio.load_map", {}),
    (cli, "load_map", "mapio.load_map", {}),
    (mapio, "canonical_json", "mapio.canonical_json", {"bytes": _json_bytes}),
    (cli, "canonical_json", "mapio.canonical_json", {"bytes": _json_bytes}),
    (cli, "dispatch", "cli.dispatch",
     {"nonzero_exit": lambda a, r: r.exit_code != 0}),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name, counts):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = name(a) if callable(name) else name
            with self.span(span):
                result = fn(*args, **kwargs)
            for suffix, amount in counts.items():
                self.counts[f"{span}.{suffix}"] += amount(a, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, counts in BINDINGS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, counts))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own

    def to_json_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted (the calls count shows it)."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced jobs, as name -> (value, unit)."""
    calls, total, own = tracer.totals()
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def us_per(span: str, per: float) -> float:
        return _ratio(own[span] * 1e6, per)

    m["iet.coding.calls"] = (calls["iet.coding"], "count")
    m["iet.coding.letters"] = (c["iet.coding.letters"], "count")
    m["iet.coding.self_s"] = (own["iet.coding"], "s")
    m["iet.coding.us_per_letter"] = (us_per("iet.coding", c["iet.coding.letters"]), "us")
    m["iet.refinement_complexity.self_s"] = (own["iet.refinement_complexity"], "s")
    m["words.complexity.self_s"] = (own["words.complexity"], "s")
    m["words.complexity.cells"] = (c["words.complexity.cells"], "count")
    m["words.detect_eventual_period.self_s"] = (own["words.detect_eventual_period"], "s")
    m["words.detect_eventual_period.letters"] = (
        c["words.detect_eventual_period.letters"], "count")
    for span, outcome, ratio in (
        ("pc.certify_periodic", "found", "found_ratio"),
        ("pc.check_certificate", "passed", "pass_ratio"),
        ("construct.robust_certificate", "accepted", "accept_ratio"),
    ):
        m[f"{span}.calls"] = (calls[span], "count")
        m[f"{span}.self_s"] = (own[span], "s")
        m[f"{span}.{ratio}"] = (_ratio(c[f"{span}.{outcome}"], calls[span]), "ratio")
    m["pc.empirical_factor.self_s"] = (own["pc.empirical_factor"], "s")
    m["pc.empirical_factor.steps"] = (c["pc.empirical_factor.steps"], "count")
    for mode in ("ball", "exact"):
        span = f"pc.coding.{mode}"
        m[f"pc.coding.us_per_letter.{mode}"] = (us_per(span, c[f"{span}.letters"]), "us")
    m["construct.verify_semiconjugacy.self_s"] = (own["construct.verify_semiconjugacy"], "s")
    m["construct.verify_semiconjugacy.decided_share"] = (
        _ratio(c["construct.verify_semiconjugacy.decided"],
               c["construct.verify_semiconjugacy.positions"]), "ratio")
    m["construct.build_pc_from_iet.self_s"] = (own["construct.build_pc_from_iet"], "s")
    m["mapio.load_map.calls"] = (calls["mapio.load_map"], "count")
    m["mapio.load_map.self_s"] = (own["mapio.load_map"], "s")
    m["mapio.canonical_json.self_s"] = (own["mapio.canonical_json"], "s")
    m["mapio.canonical_json.bytes"] = (c["mapio.canonical_json.bytes"], "bytes")
    m["cli.dispatch.calls"] = (calls["cli.dispatch"], "count")
    m["cli.dispatch.self_s"] = (own["cli.dispatch"], "s")
    m["cli.dispatch.nonzero_exit"] = (c["cli.dispatch.nonzero_exit"], "count")

    job_time = total["job"]
    by_layer = defaultdict(float)
    for name, seconds in own.items():
        by_layer["bench" if name == "job" else name.split(".")[0]] += seconds
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_share"] = (_ratio(by_layer[layer], job_time), "ratio")
    return m
