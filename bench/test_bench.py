"""The benchmark's own checks: pins catch tampering, spans fire where the
workloads reach a layer, and tracing leaves the library as it found it."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _pins(name):
    with open(run.PINS, encoding="utf-8") as fh:
        return json.load(fh)[name]


def test_check_accepts_pinned_output_and_rejects_a_tampered_pin(tmp_path):
    wl = WORKLOADS["certify-lockin"](1, str(tmp_path))
    pins = _pins(wl.name)
    key = wl.key(0)
    out = wl.run_key(key)
    assert run._check(wl, pins, key, out, None) == []
    tampered = dict(pins, **{key: dict(pins[key], stdout="0" * 16)})
    assert run._check(wl, tampered, key, out, None)
    assert run._check(wl, pins, key, None, "RuntimeError()")


def test_tampered_pin_raises_fail_share(tmp_path, monkeypatch, capsys):
    with open(run.PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    wl = WORKLOADS["sturmian-words"](1, str(tmp_path))
    first = wl.key(0)
    pins["sturmian-words"][first] = dict(pins["sturmian-words"][first], period=[0, 1])
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", str(path))
    assert run.main(["--workload", "sturmian-words", "--seed", "1",
                     "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[0])["record"]
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == wl.round_size
    assert record["fail_share"] > 0
    assert set(result["metrics"]) == {"jobs_per_s", "job_p50_s", "setup_s",
                                      "peak_rss_mb"}


# Spans each workload must reach, and the jobs that reach them.
# construction-refusal runs at a shallow depth and a short factor orbit
# here, which reaches the same calls sooner.
EXPECTED = {
    "sturmian-words": {"iet.coding", "words.complexity",
                       "words.detect_eventual_period",
                       "iet.refinement_complexity"},
    "certify-lockin": {"cli.dispatch", "mapio.load_map", "pc.certify_periodic",
                       "words.detect_eventual_period", "pc.check_certificate",
                       "mapio.canonical_json"},
    "construction-refusal": {"construct.build_pc_from_iet",
                             "construct.verify_semiconjugacy", "iet.coding",
                             "pc.certify_periodic",
                             "construct.robust_certificate",
                             "words.detect_eventual_period", "pc.coding.ball",
                             "pc.coding.exact", "pc.empirical_factor"},
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_expected_spans_fire(name, tmp_path):
    wl = WORKLOADS[name](1, str(tmp_path))
    if name == "construction-refusal":
        wl.DEPTH, wl.VERIFY_SAMPLES, wl.FACTOR_STEPS = 16, 8, 1000
        keys = ["marked/0", "golden/factor"]
    elif name == "certify-lockin":
        keys = [wl.key(k) for k in range(3)]
    else:
        keys = ["golden/0"]
    tracer = tracing.Tracer()
    with tracer.installed():
        for key in keys:
            with tracer.span("job"):
                wl.run_key(key)
    calls, _, own = tracer.totals()
    assert EXPECTED[name] <= set(calls)
    if name == "sturmian-words":
        assert not {n for n in calls if n.split(".")[0] in ("pc", "construct", "cli")}
    assert all(seconds >= 0 for seconds in own.values())
    metrics = tracing.layer_metrics(tracer)
    assert sum(metrics[f"{layer}.self_share"][0]
               for layer in tracing.LAYERS + ("bench",)) == pytest.approx(1)


def test_tracing_restores_every_binding():
    before = [getattr(m, a) for m, a, _, _ in tracing.BINDINGS]
    with tracing.Tracer().installed():
        assert all(getattr(m, a) is not f
                   for (m, a, _, _), f in zip(tracing.BINDINGS, before))
    assert [getattr(m, a) for m, a, _, _ in tracing.BINDINGS] == before
