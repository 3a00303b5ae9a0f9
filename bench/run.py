"""Benchmark of the ietpc library: one workload per process, one thread.

    python3 bench/run.py --workload sturmian-words --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  sturmian-words        exact exchange codings, complexity, period detection
  certify-lockin        `ietpc certify` through cli.dispatch on small maps
  construction-refusal  slope-1/2 construction, verification, refused
                        certificates, ball and exact orbits, empirical factor

Inputs come from fixed pools pinned in bench/pins.json; --seed only picks
pool entries and their order.  The default seed is 1.  Seed 9001 is held
out: no tuning used it, so a later claim of a gain can be re-checked on it.

--trace 0 runs whole rounds of jobs until --seconds have passed and prints
the end-to-end metrics.  --trace 1 runs one round untraced and the same
round traced, then the layer probes, and prints the per-layer metrics; its
spans are written to bench/out/.  Every output is compared with its pin and
with pin-independent invariants.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time

START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")
SETUP_REPS = 3
TAIL_BEYOND = 10


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Digest of the library sources, which names the code when no git
    metadata is present."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ietpc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _check(wl, pins: dict, key: str, out, error) -> list[str]:
    if error is not None:
        return [f"{key}: raised {error}"]
    problems = []
    expected = pins.get(key)
    try:
        if expected is None:
            problems.append(f"{key}: no pinned output")
        elif wl.digest(out) != expected:
            problems.append(f"{key}: output differs from its pin")
        problems.extend(wl.invariants(key, out))
    except Exception as exc:  # a malformed output must count, not crash
        problems.append(f"{key}: check raised {exc!r}")
    return problems


def _run_jobs(wl, ks, results: list, durations: list) -> None:
    for k in ks:
        key = wl.key(k)
        t0 = time.perf_counter()
        try:
            out, error = wl.run_key(key), None
        except Exception as exc:  # counted as a failed operation
            out, error = None, repr(exc)
        durations.append(time.perf_counter() - t0)
        results.append((key, out, error))


def timed_run(wl, seconds: float) -> tuple[dict, list, dict]:
    results: list = []
    durations: list = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        _run_jobs(wl, range(rounds * wl.round_size, (rounds + 1) * wl.round_size),
                  results, durations)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    n = len(durations)
    metrics = {
        "jobs_per_s": (n / wall, "1/s"),
        "job_p50_s": (statistics.median(durations), "s"),
    }
    extra = {"jobs": n, "rounds": rounds, "timed_wall_s": wall}
    if n >= 10 * TAIL_BEYOND:
        ordered = sorted(durations)
        extra["job_tail_s"] = ordered[n - TAIL_BEYOND - 1]
        extra["job_tail_pct"] = 100.0 * (n - TAIL_BEYOND) / n
    return metrics, results, extra


def traced_run(wl, seed: int) -> tuple[dict, list, dict]:
    import probes
    import tracing

    ks = range(wl.round_size)
    results: list = []
    untraced: list = []
    _run_jobs(wl, ks, results, untraced)
    tracer = tracing.Tracer()
    traced: list = []
    with tracer.installed():
        for k in ks:
            with tracer.span("job"):
                _run_jobs(wl, [k], results, traced)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_share"] = (sum(traced) / sum(untraced) - 1, "ratio")
    metrics.update(probes.run_probes())
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json_dict(), fh)
    return metrics, results, {"jobs": len(ks), "trace_file": path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()[0]

    sys.path[:0] = [SRC, HERE]
    try:
        import ietpc
    except ImportError as exc:
        print(f"cannot import ietpc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(ietpc.__file__)) != os.path.join(SRC, "ietpc"):
        print(f"ietpc was imported from {ietpc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    for module in cls.IMPORTS:
        importlib.import_module(module)
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)[cls.name]
    import_s = time.perf_counter() - START

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl = cls(args.seed, workdir)
            wl.warm_up()
            reps.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(reps)
        if args.trace:
            metrics, results, extra = traced_run(wl, args.seed)
        else:
            metrics, results, extra = timed_run(wl, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        failed = 0
        for key, out, error in results:
            problems = _check(wl, pins, key, out, error)
            if problems:
                failed += 1
                for line in problems:
                    print(f"FAIL {line}", file=sys.stderr)

    attempted = len(results)
    record = {
        "workload": cls.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": load_at_start,
        "setup_reps_s": reps,
        "fail_share": failed / attempted,
        **extra,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'fail_share':48s} {failed / attempted:14.6g} ratio")
    if "job_tail_s" in extra:
        print(f"{'job_tail_s':48s} {extra['job_tail_s']:14.6g} s "
              f"(p{extra['job_tail_pct']:.2f}, {extra['jobs']} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
