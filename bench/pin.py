"""Regenerate bench/pins.json: the exact output digest of every pool entry.

    PYTHONPATH=src python3 bench/pin.py [workload ...]

Pins record the outputs of the commit they were made at.  Regenerate them
only for a change that is meant to alter outputs, and say so where the
change is described; otherwise a mismatch is a failure of the library.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")


def main(names: list[str]) -> None:
    from workloads import WORKLOADS

    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        for name in names or list(WORKLOADS):
            wl = WORKLOADS[name](0, workdir)
            table = {}
            for key in wl.pool_keys():
                t0 = time.perf_counter()
                out = wl.run_key(key)
                dt = time.perf_counter() - t0
                bad = wl.invariants(key, out)
                if bad:
                    raise SystemExit(f"refusing to pin a broken output: {bad}")
                table[key] = wl.digest(out)
                print(f"{name} {key} {dt:.3f}s", file=sys.stderr, flush=True)
            pins[name] = table
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    main(sys.argv[1:])
