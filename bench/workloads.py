"""The benchmark's three workloads: seeded inputs, jobs and output checks.

Every input comes from a fixed pool whose outputs are pinned in pins.json;
the workload seed only chooses which pool entries run and in what order.
So any seed gives inputs whose exact outputs are known, and a later change
to the library is checked against the outputs of the commit that pinned
them.

A workload object is built by its set-up (input generation, map files),
after the modules in ``IMPORTS`` that the library would import lazily;
``warm_up`` makes the first calls that would otherwise land in the first
timed job.  ``key(k)`` names the pool entry of the k-th job and
``run_key(key)`` runs it; ``digest(out)`` reduces an output to the JSON-able value that is pinned,
and ``invariants(key, out)`` lists the broken pin-independent invariants.
Jobs come in rounds of ``round_size`` so that every run holds the same mix.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from ietpc import cli, construct, iet, mapio, pc, words
from ietpc.errors import IetpcError
from ietpc.numeric import ExactNumber, format_scalar

ALPHA = ExactNumber(Fraction(3, 2), Fraction(-1, 2), 5)
PHI_MINUS_1 = (5 ** 0.5 - 1) / 2
POOL_SEED = 20180303


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ------------------------------------------------------------------- maps


def marked_three_piece():
    """The idoc 3-piece exchange of the acceptance test AC4 (p(k) = 2k+1)."""
    return iet.new_iet(
        [0, Fraction(1, 2), ExactNumber(1) - ALPHA, 1],
        [1, 1, 1],
        [ALPHA, ALPHA, ALPHA - 1],
    )


def flipped_three_piece():
    """The 3-piece exchange with flips of the construction tests."""
    one = ExactNumber(1)
    lengths = [ALPHA, ALPHA * ALPHA, one - ALPHA - ALPHA * ALPHA]
    bps = [ExactNumber(0)]
    for ln in lengths:
        bps.append(bps[-1] + ln)
    perm = (3, 1, 2)
    starts = {}
    pos = ExactNumber(0)
    for slot in range(1, 4):
        piece = perm.index(slot) + 1
        starts[piece] = pos
        pos = pos + lengths[piece - 1]
    trs = [starts[1] + bps[1], starts[2] - bps[1], starts[3] + bps[3]]
    return iet.new_iet(bps, (-1, 1, -1), trs)


def big_radicand_rotation():
    """Rotation by frac(sqrt(1000003)); 1000003 is prime."""
    return iet.rotation_iet(ExactNumber.sqrt(1000003) - 1000)


def _start_pool(tag: str, size: int) -> list[Fraction]:
    """Fixed rational start points a/b with b an odd prime, so no start sits
    on the rational breakpoint 1/2 of the marked exchange."""
    primes = [b for b in range(101, 998) if all(b % d for d in range(2, 32))]
    rng = random.Random(f"{POOL_SEED}/{tag}")
    out: list[Fraction] = []
    while len(out) < size:
        b = rng.choice(primes)
        x = Fraction(rng.randrange(1, b), b)
        if x not in out:
            out.append(x)
    return out


# ---------------------------------------------------------- sturmian-words


class SturmianWords:
    """Exact codings of four aperiodic exchanges, their complexity tables,
    period detection on a prefix, and refinement complexity."""

    name = "sturmian-words"
    IMPORTS = ()
    MAPS = (
        ("golden", iet.golden_rotation),
        ("marked", marked_three_piece),
        ("flipped", flipped_three_piece),
        ("sqrt1000003", big_radicand_rotation),
    )
    round_size = len(MAPS)
    POOL = 16
    LETTERS = 3000
    K_MAX = 40
    PERIOD_PREFIX = 2000

    def __init__(self, seed: int, workdir: str):
        self.maps = {name: make() for name, make in self.MAPS}
        self.starts = {name: _start_pool(name, self.POOL) for name in self.maps}
        rng = random.Random(seed)
        self.order = {
            name: rng.sample(range(self.POOL), self.POOL) for name in self.maps
        }

    def warm_up(self) -> None:
        for T in self.maps.values():
            words.complexity(iet.coding(T, Fraction(1, 3), 32), 4)

    def pool_keys(self) -> list[str]:
        return [f"{name}/{i}" for name, _ in self.MAPS for i in range(self.POOL)]

    def key(self, k: int) -> str:
        name = self.MAPS[k % self.round_size][0]
        return f"{name}/{self.order[name][(k // self.round_size) % self.POOL]}"

    def run_key(self, key: str) -> dict:
        name, idx = key.split("/")
        T = self.maps[name]
        x = self.starts[name][int(idx)]
        word = iet.coding(T, x, self.LETTERS)
        table = words.complexity(word, self.K_MAX)
        period = words.detect_eventual_period(word.prefix(self.PERIOD_PREFIX))
        refined = iet.refinement_complexity(T, x, self.K_MAX)
        return {"word": word, "table": table, "period": period,
                "refinement": refined}

    @staticmethod
    def digest(out: dict) -> dict:
        return {
            "letters": sha(out["word"].to_text()),
            "table": sha(_json(out["table"].to_json_dict())),
            "period": list(out["period"]) if out["period"] else None,
            "refinement": sha(_json(out["refinement"].table.to_json_dict())),
        }

    def invariants(self, key: str, out: dict) -> list[str]:
        name = key.split("/")[0]
        entries = out["table"].entries
        bad = []
        slope = {"golden": 1, "marked": 2}.get(name)
        if slope is not None:
            if any(p != slope * k + 1 for k, p in entries):
                bad.append(f"{key}: p(k) != {slope}k+1")
            if out["refinement"].table.entries != entries:
                bad.append(f"{key}: refinement table != word table")
        return bad


# ---------------------------------------------------------- certify-lockin


class CertifyLockin:
    """`ietpc certify` through cli.dispatch on seeded rational contractions
    with slopes +-1/2 and two or three pieces.

    Every round certifies each pool map once, so every run holds the same
    maps, the few slow inconclusive searches included; the seed chooses the
    order and, per round, which of its pooled start points each map uses.
    """

    name = "certify-lockin"
    IMPORTS = ()
    POOL = 400
    STARTS = 3
    round_size = POOL

    def __init__(self, seed: int, workdir: str):
        self.pool = lockin_pool(self.POOL, self.STARTS)
        rng = random.Random(seed)
        self.order = rng.sample(range(self.POOL), self.POOL)
        self.start_offset = [rng.randrange(self.STARTS) for _ in range(self.POOL)]
        self.paths = {}
        for i, (f, _) in enumerate(self.pool):
            path = os.path.join(workdir, f"map-{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_json(f.to_json_dict()))
            self.paths[i] = path

    def warm_up(self) -> None:
        self.run_key("0/0")

    def pool_keys(self) -> list[str]:
        return [f"{i}/{j}" for i in range(self.POOL) for j in range(self.STARTS)]

    def key(self, k: int) -> str:
        i = self.order[k % self.POOL]
        return f"{i}/{(self.start_offset[i] + k // self.POOL) % self.STARTS}"

    def run_key(self, key: str):
        i, j = (int(v) for v in key.split("/"))
        x = format_scalar(self.pool[i][1][j])
        return cli.dispatch(
            cli.RunConfig(command="certify", map_path=self.paths[i], x=x)
        )

    @staticmethod
    def digest(out) -> dict:
        return {"exit": out.exit_code, "stdout": sha(out.out)}

    def invariants(self, key: str, out) -> list[str]:
        """Every emitted certificate survives a JSON round trip and an
        independent re-check against the map it was issued for."""
        if out.exit_code == 2:
            return []
        if out.exit_code != 0:
            return [f"{key}: exit {out.exit_code}: {out.err.strip()}"]
        cert = pc.PeriodicCertificate.from_json_dict(json.loads(out.out))
        bad = []
        if mapio.canonical_json(cert.to_json_dict()) != out.out:
            bad.append(f"{key}: certificate does not round-trip")
        f = self.pool[int(key.split("/")[0])][0]
        if not pc.check_certificate(f, cert):
            bad.append(f"{key}: certificate fails check_certificate")
        return bad


def lockin_pool(size: int, starts: int) -> list:
    """AC6's generator (breakpoints on a 1/60 grid, intercepts on a 1/120
    grid) with signed half slopes; every other map has three pieces.
    Intercepts are drawn among those that keep each image inside [0, 1),
    so only overlapping images are rejected.  Each map comes with `starts`
    start points on the 1/60 grid."""
    rng = random.Random(POOL_SEED)
    pool: list = []
    while len(pool) < size:
        pieces = 2 + len(pool) % 2
        cuts = sorted(rng.sample(range(1, 60), pieces - 1))
        bps = [0] + cuts + [60]
        slopes, intercepts = [], []
        for a, b in zip(bps, bps[1:]):
            sign = rng.choice((1, -1))
            # in 1/120 units: x -> x/2 + c needs -a/2 <= c <= 1 - b/2, and
            # x -> -x/2 + c needs b/2 <= c < 1 + a/2, with a, b in 1/60 units
            lo, hi = (-a, 120 - b) if sign > 0 else (b, 119 + a)
            slopes.append(Fraction(sign, 2))
            intercepts.append(Fraction(rng.randint(lo, hi), 120))
        try:
            f = pc.new_pc([Fraction(v, 60) for v in bps], slopes, intercepts)
        except IetpcError:
            continue
        xs = rng.sample(range(60), starts)
        pool.append((f, [Fraction(v, 60) for v in xs]))
    return pool


# ---------------------------------------------------- construction-refusal


class ConstructionRefusal:
    """The slope-1/2 construction of three exchanges, its verification, a
    certificate search that must refuse, and long ball and exact orbits.

    The search always starts at 1/3, the refusal point of acceptance test
    AC6.  Its cost is set by the candidate periods the float detector
    proposes, which jump by a factor of two between start points (p = 21
    or 34 on the golden map), so a seeded start would make one run twice
    as long as another.  The seed picks the start of the orbits instead.
    """

    name = "construction-refusal"
    MAPS = (
        ("golden", iet.golden_rotation),
        ("marked", marked_three_piece),
        ("flipped", flipped_three_piece),
    )
    ROUND = ("golden", "golden/factor", "marked", "flipped")
    IMPORTS = ("numpy",)  # imported lazily by empirical_factor
    round_size = len(ROUND)
    POOL = 8
    DEPTH = 64
    VERIFY_LEN = 64
    VERIFY_SAMPLES = 20
    ORBIT_LEN = 1000
    FACTOR_STEPS = 20000
    CERTIFY_AT = Fraction(1, 3)

    def __init__(self, seed: int, workdir: str):
        self.maps = {name: make() for name, make in self.MAPS}
        self.starts = {
            name: _start_pool(f"refusal/{name}", self.POOL) for name in self.maps
        }
        rng = random.Random(seed)
        self.order = {
            name: rng.sample(range(self.POOL), self.POOL) for name in self.maps
        }

    def warm_up(self) -> None:
        cpc = construct.build_pc_from_iet(self.maps["golden"], N=16)
        pc.coding(cpc.pc, Fraction(1, 3), 8, approximate=True)

    def pool_keys(self) -> list[str]:
        keys = [f"{name}/{i}" for name, _ in self.MAPS for i in range(self.POOL)]
        return keys + ["golden/factor"]

    def key(self, k: int) -> str:
        slot = self.ROUND[k % self.round_size]
        if slot == "golden/factor":
            return slot
        return f"{slot}/{self.order[slot][(k // self.round_size) % self.POOL]}"

    def run_key(self, key: str) -> dict:
        name, idx = key.split("/")
        T = self.maps[name]
        cpc = construct.build_pc_from_iet(T, N=self.DEPTH)
        if idx == "factor":
            return {"factor": pc.empirical_factor(cpc, 0, m=self.FACTOR_STEPS)}
        x = self.starts[name][int(idx)]
        report = construct.verify_semiconjugacy(
            cpc, T, self.VERIFY_LEN, self.VERIFY_SAMPLES
        )
        cert = pc.certify_periodic(cpc, self.CERTIFY_AT)
        ball = pc.coding(cpc.pc, x, self.ORBIT_LEN, approximate=True)
        exact = pc.coding(cpc.pc, x, self.ORBIT_LEN)
        return {"cpc": cpc, "report": report, "cert": cert, "ball": ball,
                "exact": exact}

    @staticmethod
    def digest(out: dict) -> dict:
        if "factor" in out:
            fac = out["factor"]
            return {
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
        cert = out["cert"]
        return {
            "pc": sha(_json(out["cpc"].pc.to_json_dict())),
            "error_bound": format_scalar(out["cpc"].error_bound),
            "report": out["report"].to_json_dict(),
            "certificate": cert.to_json_dict() if cert is not None else None,
            "ball": sha(out["ball"].to_text()),
            "exact": sha(out["exact"].to_text()),
        }

    def invariants(self, key: str, out: dict) -> list[str]:
        if "factor" in out:
            fac = out["factor"]
            bad = []
            if not abs(fac.breakpoints_hat[1] - PHI_MINUS_1) < 0.01:
                bad.append(f"{key}: breakpoint image off phi-1 by >= 0.01")
            if not fac.residual < 0.01:
                bad.append(f"{key}: residual {fac.residual} >= 0.01")
            if fac.approximate:
                bad.append(f"{key}: orbit left exact arithmetic")
            return bad
        bad = []
        if out["report"].decided_disagree != 0:
            bad.append(f"{key}: semiconjugacy disagrees")
        if out["cert"] is not None:
            bad.append(f"{key}: truncation artifact certified")
        if out["ball"].symbols != out["exact"].symbols:
            bad.append(f"{key}: ball coding != exact coding")
        return bad


WORKLOADS = {w.name: w for w in (SturmianWords, CertifyLockin, ConstructionRefusal)}
