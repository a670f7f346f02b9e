"""The benchmark's three workloads: seeded inputs, timed units of work, checks.

Every workload has the same shape:

    w = make(name, seed)        build the inputs (counted in set-up time)
    unit = w.run_unit(i, pause) run unit i; only the program calls are timed
    w.check(unit)               compare the unit's outputs with golden data

pause(n) is called between operations, outside the timed calls, once the
unit has n operations; the benchmark times its host-speed probe there.

The program is reached through module attributes bound at the start of a
unit, so wrappers installed by spans.Tracer before the unit see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

clock = time.perf_counter


def no_pause(done: int):
    pass


def imzv(name):
    return importlib.import_module("imzv." + name)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(name: str):
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


_TERM = re.compile(r"([+-]?)([^+-]+)")


def constant_term(coeff: str) -> Fraction:
    """The t^0 part of a coefficient printed as in the JSON output,
    e.g. "2 - 3*t" -> 2, "-6*t" -> 0, "1/2" -> 1/2."""
    total = Fraction(0)
    for sign, body in _TERM.findall(coeff.replace(" ", "")):
        if "t" not in body:
            total += -Fraction(body) if sign == "-" else Fraction(body)
    return total


def plain_part_ok(terms_json: list, len_u: int, len_v: int) -> bool:
    """At t = 0 the product is the plain shuffle, whose multiplicities
    add up to the number of interleavings C(|u|+|v|, |u|)."""
    total = sum(constant_term(rec["coeff"]) for rec in terms_json)
    return total == comb(len_u + len_v, len_u)


@dataclass
class Unit:
    """Outcome of one unit of work."""

    wall_s: float = 0.0                         # timed program calls only
    ops: list = field(default_factory=list)     # (kind, latency_s) per operation
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    out_bytes: int = 0


# --------------------------------------------------------------------------
# product-table: every unordered pair of admissible words up to a total
# weight, one shared memo per pass, each product pushed through zeta_map.
# The only workload where memo entries are reused across products.

TABLE_MAX_WEIGHT = 11


def table_pairs(max_weight: int = TABLE_MAX_WEIGHT):
    words = list(imzv("words").admissible_words(max_weight - 2))
    return [
        (u, v)
        for i, u in enumerate(words)
        for v in words[i:]
        if len(u) + len(v) <= max_weight
    ]


def table_entry(prod, combo) -> str:
    """The text a product-table row is checked by: both JSON forms."""
    return imzv("halg").helement_to_json(prod) + "\n" + imzv("zeta").zeta_combo_to_json(combo)


class ProductTable:
    name = "product-table"
    min_samples = {}

    def __init__(self, seed: int, max_weight: int = TABLE_MAX_WEIGHT):
        self.seed = seed
        self.pairs = table_pairs(max_weight)
        self.reference = None
        self.reference_digest = ""

    def pass_order(self, i: int):
        """The pairs in the order of pass i, set by the seed and i.  Which
        product pays for filling a shared memo entry depends on the order,
        so every pass takes a fresh one and a run's latencies average over
        many orders instead of resting on one."""
        pairs = list(self.pairs)
        random.Random("%d:%d" % (self.seed, i)).shuffle(pairs)
        return pairs

    def run_unit(self, i: int, pause=no_pause) -> Unit:
        tshuffle_words = imzv("tshuffle").tshuffle_words
        zeta_map = imzv("zeta").zeta_map
        unit = Unit()
        memo = {}
        for u, v in self.pass_order(i):
            t0 = clock()
            prod = tshuffle_words(u, v, memo)
            combo = zeta_map(prod)
            dt = clock() - t0
            unit.wall_s += dt
            unit.ops.append(("product", dt))
            unit.outputs.append((u, v, prod, combo))
            pause(len(unit.ops))
        return unit

    def check(self, unit: Unit):
        """The first unit checked is compared with the golden digests; every
        later one must equal it object for object, which is much cheaper
        than serialising each pass."""
        if self.reference is None:
            golden = load_golden("product_table.json")
            self.reference = {}
            keys = []
            for u, v, prod, combo in unit.outputs:
                key = "%s*%s" % (u.letters, v.letters)
                text = table_entry(prod, combo)
                d = digest(text)
                ok = golden["digests"].get(key) == d and plain_part_ok(
                    json.loads(text.split("\n", 1)[0]), len(u), len(v))
                unit.attempted += 1
                unit.failed += not ok
                keys.append(key + "=" + d)
                if ok:
                    self.reference[key] = (prod, combo)
            self.reference_digest = digest("\n".join(sorted(keys)))
            unit.digest = self.reference_digest
        else:
            for u, v, prod, combo in unit.outputs:
                unit.attempted += 1
                unit.failed += self.reference.get("%s*%s" % (u.letters, v.letters)) != (prod, combo)
            unit.digest = self.reference_digest if not unit.failed else "mismatch"
        unit.outputs = []


# --------------------------------------------------------------------------
# verify-suites: every suite runner on a fixed grid, one pass per unit.
# Accumulating sums in halg, all closed-form work and the numeric session
# cache are exercised here and nowhere else.

# (suite id, grid, expected cases_total).  The grids are fixed here so a
# change to a runner's defaults cannot shrink the work; a report with
# another case count fails every case of that suite.
VERIFY_GRID = (
    ("oracle-laws", {"max_len_comm": 4, "max_len_assoc": 2}, 1304),
    ("shuffle-consistency", {"max_len": 4}, 961),
    ("lemma31", {"max_run": 7}, 49),
    ("eq42", {"max_exp": 6}, 49),
    ("theorem22", {"max_run": 2, "max_exp": 3}, 400),
    ("prop32", {"max_exp": 3, "max_run": 4}, 144),
    ("eq48", {"max_param": 3}, 162),
    ("height2", {"max_exp": 2, "max_run": 2}, 216),
    ("prop41", {"k_values": [1, 2, 3, 4, 5, 6], "p_values": [1, 2, 3]}, 18),
    ("cor42", {"max_k": 6}, 6),
    ("prop43", {"max_k": 6}, 6),
    ("euler", {"max_arg": 6}, 25),
    ("homomorphism-numeric",
     {"n_pairs": 4, "max_weight": 6, "seed": 1812, "tol": 1e-5}, 12),
    ("duality-numeric", {"max_weight": 5}, 15),
)
NUMERIC_SUITES = ("homomorphism-numeric", "duality-numeric")
SUITE_IDS = tuple(sid for sid, _, _ in VERIFY_GRID)
EXTRA_RUNNERS = {"oracle-laws": "run_oracle_laws",
                 "shuffle-consistency": "run_shuffle_consistency"}


def suite_runner(verify, sid):
    if sid in EXTRA_RUNNERS:
        return getattr(verify, EXTRA_RUNNERS[sid])
    return verify.SUITES[sid]


class VerifySuites:
    name = "verify-suites"
    min_samples = {}

    def __init__(self, seed: int, grid=VERIFY_GRID):
        # The grid and its order are fixed: the order decides which numeric
        # arrays the allocator keeps resident, so a seeded order would make
        # the peak memory of a pass depend on the seed.
        self.grid = list(grid)

    def run_unit(self, i: int, pause=no_pause) -> Unit:
        verify = imzv("verify")
        unit = Unit()
        # Per-case latency: the time between consecutive record() calls.
        stamps = []
        record = verify.VerifyReport.record

        def stamped(report, *args, **kwargs):
            stamps.append(clock())
            return record(report, *args, **kwargs)

        verify.VerifyReport.record = stamped
        try:
            for sid, grid, expected in self.grid:
                runner = suite_runner(verify, sid)
                del stamps[:]
                t0 = clock()
                report = runner(**grid)
                dt = clock() - t0
                unit.wall_s += dt
                prev = t0
                for s in stamps:
                    unit.ops.append((sid, s - prev))
                    prev = s
                unit.outputs.append((sid, expected, dt, report))
                pause(len(unit.ops))
        finally:
            verify.VerifyReport.record = record
        return unit

    def check(self, unit: Unit):
        seen = []
        for sid, expected, _, report in unit.outputs:
            unit.attempted += expected
            if report.suite != sid or report.cases_total != expected:
                unit.failed += expected
            else:
                unit.failed += report.cases_total - report.cases_passed
            seen.append(json.dumps(
                [sid, report.cases_total, report.cases_passed,
                 [f.parameters for f in report.failures]], sort_keys=True))
        unit.digest = digest("\n".join(sorted(seen)))
        unit.outputs = [(sid, exp, dt, None) for sid, exp, dt, _ in unit.outputs]


# --------------------------------------------------------------------------
# cli-session: one client in a closed loop calling imzv.cli.main in-process
# with stdout captured.  Nothing is shared between requests.  Requests come
# from a fixed pool recorded with golden outputs; the seed sets which pool
# entries are drawn and in what order.

CLI_WARMUP = 20                     # untimed requests before measuring
CLI_MIN_SAMPLES = {"eval": 100, "product": 100, "expand": 100}


def cli_epoch(pool, seed: int, i: int):
    """Every pool entry once, in an order set by the seed and epoch number.
    The pool holds 40 % eval, 30 % product, 20 % expand and 10 % dual/index
    requests, so every epoch has that mix and the same work."""
    requests = [(kind, entry) for kind in sorted(pool) for entry in pool[kind]]
    random.Random("%d:%d" % (seed, i)).shuffle(requests)
    return requests


class CliSession:
    name = "cli-session"
    min_samples = CLI_MIN_SAMPLES

    def __init__(self, seed: int, pool=None):
        self.seed = seed
        self.pool = pool or load_golden("cli_pool.json")
        self.warmup_requests = cli_epoch(self.pool, seed, -1)[:CLI_WARMUP]

    def run_unit(self, i: int, pause=no_pause) -> Unit:
        """Unit i is epoch i; unit -1 is a short warm-up."""
        main = imzv("cli").main
        unit = Unit()
        requests = self.warmup_requests if i < 0 else cli_epoch(self.pool, self.seed, i)
        for kind, entry in requests:
            buf = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                rc = main(list(entry["argv"]))
            dt = clock() - t0
            unit.wall_s += dt
            unit.ops.append((kind, dt))
            unit.outputs.append((kind, entry, rc, buf.getvalue()))
            pause(len(unit.ops))
        return unit

    def check(self, unit: Unit):
        seen = []
        for kind, entry, rc, out in unit.outputs:
            unit.attempted += 1
            unit.out_bytes += len(out.encode())
            unit.failed += not (rc == 0 and cli_output_ok(kind, entry, out))
            seen.append(digest(out))
        unit.digest = digest("\n".join(seen))
        unit.outputs = []


def cli_output_ok(kind: str, entry: dict, out: str) -> bool:
    if kind == "eval":
        try:
            res = json.loads(out)
        except ValueError:
            return False
        tol = float(entry["argv"][entry["argv"].index("--tol") + 1])
        return bool(res.get("tol_ok")) and (
            abs(res["value"] - entry["value"]) <= tol + entry["error_estimate"]
        )
    if digest(out) != entry["digest"]:
        return False
    if kind == "product":
        _, u, v = entry["argv"][:3]
        return plain_part_ok(json.loads(out), len(u), len(v))
    return True


WORKLOADS = {w.name: w for w in (ProductTable, VerifySuites, CliSession)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
