"""Verification suites: every closed-form construction against the oracle.

Each suite is one Suite record: a generator of cases over a parameter
grid, each a closed form (lhs) against the recursive product oracle or a
numeric evaluation (rhs), plus how the two sides are compared and which
`imzv verify` flags set the grid.  Suite.run gives the cases of one run
one fresh memo and collects the outcome in a VerifyReport.  Grids
default to the sizes the acceptance checks use; cases run in sorted
parameter order so the reports are deterministic.
"""

from __future__ import annotations

import functools
import inspect
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

from . import closedforms
from .halg import HElement
from .mzvnum import EvalResult, eval_combo, eval_mzv
from .closedforms import xpow_times_ypow, yy_product_formula
from .tshuffle import shuffle_words, tshuffle, tshuffle_words
from .words import (
    admissible_indices,
    all_words,
    dual,
    index_from_word,
    word_from_index,
)
from .zeta import alternating_zeta_identity, euler_decomposition, zeta_map

DEFAULT_SEED = 1812
# split point of the duality suite's series; 1/2 would make it a tautology
DUALITY_SPLIT = Fraction(1, 3)


@dataclass
class Failure:
    parameters: dict
    lhs: str
    rhs: str
    diff: str


@dataclass
class VerifyReport:
    suite: str
    cases_total: int = 0
    cases_passed: int = 0
    failures: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def record(self, parameters, ok, lhs="", rhs="", diff=""):
        self.cases_total += 1
        if ok:
            self.cases_passed += 1
        else:
            self.failures.append(Failure(parameters, str(lhs), str(rhs), str(diff)))

    @property
    def passed(self) -> bool:
        """All cases passed; an empty grid is not a pass."""
        return self.cases_total > 0 and self.cases_passed == self.cases_total

    def to_json_obj(self):
        return {"schema": 1, **asdict(self)}


def _exact(lhs, rhs, keywords):
    """Exact equality; the difference is formed only for a failing case."""
    if lhs != rhs:
        return lhs, rhs, lhs - rhs


def _within_tol(lhs: float, rhs: float, keywords):
    diff = abs(lhs - rhs)
    if not diff <= keywords["tol"]:
        return "%.12g" % lhs, "%.12g" % rhs, "%.3g" % diff


def _within_estimates(lhs: EvalResult, rhs: EvalResult, keywords):
    diff = abs(lhs.value - rhs.value)
    budget = lhs.error_estimate + rhs.error_estimate
    if not diff <= budget:
        return "%.12g" % lhs.value, "%.12g" % rhs.value, "%.3g > %.3g" % (diff, budget)


@dataclass(frozen=True)
class Suite:
    """One verification suite.

    cases(cache, **keywords) yields (parameters, lhs, rhs) per case, lhs
    from the closed form and rhs from the oracle or the evaluation; cache
    is the run's one memo, a fresh dict that every engine the cases call
    shares (the `_tsh`, `_sh` and `eval_mzv` keys never meet).
    compare(lhs, rhs, keywords) returns None when the two sides agree,
    else the (lhs, rhs, diff) to report.  flags maps each runner keyword to the
    `imzv verify` flags (argparse dests) that may set it, which must agree
    when several are given.  least maps a keyword to the smallest value it
    accepts, and most to the largest: at the most of every keyword the
    grid runs in about 10 s on a 2-core VM, so a grid that could not
    finish is refused before any case runs.  Each item of a *_values
    keyword, a collection, is checked on its own.
    """

    sid: str
    cases: Callable
    compare: Callable
    flags: dict
    least: dict
    most: dict

    def check(self, keywords: dict, spell=str):
        """Refuse a keyword below its least value or above its most, naming
        it spell(keyword)."""
        for key, value in keywords.items():
            low, high = self.least.get(key), self.most.get(key)
            if value is None or (low is None and high is None):
                continue
            for item in value if key.endswith("_values") else (value,):
                if low is not None and item < low:
                    bound = "at least %d" % low
                elif high is not None and item > high:
                    bound = "at most %d" % high
                else:
                    continue
                raise ValueError(
                    "%s must be %s for suite %s, got %d" % (spell(key), bound, self.sid, item)
                )

    @property
    def signature(self) -> inspect.Signature:
        """The runner keywords: the signature of cases without its cache."""
        sig = inspect.signature(self.cases)
        return sig.replace(parameters=list(sig.parameters.values())[1:])

    def run(self, *args, **kwargs) -> VerifyReport:
        """Run the cases the runner keywords select on one fresh cache and
        report each one."""
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        keywords = bound.arguments
        self.check(keywords)
        start = time.perf_counter()
        report = VerifyReport(self.sid)
        for parameters, lhs, rhs in self.cases({}, **keywords):
            failure = self.compare(lhs, rhs, keywords)
            if failure is None:
                report.record(parameters, True)
            else:
                report.record(parameters, False, *failure)
        report.wall_time_s = time.perf_counter() - start
        return report


def _suite(sid, flags, most, compare=_exact, least=None):
    """Turn a case generator into the runner of suite `sid`: the runner takes
    the generator's keywords after its cache and returns a VerifyReport,
    and carries the suite record as its `suite` attribute."""

    def wrap(cases):
        record = Suite(sid, cases, compare, flags, least or {}, most)

        @functools.wraps(cases)
        def runner(*args, **kwargs) -> VerifyReport:
            return record.run(*args, **kwargs)

        runner.__signature__ = record.signature
        runner.suite = record
        return runner

    return wrap


@_suite("lemma31", {"max_run": ("max",)}, {"max_run": 140})
def run_yy_products(cache, max_run: int = 7):
    """Closed form for y-run products against the oracle (suite lemma31)."""
    for m in range(1, max_run + 1):
        for n in range(1, max_run + 1):
            lhs = yy_product_formula(m, n)
            yield {"m": m, "n": n}, lhs, tshuffle_words("y" * m, "y" * n, cache)


@_suite("eq42", {"max_exp": ("max_exp", "max")}, {"max_exp": 10})
def run_xy_products(cache, max_exp: int = 6):
    """Block closed form for x-run times y-run against the oracle (suite eq42)."""
    for m in range(max_exp + 1):
        for n in range(max_exp + 1):
            lhs = xpow_times_ypow(m, n)
            yield {"m": m, "n": n}, lhs, tshuffle_words("x" * m, "y" * n, cache)


# both words share the one run-count bound, so --s is an alternative to --r
# the default grid (3, 2) and the benchmark's (2, 3) need both bounds at 3,
# whose grid (3, 3) takes about 7 s (2-core VM): each bound is per keyword
@_suite("theorem22", {"max_run": ("r", "s", "max"), "max_exp": ("max_exp",)},
        {"max_run": 3, "max_exp": 3})
def run_pattern_products(cache, max_run: int = 3, max_exp: int = 2):
    """General pattern-filling product against the oracle (suite theorem22)."""
    shapes = []
    for r in range(1, max_run + 1):
        shapes.extend(product(range(max_exp + 1), repeat=r))
    for a_exps in shapes:
        for b_exps in shapes:
            lhs = closedforms.pattern_product(a_exps, b_exps)
            a_word, b_word = closedforms._zword(a_exps), closedforms._zword(b_exps)
            rhs = tshuffle_words(a_word, b_word, cache)
            yield {"a_exps": list(a_exps), "b_exps": list(b_exps)}, lhs, rhs


@_suite("prop32", {"max_exp": ("max_exp", "max"), "max_run": ("r", "s")},
        {"max_exp": 6, "max_run": 6})
def run_height_one(cache, max_exp: int = 3, max_run: int = 4):
    """Height-one closed form against the oracle (suite prop32)."""
    exps = range(1, max_exp + 1)
    runs = range(1, max_run + 1)
    for a, b, r, s in product(exps, exps, runs, runs):
        lhs = closedforms.height_one_product(a, r, b, s)
        rhs = tshuffle_words("x" * a + "y" * r, "x" * b + "y" * s, cache)
        yield {"a": a, "r": r, "b": b, "s": s}, lhs, rhs


@_suite("eq48", {"max_param": ("max",)}, {"max_param": 5})
def run_expanded_height_one(cache, max_param: int = 3):
    """Expanded-chain height-one form against the oracle and against the
    direct height-one form on their shared domain (suite eq48)."""
    rng = range(1, max_param + 1)
    for m, j, n, k in product(rng, repeat=4):
        parameters = {"m": m, "j": j, "n": n, "k": k}
        lhs = closedforms.expanded_height_one_product(m, j, n, k)
        yield parameters, lhs, tshuffle_words("x" * m + "y" * j, "x" * n + "y" * k, cache)
        other = closedforms.height_one_product(m, j, n, k)
        yield dict(parameters, check="agree"), lhs, other


@_suite("height2", {"max_exp": ("max_exp",), "max_run": ("r", "max")},
        {"max_exp": 4, "max_run": 3})
def run_height_two(cache, max_exp: int = 2, max_run: int = 2):
    """Height-two case formula against the oracle (suite height2)."""
    exps = range(max_exp + 1)
    runs = range(1, max_run + 1)
    for a, r, b1, s1, b2, s2 in product(exps, runs, exps, runs, exps, runs):
        lhs = closedforms.height_two_product(a, r, b1, s1, b2, s2)
        right = "x" * b1 + "y" * s1 + "x" * b2 + "y" * s2
        rhs = tshuffle_words("x" * a + "y" * r, right, cache)
        yield {"a": a, "r": r, "b1": b1, "s1": s1, "b2": b2, "s2": s2}, lhs, rhs


# a *_values keyword is set from its flag as a one-item list
@_suite("prop41", {"k_values": ("k",), "p_values": ("p",)}, {"k_values": 10, "p_values": 6},
        least={"k_values": 1, "p_values": 1})
def run_alternating_sums(cache, k_values=None, p_values=None):
    """Alternating product sums: zero at odd k, closed form at even k
    (suite prop41)."""
    k_values = list(k_values) if k_values is not None else list(range(1, 7))
    p_values = list(p_values) if p_values is not None else [1, 2, 3]
    for k in k_values:
        for p in p_values:
            lhs = closedforms.alternating_product_sum(k, p, cache)
            if k % 2 == 1:
                rhs = HElement.zero()
            else:
                rhs = closedforms.alternating_product_closed_form(k, p)
            yield {"k": k, "p": p}, lhs, rhs


@_suite("cor42", {"max_k": ("k", "max")}, {"max_k": 60})
def run_alternating_weight4(cache, max_k: int = 6):
    """Alternating sums of z(2,1^i) blocks against the specialized closed
    form (suite cor42)."""
    for k in range(1, max_k + 1):
        lhs = closedforms.alternating_product_sum(k, 2, cache)
        yield {"k": k}, lhs, closedforms.alternating_product_weight4_form(k)


@_suite("prop43", {"max_k": ("k", "max")}, {"max_k": 60})
def run_alternating_zeta(cache, max_k: int = 6):
    """The zeta images of cor42's two sides, as combos (suite prop43)."""
    for k in range(1, max_k + 1):
        lhs, rhs = alternating_zeta_identity(k, cache)
        yield {"k": k}, lhs, rhs


@_suite("euler", {"max_arg": ("max",)}, {"max_arg": 130})
def run_depth_one_products(cache, max_arg: int = 6):
    """Interpolated Euler decomposition of z^t(i)*z^t(j) against the zeta
    image of the oracle product, exactly in Q[t] (suite euler)."""
    for i in range(2, max_arg + 1):
        for j in range(2, max_arg + 1):
            rhs = zeta_map(tshuffle_words("x" * (i - 1) + "y", "x" * (j - 1) + "y", cache))
            yield {"i": i, "j": j}, euler_decomposition(i, j), rhs


def _sample_pairs(n_pairs, max_weight, seed):
    rng = random.Random(seed)
    by_weight = {}
    for idx in admissible_indices(max_weight - 2):
        by_weight.setdefault(idx.weight, []).append(idx)
    pairs = []
    for _ in range(n_pairs):
        w1 = rng.randint(2, max_weight - 2)
        w2 = rng.randint(2, max_weight - w1)
        pairs.append((rng.choice(by_weight[w1]), rng.choice(by_weight[w2])))
    return pairs


# two factors of weight >= 2 need max_weight >= 4; a product of weight at
# most 12 has at most 3^10 merge patterns, under zeta.MAX_PATTERNS
@_suite(
    "homomorphism-numeric",
    {"n_pairs": ("pairs",), "max_weight": ("max_weight",), "seed": ("seed",),
     "tol": ("tol",)},
    {"n_pairs": 500, "max_weight": 12},
    _within_tol,
    least={"max_weight": 4},
)
def run_homomorphism_numeric(
    cache, n_pairs: int = 20, max_weight: int = 8, seed: int = DEFAULT_SEED, tol: float = 1e-5
):
    """Numeric product check: the evaluated image of a word product must
    match the product of the evaluated factors within tol (suite
    homomorphism-numeric)."""
    t_points = (Fraction(0), Fraction(1, 2), Fraction(1))
    for idx1, idx2 in _sample_pairs(n_pairs, max_weight, seed):
        w1 = word_from_index(idx1)
        w2 = word_from_index(idx2)
        prod = zeta_map(tshuffle_words(w1, w2, cache))
        f1 = zeta_map(HElement.from_word(w1))
        f2 = zeta_map(HElement.from_word(w2))
        for t0 in t_points:
            lhs = eval_combo(prod, t0, cache=cache).value
            rhs = eval_combo(f1, t0, cache=cache).value
            rhs *= eval_combo(f2, t0, cache=cache).value
            parameters = {"left": list(idx1), "right": list(idx2), "t": str(t0)}
            yield parameters, lhs, rhs


@_suite("duality-numeric", {"max_weight": ("max_weight",)}, {"max_weight": 15},
        _within_estimates)
def run_duality_numeric(cache, max_weight: int = 8):
    """Numeric duality check: each admissible index evaluates to the same
    value as its dual, within combined error estimates (suite duality-numeric).

    Both sides use the series split at 1/3, under which the split of the
    dual is, term by term, the split of the index at 2/3: two different
    series.  Split at 1/2, both sides would sum the same terms and pass
    whatever their errors."""
    for idx in admissible_indices(max_weight):
        partner = index_from_word(dual(word_from_index(idx)))
        r1 = eval_mzv(idx, cache=cache, split=DUALITY_SPLIT)
        r2 = eval_mzv(partner, cache=cache, split=DUALITY_SPLIT)
        yield {"index": list(idx), "dual": list(partner)}, r1, r2


@_suite("oracle-laws", {}, {"max_len_comm": 7, "max_len_assoc": 3})
def run_oracle_laws(cache, max_len_comm: int = 4, max_len_assoc: int = 3):
    """Commutativity and associativity of the deformed product, exhaustively
    on short words (not a CLI suite; used by the acceptance checks)."""
    words_c = list(all_words(max_len_comm))
    for w1 in words_c:
        for w2 in words_c:
            lhs = tshuffle_words(w1, w2, cache)
            rhs = tshuffle_words(w2, w1, cache)
            yield {"law": "comm", "w1": str(w1), "w2": str(w2)}, lhs, rhs
    words_a = list(all_words(max_len_assoc))
    for w1 in words_a:
        for w2 in words_a:
            left_12 = tshuffle_words(w1, w2, cache)
            for w3 in words_a:
                lhs = tshuffle(left_12, HElement.from_word(w3), cache)
                right_23 = tshuffle_words(w2, w3, cache)
                rhs = tshuffle(HElement.from_word(w1), right_23, cache)
                parameters = {"law": "assoc", "w1": str(w1), "w2": str(w2), "w3": str(w3)}
                yield parameters, lhs, rhs


@_suite("shuffle-consistency", {}, {"max_len": 6})
def run_shuffle_consistency(cache, max_len: int = 5):
    """The deformed product at t=0 equals the combinatorial shuffle
    (not a CLI suite; used by the acceptance checks)."""
    words = list(all_words(max_len))
    for w1 in words:
        for w2 in words:
            lhs = tshuffle_words(w1, w2, cache).substitute_t(0)
            yield {"w1": str(w1), "w2": str(w2)}, lhs, shuffle_words(w1, w2, cache)


SUITES = {
    "lemma31": run_yy_products,
    "eq42": run_xy_products,
    "theorem22": run_pattern_products,
    "prop32": run_height_one,
    "eq48": run_expanded_height_one,
    "height2": run_height_two,
    "prop41": run_alternating_sums,
    "cor42": run_alternating_weight4,
    "prop43": run_alternating_zeta,
    "euler": run_depth_one_products,
    "homomorphism-numeric": run_homomorphism_numeric,
    "duality-numeric": run_duality_numeric,
}
