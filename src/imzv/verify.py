"""Verification suites: every closed-form construction against the oracle.

Each suite sweeps a parameter grid, compares a closed form with the
recursive product oracle (or a numeric identity with its evaluation),
and collects the outcome in a VerifyReport.  Grids default to the sizes
the acceptance checks use; cases run in sorted parameter order so the
reports are deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import closedforms
from .halg import HElement
from .mzvnum import eval_combo, eval_mzv_direct
from .tshuffle import (
    shuffle_words,
    tshuffle,
    tshuffle_words,
    xpow_times_ypow,
    yy_product_formula,
)
from .words import (
    Word,
    admissible_indices,
    dual,
    index_from_word,
    word_from_index,
)
from .zeta import (
    alternating_zeta_identity,
    euler_decomposition,
    zeta_map,
    zeta_uniform_product,
)

DEFAULT_SEED = 1812


@dataclass
class Failure:
    parameters: dict
    lhs: str
    rhs: str
    diff: str

    def to_json_obj(self):
        return {
            "parameters": self.parameters,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "diff": self.diff,
        }


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
        return {
            "schema": 1,
            "suite": self.suite,
            "cases_total": self.cases_total,
            "cases_passed": self.cases_passed,
            "failures": [f.to_json_obj() for f in self.failures],
            "wall_time_s": self.wall_time_s,
        }


def _word_from_exps(exps) -> Word:
    return Word("".join("x" * e + "y" for e in exps))


def _check(report, parameters, lhs: HElement, rhs: HElement):
    report.record(parameters, lhs == rhs, lhs, rhs, lhs - rhs)


def run_yy_products(max_run: int = 7) -> VerifyReport:
    """Closed form for y-run products against the oracle (suite lemma31)."""
    start = time.perf_counter()
    report = VerifyReport("lemma31")
    cache = {}
    for m in range(1, max_run + 1):
        for n in range(1, max_run + 1):
            lhs = yy_product_formula(m, n)
            rhs = tshuffle_words(Word("y" * m), Word("y" * n), cache)
            _check(report, {"m": m, "n": n}, lhs, rhs)
    report.wall_time_s = time.perf_counter() - start
    return report


def run_xy_products(max_exp: int = 6) -> VerifyReport:
    """Block closed form for x-run times y-run against the oracle (suite eq42)."""
    start = time.perf_counter()
    report = VerifyReport("eq42")
    cache = {}
    for m in range(max_exp + 1):
        for n in range(max_exp + 1):
            lhs = xpow_times_ypow(m, n)
            rhs = tshuffle_words(Word("x" * m), Word("y" * n), cache)
            _check(report, {"m": m, "n": n}, lhs, rhs)
    report.wall_time_s = time.perf_counter() - start
    return report


def run_pattern_products(max_run: int = 3, max_exp: int = 2) -> VerifyReport:
    """General pattern-filling product against the oracle (suite theorem22)."""
    start = time.perf_counter()
    report = VerifyReport("theorem22")
    cache = {}
    shapes = []
    for r in range(1, max_run + 1):
        shapes.extend(product(range(max_exp + 1), repeat=r))
    for a_exps in shapes:
        for b_exps in shapes:
            lhs = closedforms.pattern_product(a_exps, b_exps)
            rhs = tshuffle_words(
                _word_from_exps(a_exps), _word_from_exps(b_exps), cache
            )
            _check(
                report,
                {"a_exps": list(a_exps), "b_exps": list(b_exps)},
                lhs,
                rhs,
            )
    report.wall_time_s = time.perf_counter() - start
    return report


def run_height_one(max_exp: int = 3, max_run: int = 4) -> VerifyReport:
    """Height-one closed form against the oracle (suite prop32)."""
    start = time.perf_counter()
    report = VerifyReport("prop32")
    cache = {}
    for a in range(1, max_exp + 1):
        for b in range(1, max_exp + 1):
            for r in range(1, max_run + 1):
                for s in range(1, max_run + 1):
                    lhs = closedforms.height_one_product(a, r, b, s)
                    rhs = tshuffle_words(
                        Word("x" * a + "y" * r), Word("x" * b + "y" * s), cache
                    )
                    _check(report, {"a": a, "r": r, "b": b, "s": s}, lhs, rhs)
    report.wall_time_s = time.perf_counter() - start
    return report


def run_expanded_height_one(max_param: int = 3) -> VerifyReport:
    """Expanded-chain height-one form against the oracle and against the
    direct height-one form on their shared domain (suite eq48)."""
    start = time.perf_counter()
    report = VerifyReport("eq48")
    cache = {}
    rng = range(1, max_param + 1)
    for m in rng:
        for j in rng:
            for n in rng:
                for k in rng:
                    lhs = closedforms.expanded_height_one_product(m, j, n, k)
                    rhs = tshuffle_words(
                        Word("x" * m + "y" * j), Word("x" * n + "y" * k), cache
                    )
                    _check(report, {"m": m, "j": j, "n": n, "k": k}, lhs, rhs)
                    other = closedforms.height_one_product(m, j, n, k)
                    report.record(
                        {"m": m, "j": j, "n": n, "k": k, "check": "agree"},
                        lhs == other,
                        lhs,
                        other,
                        lhs - other,
                    )
    report.wall_time_s = time.perf_counter() - start
    return report


def run_height_two(max_exp: int = 2, max_run: int = 2) -> VerifyReport:
    """Height-two case formula against the oracle (suite height2)."""
    start = time.perf_counter()
    report = VerifyReport("height2")
    cache = {}
    exps = range(max_exp + 1)
    runs = range(1, max_run + 1)
    for a, r, b1, s1, b2, s2 in product(exps, runs, exps, runs, exps, runs):
        lhs = closedforms.height_two_product(a, r, b1, s1, b2, s2)
        rhs = tshuffle_words(
            Word("x" * a + "y" * r),
            Word("x" * b1 + "y" * s1 + "x" * b2 + "y" * s2),
            cache,
        )
        _check(
            report,
            {"a": a, "r": r, "b1": b1, "s1": s1, "b2": b2, "s2": s2},
            lhs,
            rhs,
        )
    report.wall_time_s = time.perf_counter() - start
    return report


def run_alternating_sums(k_values=None, p_values=None) -> VerifyReport:
    """Alternating product sums: zero at odd k, closed form at even k
    (suite prop41)."""
    start = time.perf_counter()
    report = VerifyReport("prop41")
    k_values = list(k_values) if k_values is not None else list(range(1, 7))
    p_values = list(p_values) if p_values is not None else [1, 2, 3]
    for k in k_values:
        for p in p_values:
            lhs = closedforms.alternating_product_sum(k, p)
            if k % 2 == 1:
                rhs = HElement.zero()
            else:
                rhs = closedforms.alternating_product_closed_form(k, p)
            _check(report, {"k": k, "p": p}, lhs, rhs)
    report.wall_time_s = time.perf_counter() - start
    return report


def run_alternating_weight4(max_k: int = 6) -> VerifyReport:
    """Alternating sums of z(2,1^i) blocks against the specialized closed
    form (suite cor42)."""
    start = time.perf_counter()
    report = VerifyReport("cor42")
    for k in range(1, max_k + 1):
        lhs = closedforms.alternating_product_sum(k, 2)
        rhs = closedforms.alternating_product_weight4_form(k)
        _check(report, {"k": k}, lhs, rhs)
    report.wall_time_s = time.perf_counter() - start
    return report


def run_alternating_zeta(max_k: int = 6) -> VerifyReport:
    """Zeta-level alternating identity, both sides as combos (suite prop43)."""
    start = time.perf_counter()
    report = VerifyReport("prop43")
    for k in range(1, max_k + 1):
        lhs, rhs = alternating_zeta_identity(k)
        report.record({"k": k}, lhs == rhs, lhs, rhs, lhs - rhs)
    report.wall_time_s = time.perf_counter() - start
    return report


def run_depth_one_products(max_arg: int = 6) -> VerifyReport:
    """Two-factor depth-one decomposition at t=0 against the classical
    coefficients (suite euler)."""
    start = time.perf_counter()
    report = VerifyReport("euler")
    for i in range(2, max_arg + 1):
        for j in range(2, max_arg + 1):
            lhs = zeta_uniform_product(i, 1, 0, j, 0).substitute_t(0)
            rhs = euler_decomposition(i, j)
            report.record({"i": i, "j": j}, lhs == rhs, lhs, rhs, lhs - rhs)
    report.wall_time_s = time.perf_counter() - start
    return report


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


def run_homomorphism_numeric(
    n_pairs: int = 20,
    max_weight: int = 8,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-5,
) -> VerifyReport:
    """Numeric product check: the evaluated image of a word product must
    match the product of the evaluated factors (suite homomorphism-numeric)."""
    start = time.perf_counter()
    report = VerifyReport("homomorphism-numeric")
    cache = {}
    oracle_cache = {}
    t_points = (Fraction(0), Fraction(1, 2), Fraction(1))
    for idx1, idx2 in _sample_pairs(n_pairs, max_weight, seed):
        w1 = word_from_index(idx1)
        w2 = word_from_index(idx2)
        prod = zeta_map(tshuffle_words(w1, w2, oracle_cache))
        f1 = zeta_map(HElement.from_word(w1))
        f2 = zeta_map(HElement.from_word(w2))
        for t0 in t_points:
            lhs = eval_combo(prod, t0, cache=cache).value
            rhs = eval_combo(f1, t0, cache=cache).value * eval_combo(
                f2, t0, cache=cache
            ).value
            diff = abs(lhs - rhs)
            report.record(
                {"left": list(idx1.parts), "right": list(idx2.parts), "t": str(t0)},
                diff <= tol,
                "%.12g" % lhs,
                "%.12g" % rhs,
                "%.3g" % diff,
            )
    report.wall_time_s = time.perf_counter() - start
    return report


def run_duality_numeric(max_weight: int = 8) -> VerifyReport:
    """Numeric duality check: each admissible index evaluates to the same
    value as its dual, within combined error estimates (suite duality-numeric).

    Uses the direct nested-sum evaluator: the split-at-1/2 series of
    eval_mzv is symmetric under duality term by term, so it would pass
    this check whatever its errors."""
    start = time.perf_counter()
    report = VerifyReport("duality-numeric")
    cache = {}
    for idx in admissible_indices(max_weight):
        partner = index_from_word(dual(word_from_index(idx)))
        r1 = eval_mzv_direct(idx, cache=cache)
        r2 = eval_mzv_direct(partner, cache=cache)
        diff = abs(r1.value - r2.value)
        budget = r1.error_estimate + r2.error_estimate
        report.record(
            {"index": list(idx.parts), "dual": list(partner.parts)},
            diff <= budget,
            "%.12g" % r1.value,
            "%.12g" % r2.value,
            "%.3g > %.3g" % (diff, budget),
        )
    report.wall_time_s = time.perf_counter() - start
    return report


def run_oracle_laws(max_len_comm: int = 4, max_len_assoc: int = 3) -> VerifyReport:
    """Commutativity and associativity of the deformed product, exhaustively
    on short words (not a CLI suite; used by the acceptance checks)."""
    from .words import all_words

    start = time.perf_counter()
    report = VerifyReport("oracle-laws")
    cache = {}
    words_c = list(all_words(max_len_comm))
    for w1 in words_c:
        for w2 in words_c:
            lhs = tshuffle_words(w1, w2, cache)
            rhs = tshuffle_words(w2, w1, cache)
            report.record(
                {"law": "comm", "w1": str(w1), "w2": str(w2)},
                lhs == rhs, lhs, rhs, lhs - rhs,
            )
    words_a = list(all_words(max_len_assoc))
    for w1 in words_a:
        for w2 in words_a:
            left_12 = tshuffle_words(w1, w2, cache)
            for w3 in words_a:
                lhs = tshuffle(left_12, HElement.from_word(w3), cache)
                right_23 = tshuffle_words(w2, w3, cache)
                rhs = tshuffle(HElement.from_word(w1), right_23, cache)
                report.record(
                    {"law": "assoc", "w1": str(w1), "w2": str(w2), "w3": str(w3)},
                    lhs == rhs, lhs, rhs, lhs - rhs,
                )
    report.wall_time_s = time.perf_counter() - start
    return report


def run_shuffle_consistency(max_len: int = 5) -> VerifyReport:
    """The deformed product at t=0 equals the combinatorial shuffle
    (not a CLI suite; used by the acceptance checks)."""
    from .words import all_words

    start = time.perf_counter()
    report = VerifyReport("shuffle-consistency")
    cache = {}
    scache = {}
    words = list(all_words(max_len))
    for w1 in words:
        for w2 in words:
            lhs = tshuffle_words(w1, w2, cache).substitute_t(0)
            rhs = shuffle_words(w1, w2, scache)
            report.record(
                {"w1": str(w1), "w2": str(w2)}, lhs == rhs, lhs, rhs, lhs - rhs
            )
    report.wall_time_s = time.perf_counter() - start
    return report


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
