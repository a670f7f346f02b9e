"""Acceptance checks, one test per criterion.

Every criterion prints a single PASS or FAIL line (run pytest with -s to
see them all) and asserts both the mathematical content at its stated
tolerance and the wall-clock budget.  Exact-arithmetic criteria compare
closed formulas against the recursive product oracle; numeric criteria
bound differences of floating evaluations.
"""

import math
import time
from fractions import Fraction

from imzv import (
    DEFAULT_SEED,
    alternating_product_sum,
    eval_combo,
    interpolated_symbol,
    parse_zeta_combo,
    zeta_ref,
)
from imzv.verify import (
    run_alternating_sums,
    run_alternating_weight4,
    run_alternating_zeta,
    run_depth_one_products,
    run_duality_numeric,
    run_expanded_height_one,
    run_height_one,
    run_height_two,
    run_homomorphism_numeric,
    run_oracle_laws,
    run_pattern_products,
    run_shuffle_consistency,
    run_xy_products,
    run_yy_products,
)


def _line(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print("criterion %02d %s: %s (%s)" % (num, label, status, detail))


def _run_suite(num, label, budget, runner, **kwargs):
    t0 = time.perf_counter()
    report = runner(**kwargs)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < budget
    _line(
        num,
        label,
        ok,
        "%d/%d cases, %.2fs, budget %ds"
        % (report.cases_passed, report.cases_total, elapsed, budget),
    )
    assert report.passed, report.failures[:3]
    assert elapsed < budget
    return report


def test_criterion_01_product_laws():
    _run_suite(
        1,
        "commutativity and associativity",
        30,
        run_oracle_laws,
        max_len_comm=4,
        max_len_assoc=3,
    )


def test_criterion_02_plain_shuffle_specialization():
    _run_suite(
        2, "t=0 matches the plain shuffle", 30, run_shuffle_consistency, max_len=5
    )


def test_criterion_03_yy_closed_form():
    _run_suite(3, "y-run product formula", 5, run_yy_products, max_run=7)


def test_criterion_04_xy_block_form():
    _run_suite(4, "x-run by y-run block formula", 5, run_xy_products, max_exp=6)


def test_criterion_05_pattern_formula():
    _run_suite(
        5,
        "general pattern formula",
        60,
        run_pattern_products,
        max_run=3,
        max_exp=2,
    )


def test_criterion_06_height_one_formula():
    _run_suite(
        6, "height-one formula", 60, run_height_one, max_exp=3, max_run=4
    )


def test_criterion_07_expanded_height_one():
    report = _run_suite(
        7,
        "expanded height-one formula",
        60,
        run_expanded_height_one,
        max_param=3,
    )
    # half the cases compare against the oracle, half against the direct form
    assert report.cases_total == 162


def test_criterion_08_height_two_formula():
    _run_suite(
        8, "height-two formula", 60, run_height_two, max_exp=2, max_run=2
    )


def test_criterion_09_alternating_sums():
    t0 = time.perf_counter()
    main = run_alternating_sums(k_values=range(1, 7), p_values=(2, 3))
    weight4 = run_alternating_weight4(max_k=6)
    zeta_level = run_alternating_zeta(max_k=6)
    nonzero_even = all(
        not alternating_product_sum(k, p).is_zero()
        for k in (2, 4, 6)
        for p in (2, 3)
    )
    elapsed = time.perf_counter() - t0
    passed = main.passed and weight4.passed and zeta_level.passed and nonzero_even
    ok = passed and elapsed < 30
    _line(
        9,
        "alternating sums vanish or match exactly by parity",
        ok,
        "%d cases, %.2fs, budget 30s"
        % (main.cases_total + weight4.cases_total + zeta_level.cases_total, elapsed),
    )
    assert main.passed, main.failures[:3]
    assert weight4.passed, weight4.failures[:3]
    assert zeta_level.passed, zeta_level.failures[:3]
    assert nonzero_even
    assert elapsed < 30


def test_criterion_10_depth_one_decomposition():
    _run_suite(
        10, "interpolated Euler decomposition", 5, run_depth_one_products, max_arg=6
    )


def test_criterion_11_weight_four_relation():
    t0 = time.perf_counter()
    combo = parse_zeta_combo("2*z(2,2) + 4*z(3,1)")
    res = eval_combo(combo, target_abs_err=1e-6)
    diff = abs(res.value - (math.pi**2 / 6) ** 2)
    elapsed = time.perf_counter() - t0
    ok = diff <= 1e-6 and elapsed < 5
    _line(
        11,
        "2*z(2,2) + 4*z(3,1) equals z(2)^2",
        ok,
        "diff %.3e, %.2fs, budget 5s" % (diff, elapsed),
    )
    assert diff <= 1e-6
    assert elapsed < 5


def test_criterion_12_star_values():
    t0 = time.perf_counter()
    z2 = math.pi**2 / 6
    z4 = math.pi**4 / 90
    z6 = math.pi**6 / 945
    z3 = zeta_ref(3)
    z5 = zeta_ref(5)
    got51 = eval_combo(
        interpolated_symbol((5, 1)), t_value=1, target_abs_err=1e-6
    ).value
    want51 = z2 * z4 - 0.5 * z3**2
    got71 = eval_combo(
        interpolated_symbol((7, 1)), t_value=1, target_abs_err=1e-6
    ).value
    want71 = z2 * z6 - z3 * z5 + 0.5 * z4**2
    diff = max(abs(got51 - want51), abs(got71 - want71))
    elapsed = time.perf_counter() - t0
    ok = diff <= 1e-6 and elapsed < 20
    _line(
        12,
        "star-normalized double values at t=1",
        ok,
        "max diff %.3e, %.2fs, budget 20s" % (diff, elapsed),
    )
    assert abs(got51 - want51) <= 1e-6
    assert abs(got71 - want71) <= 1e-6
    assert elapsed < 20


def test_criterion_13_numeric_homomorphism():
    _run_suite(
        13,
        "products evaluate multiplicatively",
        60,
        run_homomorphism_numeric,
        n_pairs=20,
        max_weight=8,
        seed=DEFAULT_SEED,
        tol=1e-5,
    )


def test_criterion_14_numeric_duality():
    _run_suite(
        14,
        "dual indices evaluate equally",
        60,
        run_duality_numeric,
        max_weight=8,
    )
