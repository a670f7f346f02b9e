"""Tests for the suite driver in imzv.verify.

Every runner is a Suite record run by one driver: it records each case
once, forms the difference of the two sides only for a failing case, and
refuses a keyword below the suite's least value or above its most before
any case runs.
"""

import dataclasses
import functools
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from imzv import verify
from imzv.halg import HElement
from imzv.tshuffle import tshuffle_words, yy_product_formula
from imzv.zeta import ZetaCombo

# small grids on which every suite below passes without subtracting
_SMALL_GRIDS = [
    (verify.run_yy_products, {"max_run": 3}),
    (verify.run_xy_products, {"max_exp": 3}),
    (verify.run_pattern_products, {"max_run": 2, "max_exp": 1}),
    (verify.run_height_one, {"max_exp": 2, "max_run": 2}),
    (verify.run_expanded_height_one, {"max_param": 2}),
    (verify.run_height_two, {"max_exp": 1, "max_run": 1}),
    (verify.run_alternating_sums, {"k_values": [1, 2], "p_values": [2]}),
    (verify.run_alternating_weight4, {"max_k": 2}),
    (verify.run_alternating_zeta, {"max_k": 2}),
    (verify.run_depth_one_products, {"max_arg": 3}),
    (verify.run_oracle_laws, {"max_len_comm": 2, "max_len_assoc": 2}),
    (verify.run_shuffle_consistency, {"max_len": 2}),
]


# every runner, the two that are not CLI suites included
_RUNNERS = dict(
    verify.SUITES,
    **{"oracle-laws": verify.run_oracle_laws,
       "shuffle-consistency": verify.run_shuffle_consistency},
)


def test_a_wrong_closed_form_is_the_one_failure_reported(monkeypatch):
    def off_by_one_term(m, n):
        value = yy_product_formula(m, n)
        if (m, n) == (2, 3):
            value = value + HElement.from_word("y")
        return value

    monkeypatch.setattr(verify, "yy_product_formula", off_by_one_term)
    report = verify.run_yy_products(max_run=3)
    assert (report.cases_total, report.cases_passed) == (9, 8)
    assert not report.passed
    [failure] = report.failures
    lhs = off_by_one_term(2, 3)
    rhs = tshuffle_words("yy", "yyy")
    assert failure.parameters == {"m": 2, "n": 3}
    assert failure.lhs == str(lhs)
    assert failure.rhs == str(rhs)
    assert failure.diff == str(lhs - rhs) == "y"


def test_report_json_puts_the_schema_first_and_each_field_in_order():
    report = verify.VerifyReport("yy")
    report.record({"m": 2, "n": 3}, False, "y", "0", "y")
    report.record({"m": 3, "n": 3}, True)
    assert json.dumps(report.to_json_obj()) == (
        '{"schema": 1, "suite": "yy", "cases_total": 2, "cases_passed": 1, '
        '"failures": [{"parameters": {"m": 2, "n": 3}, "lhs": "y", "rhs": "0", '
        '"diff": "y"}], "wall_time_s": 0.0}')


@pytest.mark.parametrize(
    "runner, kwargs", _SMALL_GRIDS, ids=[r.__name__ for r, _ in _SMALL_GRIDS]
)
def test_passing_cases_form_no_difference(monkeypatch, runner, kwargs):
    def refuse(self, other):
        raise AssertionError("difference formed for a passing case")

    monkeypatch.setattr(HElement, "__sub__", refuse)
    monkeypatch.setattr(ZetaCombo, "__sub__", refuse)
    report = runner(**kwargs)
    assert report.passed
    assert report.cases_total > 0


def test_every_runner_keeps_its_keywords_and_record():
    for sid, runner in _RUNNERS.items():
        assert runner.suite.sid == sid
        # every flag-set keyword is a keyword of the runner
        params = inspect.signature(runner).parameters
        assert set(runner.suite.flags) <= set(params)
        assert all(p.default is not p.empty for p in params.values())


def test_a_numeric_miss_past_the_tolerance_is_reported(monkeypatch):
    # every value off by 1e-3: a product's image then misses the product
    # of its factors' by far more than the tolerance
    eval_combo = verify.eval_combo

    def off(*args, **kwargs):
        result = eval_combo(*args, **kwargs)
        return dataclasses.replace(result, value=result.value + 1e-3)

    monkeypatch.setattr(verify, "eval_combo", off)
    report = verify.run_homomorphism_numeric(n_pairs=2, max_weight=5, tol=1e-5)
    assert report.cases_total == 6 and report.cases_passed == 0
    for failure in report.failures:
        lhs, rhs, diff = float(failure.lhs), float(failure.rhs), float(failure.diff)
        assert failure.lhs == "%.12g" % lhs and failure.rhs == "%.12g" % rhs
        assert failure.diff == "%.3g" % diff
        assert diff > 1e-5
        assert diff == pytest.approx(abs(lhs - rhs), rel=1e-2)


@pytest.mark.parametrize("max_weight", [3, 2, -1])
def test_homomorphism_refuses_small_weight_before_sampling(monkeypatch, max_weight):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled despite a weight below 4")

    monkeypatch.setattr(verify, "_sample_pairs", refuse)
    with pytest.raises(ValueError, match="max_weight must be at least 4"):
        verify.run_homomorphism_numeric(max_weight=max_weight)


@pytest.mark.parametrize(
    "sid, key, most",
    [(sid, key, most) for sid, runner in sorted(_RUNNERS.items())
     for key, most in sorted(runner.suite.most.items())],
)
def test_a_keyword_over_its_most_is_refused_before_any_case(sid, key, most):
    record = _RUNNERS[sid].suite

    @functools.wraps(record.cases)
    def refuse(**kwargs):
        raise AssertionError("ran a grid over the bound of %s" % key)

    record = dataclasses.replace(record, cases=refuse)
    over = [most + 1] if key.endswith("_values") else most + 1
    with pytest.raises(ValueError, match="%s must be at most %d for suite %s, got %d"
                       % (key, most, sid, most + 1)):
        record.run(**{key: over})
    # the most itself is accepted
    record.check({key: [1, most] if key.endswith("_values") else most})


def test_every_item_of_a_values_keyword_is_checked():
    check = verify.run_alternating_sums.suite.check
    check({"k_values": range(1, 11), "p_values": (1, 6)})
    with pytest.raises(ValueError, match="k_values must be at most 10"):
        check({"k_values": [2, 11, 4]})


def test_every_default_grid_is_within_its_bounds():
    for runner in _RUNNERS.values():
        params = inspect.signature(runner).parameters
        runner.suite.check({key: p.default for key, p in params.items()})


def test_every_benchmark_grid_is_within_its_bounds(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for sid, grid, _ in workloads.VERIFY_GRID:
        _RUNNERS[sid].suite.check(grid)


def test_positional_arguments_bind_like_keywords():
    by_position = verify.run_pattern_products(2, 1)
    by_keyword = verify.run_pattern_products(max_run=2, max_exp=1)
    assert by_position.cases_total == by_keyword.cases_total == 36
