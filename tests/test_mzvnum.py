"""Tests for the double-precision evaluators of multiple zeta values.

Reference values are recomputed at import time from math.pi and from an
independent single-series routine with an analytic tail, so no multi-digit
constants are frozen into the assertions.  The honesty checks require the
reported error estimate to cover the actual error on indices with known
closed forms.  The split-at-1/2 series is also checked against the same
series in exact rational arithmetic and against the direct nested-sum
evaluator.
"""

import math
from fractions import Fraction
from itertools import accumulate

import pytest

from imzv import (
    Index,
    STAR,
    ZetaCombo,
    admissible_indices,
    eval_combo,
    eval_mzv,
    eval_mzv_direct,
    interpolated_symbol,
    parse_zeta_combo,
    word_from_index,
    zeta_ref,
)
from imzv import mzvnum, verify

PI = math.pi
ZETA2 = PI**2 / 6
ZETA3 = zeta_ref(3)
ZETA4 = PI**4 / 90
ZETA5 = zeta_ref(5)
ZETA6 = PI**6 / 945
ZETA7 = zeta_ref(7)


def test_reference_series_matches_pi_powers():
    assert abs(zeta_ref(2) - ZETA2) < 1e-12
    assert abs(zeta_ref(4) - ZETA4) < 1e-12
    assert abs(zeta_ref(6) - ZETA6) < 1e-12


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7, 8])
def test_depth_one_honesty(s):
    res = eval_mzv((s,))
    assert abs(res.value - zeta_ref(s)) <= res.error_estimate


@pytest.mark.parametrize(
    "parts,closed_form",
    [
        ((3, 1), PI**4 / 360),
        ((2, 2), PI**4 / 120),
        ((2, 1), ZETA3),
        ((2, 1, 1), ZETA4),
        ((2, 1, 1, 1), ZETA5),
    ],
)
def test_known_depth_identities(parts, closed_form):
    res = eval_mzv(parts)
    assert abs(res.value - closed_form) <= res.error_estimate


def test_result_invariants():
    res = eval_mzv((2, 1, 2))
    assert res.error_estimate > 0
    assert res.cutoff_used == mzvnum.SERIES_TERMS
    assert res.tol_ok == (res.error_estimate <= 1e-9)


def test_rejects_non_admissible_index():
    with pytest.raises(ValueError):
        eval_mzv((1, 2))


def test_refinement_does_not_degrade():
    for parts in ((2,), (3, 1), (2, 1, 1), (2, 1, 1, 1, 1, 1)):
        coarse = eval_mzv_direct(parts, cutoff=1 << 13)
        fine = eval_mzv_direct(parts, cutoff=1 << 14)
        assert fine.error_estimate <= 2 * coarse.error_estimate, parts


def test_small_cutoff_is_flagged_but_still_honest():
    # a depth-six chain needs far more than 1024 terms for the default target
    res = eval_mzv_direct((2, 1, 1, 1, 1, 1), target_abs_err=1e-9, cutoff=1024)
    assert not res.tol_ok
    assert abs(res.value - ZETA7) <= res.error_estimate


def test_cache_reuses_default_cutoff_results():
    cache = {}
    first = eval_mzv((3, 1), cache=cache)
    assert (3, 1) in cache
    again = eval_mzv((3, 1), cache=cache)
    assert again.value == first.value
    assert again.cutoff_used == first.cutoff_used
    # an explicit cutoff must bypass the cached entry
    forced = eval_mzv_direct((3, 1), cutoff=1 << 12, cache=cache)
    assert forced.cutoff_used == 1 << 12


def test_combo_of_scalar_only():
    zc = parse_zeta_combo("3/2")
    res = eval_combo(zc)
    assert res.value == 1.5
    assert res.tol_ok


def test_combo_linear_accumulation():
    zc = parse_zeta_combo("2*z(2,2) + 4*z(3,1)")
    res = eval_combo(zc, target_abs_err=1e-6)
    assert abs(res.value - ZETA2**2) < 1e-6
    assert res.tol_ok
    single = eval_mzv((2, 2))
    assert res.error_estimate >= 2 * single.error_estimate


def test_combo_interpolation_at_one_half():
    # z^t(2,1) = z(2,1) + t*z(3), evaluated midway between the two ends
    zc = interpolated_symbol((2, 1))
    res = eval_combo(zc, t_value=Fraction(1, 2), target_abs_err=1e-8)
    want = ZETA3 + 0.5 * ZETA3  # z(2,1) = z(3)
    assert abs(res.value - want) <= res.error_estimate + 1e-12


def test_star_combo_value():
    zc = ZetaCombo(STAR, {Index((5, 1)): 1})
    res = eval_combo(zc, target_abs_err=1e-8)
    want = ZETA2 * ZETA4 - 0.5 * ZETA3**2
    assert abs(res.value - want) < 1e-8


def _closed_form_cases():
    cases = []
    for n in (4, 5, 6):  # z({2}^n) = pi^(2n) / (2n+1)!
        cases.append(((2,) * n, PI ** (2 * n) / math.factorial(2 * n + 1)))
    for n in (2, 3):  # z({3,1}^n) = 2 pi^(4n) / (4n+2)!
        cases.append(((3, 1) * n, 2 * PI ** (4 * n) / math.factorial(4 * n + 2)))
    for k in range(1, 7):  # z(2,1^k) = z(k+2)
        cases.append(((2,) + (1,) * k, zeta_ref(k + 2)))
    return cases


@pytest.mark.parametrize("parts,closed_form", _closed_form_cases())
def test_series_honesty_on_closed_forms(parts, closed_form):
    res = eval_mzv(parts)
    assert res.cutoff_used == mzvnum.SERIES_TERMS
    assert abs(res.value - closed_form) <= res.error_estimate


@pytest.mark.parametrize("parts,closed_form", _closed_form_cases())
def test_short_series_bound_holds(parts, closed_form):
    # eight terms leave a truncation error far above double rounding, so
    # the unfloored bound itself is exercised
    value, bound = mzvnum._split_series(word_from_index(Index(parts)).letters, 8)
    assert abs(value - closed_form) <= bound
    assert closed_form - value > 1e-9


def _exact_suffix_values(letters, n_terms):
    coeffs = [Fraction(1)] + [Fraction(0)] * n_terms
    values = [Fraction(1)]
    for letter in reversed(letters):
        sums = accumulate(coeffs[:-1]) if letter == "y" else coeffs[1:]
        coeffs = [Fraction(0)] + [c / m for m, c in enumerate(sums, 1)]
        values.append(sum(c / 2**m for m, c in enumerate(coeffs)))
    return values


@pytest.mark.parametrize("parts", [(2,), (2, 1, 2), (3, 1, 3, 1), (4, 1, 1, 2)])
def test_series_rounding_within_gamma_bound(parts):
    # the same truncated series in exact rational arithmetic isolates the
    # rounding error, which the bound must cover on its own
    letters = word_from_index(Index(parts)).letters
    n, n_terms = len(letters), mzvnum.SERIES_TERMS
    tails = _exact_suffix_values(letters, n_terms)
    heads = _exact_suffix_values(letters[::-1].translate(mzvnum._REVSWAP), n_terms)
    exact = sum(heads[i] * tails[n - i] for i in range(n + 1))
    value, bound = mzvnum._split_series(letters)
    assert abs(Fraction(value) - exact) <= Fraction(bound)
    assert bound < 1e-12


def test_series_agrees_with_direct_sum():
    cache_series, cache_direct = {}, {}
    for idx in admissible_indices(6):
        fast = eval_mzv(idx, cache=cache_series)
        ref = eval_mzv_direct(idx, cache=cache_direct)
        assert abs(fast.value - ref.value) <= fast.error_estimate + ref.error_estimate, idx


def test_duality_numeric_never_uses_the_series(monkeypatch):
    # the series is symmetric under duality term by term, so a duality
    # check run on it would pass whatever its errors
    def refuse(*args, **kwargs):
        raise AssertionError("duality-numeric evaluated the split series")

    monkeypatch.setattr(mzvnum, "eval_mzv", refuse)
    monkeypatch.setattr(mzvnum, "_split_series", refuse)
    monkeypatch.setattr(verify, "eval_mzv", refuse, raising=False)
    report = verify.run_duality_numeric(max_weight=4)
    assert report.passed
    assert report.cases_total == 7
