"""Tests for the double-precision evaluators of multiple zeta values.

Reference values are recomputed at import time from math.pi and from an
independent single-series routine with an analytic tail, so no multi-digit
constants are frozen into the assertions.  The honesty checks require the
reported error estimate to cover the actual error on indices with known
closed forms, at both split points the library uses (1/2 for eval_mzv
and eval_combo, 1/3 for the duality suite).  The series is also checked
against the same series in exact rational arithmetic, and the two split
points against each other.
"""

import hashlib
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate

import pytest

from imzv import (
    Index,
    QtPoly,
    STAR,
    ZetaCombo,
    admissible_indices,
    dual,
    eval_combo,
    eval_mzv,
    index_from_word,
    interpolated_symbol,
    parse_zeta_combo,
    word_from_index,
    zeta_ref,
)
import imzv
from imzv import mzvnum, verify

PI = math.pi
ZETA2 = PI**2 / 6
ZETA3 = zeta_ref(3)
ZETA4 = PI**4 / 90
ZETA5 = zeta_ref(5)
ZETA6 = PI**6 / 945
ZETA7 = zeta_ref(7)
SPLITS = [mzvnum.HALF, verify.DUALITY_SPLIT]


def test_reference_series_matches_pi_powers():
    assert abs(zeta_ref(2) - ZETA2) < 1e-12
    assert abs(zeta_ref(4) - ZETA4) < 1e-12
    assert abs(zeta_ref(6) - ZETA6) < 1e-12


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7, 8])
def test_depth_one_honesty(s):
    for split in SPLITS:
        res = eval_mzv((s,), split=split)
        assert abs(res.value - zeta_ref(s)) <= res.error_estimate, split


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


def test_an_index_over_the_letter_limit_or_not_admissible_is_refused_before_any_series(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(mzvnum, "_split_series", refuse)
    monkeypatch.setattr(mzvnum, "_suffix_values", refuse)
    for index in [(501,), (250, 251), (2,) + (1,) * 499, Index((400, 101))]:
        with pytest.raises(ValueError, match="weight 501 is over the limit of 500 letters"):
            eval_mzv(index, cache={})
    for index in [(1, 2), (1,), Index((1, 600))]:
        with pytest.raises(ValueError, match="non-admissible index"):
            eval_mzv(index, cache={})
    # the limit itself reaches the series
    with pytest.raises(AssertionError, match="a series was summed"):
        eval_mzv((500,))


def test_rejects_split_outside_the_unit_interval():
    for split in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(ValueError):
            eval_mzv((2,), split=split)


def test_series_length_follows_the_split():
    assert eval_mzv((2, 1), split=Fraction(1, 2)).cutoff_used == mzvnum.SERIES_TERMS
    n_terms = eval_mzv((2, 1), split=verify.DUALITY_SPLIT).cutoff_used
    # the fewest terms that cut the slower factor, at 2/3, within 2^-64
    assert mzvnum._cut_loss(Fraction(2, 3), n_terms) <= Fraction(1, 2**64)
    assert mzvnum._cut_loss(Fraction(2, 3), n_terms - 1) > Fraction(1, 2**64)


def test_cache_reuses_default_cutoff_results():
    cache = {}
    first = eval_mzv((3, 1), cache=cache)
    assert ((3, 1), mzvnum.HALF) in cache
    again = eval_mzv((3, 1), cache=cache)
    assert again.value == first.value
    assert again.cutoff_used == first.cutoff_used
    # another split point must not be served the entry of the first
    third = eval_mzv((3, 1), cache=cache, split=verify.DUALITY_SPLIT)
    assert third.cutoff_used != first.cutoff_used
    # the finished values, keyed (parts, z); the suffix tables sit beside
    # them under (p, n_terms)
    assert [key for key in cache if type(key[0]) is tuple] == [
        ((3, 1), mzvnum.HALF), ((3, 1), verify.DUALITY_SPLIT)]
    cache[(3, 1), verify.DUALITY_SPLIT] = (0.0, 1e-9, 0)
    assert eval_mzv((3, 1), cache=cache, split=verify.DUALITY_SPLIT).value == 0.0
    assert eval_mzv((3, 1), cache=cache).value == first.value


def test_combo_of_scalar_only():
    # float(1/3) is inexact, so no estimate drops below the floor
    for text, value in (("3/2", 1.5), ("1/3", 1 / 3), ("z(2) - z(2)", 0.0)):
        res = eval_combo(parse_zeta_combo(text))
        assert res.value == value
        assert res.error_estimate == mzvnum.TARGET_FLOOR
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
    for split in SPLITS:
        res = eval_mzv(parts, split=split)
        assert res.cutoff_used == mzvnum._split_point(split)[0]
        assert abs(res.value - closed_form) <= res.error_estimate, split


@pytest.mark.parametrize("parts,closed_form", _closed_form_cases())
def test_short_series_bound_holds(parts, closed_form):
    # eight terms leave a truncation error far above double rounding, so
    # the unfloored bound itself is exercised
    letters = word_from_index(Index(parts)).letters
    for split in SPLITS:
        value, bound = mzvnum._split_series(letters, mzvnum._split_point(split, 8))
        assert abs(value - closed_form) <= bound, split
        assert closed_form - value > 1e-9, split


def _exact_suffix_values(letters, n_terms, p):
    coeffs = [Fraction(1)] + [Fraction(0)] * n_terms
    values = [Fraction(1)]
    for letter in reversed(letters):
        sums = accumulate(coeffs[:-1]) if letter == "y" else coeffs[1:]
        coeffs = [Fraction(0)] + [c / m for m, c in enumerate(sums, 1)]
        values.append(sum(c * p**m for m, c in enumerate(coeffs)))
    return values


@pytest.mark.parametrize("parts", [(2,), (2, 1, 2), (3, 1, 3, 1), (4, 1, 1, 2)])
def test_series_rounding_within_gamma_bound(parts):
    # the same truncated series in exact rational arithmetic isolates the
    # rounding error, which the bound must cover on its own
    letters = word_from_index(Index(parts)).letters
    n = len(letters)
    for split in SPLITS:
        point = mzvnum._split_point(split)
        tails = _exact_suffix_values(letters, point[0], split)
        heads = _exact_suffix_values(
            letters[::-1].translate(mzvnum._REVSWAP), point[0], 1 - split)
        exact = sum(heads[i] * tails[n - i] for i in range(n + 1))
        value, bound = mzvnum._split_series(letters, point)
        assert abs(Fraction(value) - exact) <= Fraction(bound), split
        assert bound < 1e-12


def test_an_evaluation_works_its_split_point_out_once():
    mzvnum._split_point.cache_clear()
    eval_mzv((2, 1), split=Fraction(1, 5))
    assert mzvnum._split_point.cache_info().currsize == 1


def test_split_points_agree_within_their_bounds():
    # two different series for the same value: 1/2 and 1/3 share no factor
    for idx in admissible_indices(8):
        letters = word_from_index(idx).letters
        half, half_bound = mzvnum._split_series(letters, mzvnum._split_point(mzvnum.HALF))
        third, third_bound = mzvnum._split_series(
            letters, mzvnum._split_point(verify.DUALITY_SPLIT))
        assert abs(half - third) <= half_bound + third_bound, idx


@pytest.mark.parametrize("split", SPLITS)
def test_a_shared_suffix_memo_changes_no_bit(split):
    # one cache across every index serves each suffix summed before; every
    # value and raw bound must be the one a fresh cache gives, bit for bit
    point = mzvnum._split_point(split)
    n_terms = point[0]
    indices = list(admissible_indices(10))
    assert len(indices) == 511
    shared = {}
    for idx in indices:
        letters = word_from_index(idx).letters
        alone = mzvnum._split_series(letters, point)
        got = mzvnum._split_series(letters, point, shared)
        assert [x.hex() for x in got] == [x.hex() for x in alone], idx
    # at 1/2 the heads, at 1 - z, and the tails, at z, share one table
    assert set(shared) == {(split, n_terms), (1 - split, n_terms)}


def test_at_one_third_the_sides_of_a_duality_pair_keep_their_factors_apart():
    # the tails of dual(w) at 1/3 are the heads of w at 2/3, letter for
    # letter; the cache keeps one table per point, so neither side is served
    # the other's factor, and a shared cache changes no bit of either side
    z = verify.DUALITY_SPLIT
    point = mzvnum._split_point(z)
    n_terms = point[0]
    third, two_thirds = (z, n_terms), (1 - z, n_terms)
    for idx in admissible_indices(8):
        word = word_from_index(idx)
        w, d = word.letters, dual(word).letters
        alone_w, alone_d, shared = {}, {}, {}
        want = (mzvnum._split_series(w, point, alone_w),
                mzvnum._split_series(d, point, alone_d))
        assert alone_d[third].keys() == alone_w[two_thirds].keys()
        assert alone_d[two_thirds].keys() == alone_w[third].keys()
        for table, mirror in ((alone_d[third], alone_w[two_thirds]),
                              (alone_d[two_thirds], alone_w[third])):
            assert all(table[v][1] != mirror[v][1] for v in table), idx
        got = (mzvnum._split_series(w, point, shared),
               mzvnum._split_series(d, point, shared))
        assert got == want, idx
        assert set(shared) == {third, two_thirds}
        for key in shared:
            assert shared[key].keys() == alone_w[key].keys() | alone_d[key].keys()


def test_each_eval_combo_call_starts_with_an_empty_memo(monkeypatch):
    calls = []
    eval_mzv_ = mzvnum.eval_mzv

    def spy(index, *args, cache, **kwargs):
        calls.append((cache, len(cache)))
        return eval_mzv_(index, *args, cache=cache, **kwargs)

    monkeypatch.setattr(mzvnum, "eval_mzv", spy)
    zc = parse_zeta_combo("z(3,1) + 0*z(2,2) + 2*z(2,1,1)")
    first, second = eval_combo(zc), eval_combo(zc)
    assert first == second
    # one evaluation per nonzero term, the second term served from the
    # first's suffix tables; given no cache, the second call makes a new
    # one, empty at first
    assert [size > 0 for _, size in calls] == [False, True, False, True]
    assert calls[0][0] is calls[1][0] and calls[2][0] is calls[3][0]
    assert calls[2][0] is not calls[0][0]
    # a caller's cache serves every term and every later call
    calls.clear()
    cache = {}
    assert eval_combo(zc, cache=cache) == eval_combo(zc, cache=cache) == first
    assert all(got is cache for got, _ in calls)
    assert ((3, 1), mzvnum.HALF) in cache and ((2, 1, 1), mzvnum.HALF) in cache


# sha256 of every value and bound below, as hex floats: a change to the
# series or to the coefficients that moves any bit shows here
_COMBO_DIGESTS = {
    0: "7c15b728d01d6a0e05ed5439464ed22e7f724ed5b08c5ecea1ea30db0661bf1f",
    Fraction(1, 2): "1462d2a409fe64e105790361ba82f5e368d5c60562f2aea2006df560ea4b12e8",
    1: "2d176990ca17b07756d12a1dd385d82c6c1df0fd306bc1d345e9249ce98f006a",
    -2: "e8988a83adc5920889125a3b6fefa10240631c46b4a07a1c192b71ba8793670c",
}


@pytest.mark.parametrize("t0", [0, Fraction(1, 2), 1, -2])
def test_eval_combo_sums_its_terms_as_eval_mzv_evaluates_them(t0):
    # each interpolated symbol of weight at most 10, written in plain ones
    # and summed term by term from public eval_mzv calls in canonical order
    indices = list(admissible_indices(10))
    assert len(indices) == 511
    cache, own = {}, {}
    pinned = hashlib.sha256()
    for idx in indices:
        zc = interpolated_symbol(idx)
        got = eval_combo(zc, t0, cache=cache)
        value, est, used = 0.0, 0.0, 1
        for parts, c in zc.to_plain().sorted_terms():
            c = float(c.eval_at(t0))
            if c == 0.0:
                continue
            r = eval_mzv(parts, cache=own)
            value += c * r.value
            est += abs(c) * r.error_estimate
            used = max(used, r.cutoff_used)
        est = max(est, mzvnum.TARGET_FLOOR)
        assert got.value.hex() == value.hex(), idx
        assert got.error_estimate.hex() == est.hex(), idx
        assert (got.cutoff_used, got.tol_ok) == (used, est <= 1e-6), idx
        pinned.update(("%s %s\n" % (value.hex(), est.hex())).encode())
    assert pinned.hexdigest() == _COMBO_DIGESTS[t0]


def test_eval_mzv_takes_one_cache():
    assert list(inspect.signature(eval_mzv).parameters) == [
        "index", "target_abs_err", "cache", "split"]
    cache = {}
    first = eval_mzv((2, 1), cache=cache)
    # besides the value, the cache keeps the suffix series (2,1)'s split
    # summed, which the next index that shares a suffix draws on
    n_terms = first.cutoff_used
    assert set(cache) == {((2, 1), mzvnum.HALF), (mzvnum.HALF, n_terms)}
    assert "y" in cache[mzvnum.HALF, n_terms]
    assert eval_mzv((3, 1), cache=cache) == eval_mzv((3, 1))


def test_duality_numeric_never_evaluates_at_one_half(monkeypatch):
    # the split at 1/2 is symmetric under duality term by term, so a
    # duality check run on it would pass whatever its errors
    points = []
    split_series = mzvnum._split_series

    def spy(letters, point, cache=None):
        # the record's tail factor is (z, powers of z)
        points.append(point[1][0])
        return split_series(letters, point, cache)

    monkeypatch.setattr(mzvnum, "_split_series", spy)
    report = verify.run_duality_numeric(max_weight=4)
    assert report.passed
    assert report.cases_total == 7
    assert points and set(points) == {verify.DUALITY_SPLIT}


def _cut_to_ten_terms(monkeypatch):
    # truncate every factor after ten terms but keep the bound of the full
    # series, as a wrong evaluator with an unchanged error claim would
    suffix_values = mzvnum._suffix_values
    monkeypatch.setattr(
        mzvnum, "_suffix_values",
        lambda letters, n_terms, p, cache: suffix_values(letters, 10, p, cache))


def test_duality_check_at_one_half_cannot_see_a_cut_series(monkeypatch):
    _cut_to_ten_terms(monkeypatch)
    for idx in admissible_indices(6):
        partner = index_from_word(dual(word_from_index(idx)))
        r1, r2 = eval_mzv(idx), eval_mzv(partner)
        assert abs(r1.value - r2.value) <= r1.error_estimate + r2.error_estimate
    # the cut is real: z(2,1) at 1/2 is visibly off z(3)
    assert abs(eval_mzv((2, 1)).value - ZETA3) > 1e-6


def test_duality_numeric_catches_a_cut_series(monkeypatch):
    _cut_to_ten_terms(monkeypatch)
    report = verify.run_duality_numeric(max_weight=6)
    assert not report.passed


def test_importing_the_package_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(imzv.__file__))
    code = ("import sys; sys.path.insert(0, %r); import imzv, imzv.cli; "
            "print('numpy' in sys.modules)" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _coefficient_polys():
    ints = [0, 1, -1, 3, -7, 12, 2**70 + 1, -(10**30)]
    fracs = [Fraction(1, 3), Fraction(-5, 7), Fraction(2**80, 3**40)]
    polys = [QtPoly(), QtPoly.t(6), QtPoly({0: 2**1100}), QtPoly({0: 2**1023, 5: -3}),
             QtPoly({6: Fraction(1, 2**1100)})]
    for d in range(7):
        polys.append(QtPoly({e: ints[(d + e) % len(ints)] for e in range(d + 1)}))
        polys.append(QtPoly({e: ints[(3 * d + e) % len(ints)] for e in range(0, d + 1, 2)}))
        polys.append(QtPoly({e: fracs[(d + e) % len(fracs)] for e in range(d + 1)}))
        polys.append(QtPoly({0: fracs[d % 3], d: ints[d]}))
    return polys


@pytest.mark.parametrize("t0", [0, 1, Fraction(1, 2), -2, Fraction(3, 7), Fraction(-1, 3)])
def test_a_coefficient_at_t_is_the_double_of_its_exact_value(t0):
    # int coefficients are summed in ints over one power of the denominator;
    # the quotient must be the double float(eval_at) rounds to, bit for bit
    polys = _coefficient_polys()
    assert any(all(type(c) is int for _, c in p.coeffs) for p in polys)
    assert any(type(c) is Fraction for p in polys for _, c in p.coeffs)
    for poly in polys:
        try:
            want = float(poly.eval_at(t0)).hex()
        except OverflowError:
            want = "refused"
        try:
            got = mzvnum._coefficient(poly, Fraction(t0), "c").hex()
        except ValueError:
            got = "refused"
        assert got == want, poly


def test_a_coefficient_at_the_edge_of_the_double_range_rounds_as_its_fraction():
    most = float.fromhex("0x1.fffffffffffffp+1023")
    half_way = 2**1024 - 2**970  # ties to even, up to 2^1024
    assert mzvnum._coefficient(QtPoly.t(), Fraction(half_way - 1), "c") == most
    assert mzvnum._coefficient(QtPoly({1: -1}), Fraction(half_way - 1), "c") == -most
    for t0 in (Fraction(half_way), Fraction(-(2**1024)), Fraction(2**1100, 3)):
        with pytest.raises(OverflowError):
            float(QtPoly.t().eval_at(t0))
        with pytest.raises(ValueError, match="^c is outside the double range at this t$"):
            mzvnum._coefficient(QtPoly.t(), t0, "c")


def test_eval_combo_refuses_a_coefficient_outside_the_double_range():
    # (2^2000)^500 takes 10^6 bits, under MAX_POWER_BITS, so it is computed
    t0 = 2**2000
    for text, what in (("t^500*z(2)", "the coefficient of z(2)"),
                       ("z(2) + t^500", "the constant term")):
        with pytest.raises(ValueError) as exc:
            eval_combo(parse_zeta_combo(text), t0)
        assert str(exc.value) == "%s is outside the double range at this t" % what


@pytest.mark.parametrize("t0", [2**2000, Fraction(1, 2**2000), Fraction(-3, 2**2000)])
def test_eval_combo_refuses_a_power_over_the_bit_limit_before_taking_it(t0):
    # (2^2000)^1000 would take 2 * 10^6 bits, over MAX_POWER_BITS = 2^20
    assert 1000 * 2000 > mzvnum.MAX_POWER_BITS == 2**20
    for text, what in (("t^1000*z(2)", "the coefficient of z(2)"),
                       ("z(2) + 1/3*t^1000", "the constant term")):
        with pytest.raises(ValueError) as exc:
            eval_combo(parse_zeta_combo(text), t0)
        assert str(exc.value) == ("%s has t-degree 1000, whose power at this t is "
                                  "over the limit of 1048576 bits" % what)


@pytest.mark.parametrize("t0", [0, 1, -1])
def test_t_in_zero_one_and_minus_one_evaluates_a_power_of_any_degree(t0):
    assert mzvnum._coefficient(QtPoly({0: 2, 10**12: 3}), Fraction(t0), "c") == 2 + 3 * t0**2


@pytest.mark.parametrize("target", [math.nan, -5, -1e-300, -math.inf])
def test_a_negative_or_nan_target_is_refused_before_any_series(monkeypatch, target):
    def refuse(*args, **kwargs):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(mzvnum, "_split_series", refuse)
    for evaluate in (lambda: eval_mzv((2,), target),
                     lambda: eval_mzv((2,), target, {((2,), mzvnum.HALF): (1.0, 1e-9, 64)}),
                     lambda: eval_combo(parse_zeta_combo("z(2)"), 0, target)):
        with pytest.raises(ValueError, match="target_abs_err must be a nonnegative number"):
            evaluate()


def test_zero_and_infinite_targets_are_taken():
    # a zero target is floored, as a tighter one than the floor is
    assert eval_mzv((2,), 0) == eval_mzv((2,), 1e-12) == eval_mzv((2,))
    assert eval_mzv((2,), math.inf).tol_ok is True
    assert eval_combo(parse_zeta_combo("z(2)"), 0, math.inf).tol_ok is True


def test_an_evaluation_hashes_its_split_point_once(monkeypatch):
    # the cache keys hold the point record's own copies of z and 1 - z,
    # which keep their hash, so only the lookup of the record hashes z
    z = Fraction(1, 5)
    eval_mzv((2, 1), split=z)
    hashes = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashes.append(q) or fraction_hash(q))
    cache = {}
    for parts in ((3, 1), (2, 1, 2), (3, 1)):
        hashes.clear()
        eval_mzv(parts, cache=cache, split=z)
        assert hashes == [z], parts
    assert ((3, 1), z) in cache and (z, mzvnum._split_point(z)[0]) in cache
