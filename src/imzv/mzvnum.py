"""Floating-point evaluation of multiple zeta values.

eval_mzv splits the iterated integral of the word w = word_from_index(k)
at 1/2 (Borwein, Bradley, Broadhurst and Lisonek, "Special values of
multiple polylogarithms", Trans. AMS 353, 2001):

    z(w) = sum_{i=0..n} Li(revswap(w[:i]); 1/2) * Li(w[i:]; 1/2),

where n = |w|, revswap reverses a word and swaps x with y, and the empty
word gives 1.  Li(v; z) = sum_m c_m z^m has nonnegative coefficients
built from the constant 1 by prepending letters: y replaces c_m by
(c_0 + ... + c_{m-1}) / m and x by c_m / m.  Both keep every c_m in
[0, 1], so each factor is at most 1 and cutting its series after
SERIES_TERMS terms loses at most 2^-SERIES_TERMS.  Every quantity is
nonnegative, so rounding has a relative bound as well, and the reported
error_estimate is a proven bound, floored at TARGET_FLOOR (1e-9): double
precision leaves no headroom below that, so tighter targets are not
accepted.

Under this formula z(dual(w)) sums the same terms as z(w) in reverse
order, so a numeric duality check needs an independent evaluator.
eval_mzv_direct is that reference: it truncates the nested harmonic sum
itself with cumulative-sum cascades of 2^17 to 2^21 terms and corrects
the tail analytically.  Writing the inner chains below m as A(m), the
truncated remainder is sum_{m>N} A(m) m^-l1.  A(m) grows like a
polynomial in log m whose degree is bounded by the number of parts
equal to 1 after the first, so the tail is recovered by fitting that
polynomial on a window of computed values and summing the fitted model
with the Euler-Maclaurin formula.  Its error estimate compares the
extrapolations from cutoff N and cutoff N/2, scaled by a safety factor
and floored at TARGET_FLOOR.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from .words import Index, word_from_index
from . import zeta as zeta_mod

TARGET_FLOOR = 1e-9
SERIES_TERMS = 64

_UNIT_ROUNDOFF = 2.0 ** -53
_REVSWAP = str.maketrans("xy", "yx")

_EST_SAFETY = 2.0
_FIT_SAMPLES = 512
_MIN_CUTOFF = 1 << 10


class EvalResult:
    """Outcome of a numeric evaluation.

    value          approximation of the limit
    error_estimate bound on |value - truth|, never below TARGET_FLOOR:
                   proven for eval_mzv (eval_combo adds these up, weighted
                   by coefficient magnitudes), calibrated for
                   eval_mzv_direct
    cutoff_used    series length (SERIES_TERMS) for eval_mzv and
                   eval_combo, or the largest partial-sum cutoff of
                   eval_mzv_direct
    tol_ok         whether error_estimate met the requested target
    """

    __slots__ = ("value", "error_estimate", "cutoff_used", "tol_ok")

    def __init__(self, value, error_estimate, cutoff_used, tol_ok):
        self.value = float(value)
        self.error_estimate = float(error_estimate)
        self.cutoff_used = int(cutoff_used)
        self.tol_ok = bool(tol_ok)

    def __repr__(self):
        return "EvalResult(value=%.12g, error_estimate=%.3g, cutoff_used=%d, tol_ok=%s)" % (
            self.value,
            self.error_estimate,
            self.cutoff_used,
            self.tol_ok,
        )


def _admissible(index) -> Index:
    if not isinstance(index, Index):
        index = Index(index)
    if not index.admissible:
        raise ValueError("cannot evaluate non-admissible index %s" % index)
    return index


def _suffix_values(letters: str, n_terms: int) -> list:
    """Li(v; 1/2) for every suffix v of letters, by length: entry k is the
    value of the length-k suffix, its series cut after z^n_terms.  Every
    nonempty suffix must end in y."""
    coeffs = [1.0] + [0.0] * n_terms
    halves = [0.5**m for m in range(n_terms + 1)]
    values = [1.0]
    for letter in reversed(letters):
        if letter == "y":
            sums = accumulate(coeffs[:-1])
        else:
            sums = coeffs[1:]
        coeffs = [0.0] + [c / m for m, c in enumerate(sums, 1)]
        values.append(math.fsum(map(mul, coeffs, halves)))
    return values


def _split_series(letters: str, n_terms: int = SERIES_TERMS):
    """(value, bound) of z(letters) by the split-at-1/2 series.

    Truncation: each of the n + 1 terms is a product of two factors in
    [0, 1], each short of its limit by at most 2^-n_terms.  Rounding: the
    running sums, divisions by m, fsums and products form a chain of at
    most K = (n_terms + 1)(n + 2) roundings along any path, and all
    operands are nonnegative, so value = exact * (1 + theta) with
    |theta| <= gamma_K = K u / (1 - K u).  Gradual underflow, possible
    only past weight 150, adds absolute errors below 1e-300.
    """
    n = len(letters)
    tails = _suffix_values(letters, n_terms)
    heads = _suffix_values(letters[::-1].translate(_REVSWAP), n_terms)
    value = math.fsum(heads[i] * tails[n - i] for i in range(n + 1))
    k_u = (n_terms + 1) * (n + 2) * _UNIT_ROUNDOFF
    gamma = k_u / (1.0 - k_u)
    bound = gamma * value / (1.0 - gamma) + 2.0 * (n + 1) * 0.5**n_terms
    return value, bound


def eval_mzv(index, target_abs_err=1e-9, cache=None) -> EvalResult:
    """Evaluate one admissible index in double precision with a proven
    error bound.

    The cache, if given, is a plain dict confined to the calling session;
    it keys on the index parts.  Do not share it with eval_mzv_direct.
    """
    index = _admissible(index)
    parts = index.parts
    target = max(float(target_abs_err), TARGET_FLOOR)
    if cache is not None and parts in cache:
        value, est, used = cache[parts]
        return EvalResult(value, est, used, est <= target)
    value, bound = _split_series(word_from_index(index).letters)
    est = max(bound, TARGET_FLOOR)
    if cache is not None:
        cache[parts] = (value, est, SERIES_TERMS)
    return EvalResult(value, est, SERIES_TERMS, est <= target)


def _log_degree(parts) -> int:
    """Upper bound for the log-polynomial degree of the inner partial sums."""
    return sum(1 for l in parts[1:] if l == 1)


def _default_cutoff(parts) -> int:
    if len(parts) == 1:
        return 1 << 17
    d = _log_degree(parts)
    if d == 0:
        return 1 << 18
    # slowly decaying outer terms with log growth need the deepest sums
    return 1 << 21 if parts[0] == 2 else 1 << 19


def _partial_data(parts, n_top):
    """Cumulative iterated sums up to n_top.

    Returns (total, inner) where total[m] = v(m) and inner[m] is the sum
    over strictly decreasing chains below m of the remaining factors, so
    that the m-th outer term is inner[m] * m^-l1.
    """
    m = np.arange(n_top + 1, dtype=np.float64)
    m[0] = 1.0
    cur = m ** float(-parts[-1])
    cur[0] = 0.0
    for l in reversed(parts[:-1]):
        pref = np.cumsum(cur)
        cur = m ** float(-l)
        cur[0] = 0.0
        cur[1:] *= pref[:-1]
    total = np.cumsum(cur)
    if len(parts) == 1:
        inner = np.ones(n_top + 1)
    else:
        inner = cur * m ** float(parts[0])
    return total, inner


def _fit_tail_coeffs(inner, lo, hi, degree):
    """Least-squares fit of inner[m] by a polynomial in log(m / center)."""
    ms = np.unique(np.linspace(lo, hi, _FIT_SAMPLES).astype(np.int64))
    center = math.sqrt(float(lo) * float(hi))
    w = np.log(ms / center)
    cols = np.vander(w, degree + 1, increasing=True)
    scale = np.linalg.norm(cols, axis=0)
    coef, _, _, _ = np.linalg.lstsq(cols / scale, inner[ms], rcond=None)
    return coef / scale, center


def _tail_sum(coefs, center, s, n_cut):
    """sum_{m > n_cut} P(log(m/center)) * m^-s by Euler-Maclaurin.

    Uses sum_{m >= a} g(m) = int_a^inf g + g(a)/2 - g'(a)/12 + ..., with
    the integrals reduced by integration by parts.
    """
    a = float(n_cut + 1)
    la = math.log(a / center)
    base = a ** (1.0 - s) / (s - 1.0)
    ints = [base]
    for i in range(1, len(coefs)):
        ints.append((la ** i) * base + i * ints[i - 1] / (s - 1.0))
    integral = 0.0
    p_at_a = 0.0
    dp_at_a = 0.0
    for i, c in enumerate(coefs):
        integral += c * ints[i]
        p_at_a += c * la ** i
        if i:
            dp_at_a += c * i * la ** (i - 1)
    g_a = p_at_a * a ** (-s)
    dg_a = (dp_at_a - s * p_at_a) * a ** (-s - 1.0)
    return integral + 0.5 * g_a - dg_a / 12.0


def _value_at(total, inner, s, n_cut, degree):
    coefs, center = _fit_tail_coeffs(inner, n_cut // 2, n_cut, degree)
    return total[n_cut] + _tail_sum(coefs, center, s, n_cut)


def eval_mzv_direct(index, target_abs_err=1e-9, cutoff=None, cache=None) -> EvalResult:
    """Evaluate one admissible index by the truncated nested sum.

    The independent reference for the duality check and calibration; its
    error estimate is calibrated, not proven.  The cache, if given, is a
    plain dict confined to the calling session; it keys on the index
    parts and stores results at the default cutoff.  An explicit
    ``cutoff`` (minimum 1024) overrides the size heuristic and bypasses
    the cache.
    """
    parts = _admissible(index).parts
    target = max(float(target_abs_err), TARGET_FLOOR)
    if cutoff is None and cache is not None and parts in cache:
        value, est, used = cache[parts]
        return EvalResult(value, est, used, est <= target)
    if cutoff is None:
        n_top = _default_cutoff(parts)
    else:
        n_top = max(int(cutoff), _MIN_CUTOFF)
    total, inner = _partial_data(parts, n_top)
    s = float(parts[0])
    degree = _log_degree(parts)
    v_hi = _value_at(total, inner, s, n_top, degree)
    v_lo = _value_at(total, inner, s, n_top // 2, degree)
    est = max(_EST_SAFETY * abs(v_hi - v_lo), TARGET_FLOOR)
    if cutoff is None and cache is not None:
        cache[parts] = (v_hi, est, n_top)
    return EvalResult(v_hi, est, n_top, est <= target)


def eval_combo(zc, t_value=0, target_abs_err=1e-6, cache=None) -> EvalResult:
    """Evaluate a zeta combo at a rational t, accumulating error estimates.

    Interpolated and star combos are first rewritten in plain symbols;
    coefficient magnitudes weight the per-index error estimates, which
    add up in absolute value.
    """
    if zc.kind == zeta_mod.INTERPOLATED:
        zc = zeta_mod.expand_interpolation(zc)
    elif zc.kind == zeta_mod.STAR:
        zc = zeta_mod.star_expand(zc)
    t0 = Fraction(t_value)
    target = max(float(target_abs_err), TARGET_FLOOR)
    if cache is None:
        cache = {}
    value = float(zc.scalar.eval_at(t0))
    est = 0.0
    used = 1
    for idx, poly in zc.sorted_terms():
        c = float(poly.eval_at(t0))
        if c == 0.0:
            continue
        r = eval_mzv(idx, cache=cache)
        value += c * r.value
        est += abs(c) * r.error_estimate
        used = max(used, r.cutoff_used)
    return EvalResult(value, est, used, est <= target)


def zeta_ref(s, terms=120) -> float:
    """Single-series reference for the depth-one value, by Euler-Maclaurin.

    Independent of the cascade evaluator; used to cross-check it.
    """
    s = float(s)
    if s <= 1.0:
        raise ValueError("need s > 1")
    n = int(terms)
    acc = math.fsum(k ** -s for k in range(1, n + 1))
    tail = (
        n ** (1.0 - s) / (s - 1.0)
        - 0.5 * n ** -s
        + s / 12.0 * n ** (-s - 1.0)
        - s * (s + 1.0) * (s + 2.0) / 720.0 * n ** (-s - 3.0)
    )
    return acc + tail
