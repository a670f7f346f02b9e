"""Floating-point evaluation of multiple zeta values.

eval_mzv splits the iterated integral of the word w = word_from_index(k)
at a rational point z in (0, 1) (Borwein, Bradley, Broadhurst and
Lisonek, "Special values of multiple polylogarithms", Trans. AMS 353,
2001):

    zeta(w) = sum_{i=0..n} Li(revswap(w[:i]); 1 - z) * Li(w[i:]; z),

where n = |w|, revswap reverses a word and swaps x with y, and the empty
word gives 1.  Li(v; p) = sum_m c_m p^m has nonnegative coefficients
built from the constant 1 by prepending letters: y replaces c_m by
(c_0 + ... + c_{m-1}) / m and x by c_m / m.  Both keep every c_m in
[0, 1] and c_0 = 0 for a nonempty word, so a factor at p is at most
max(1, p / (1 - p)) and cutting its series after N terms loses at most
p^(N+1) / (1 - p).  N is the fewest terms that keep this loss within
2^-SERIES_TERMS at both points, which is SERIES_TERMS itself at z = 1/2.
Every quantity is nonnegative, so rounding has a relative bound as well,
and the reported error_estimate is a proven bound, floored at
TARGET_FLOOR (1e-9): double precision leaves no headroom below that, so
tighter targets are not accepted.

The default split is z = 1/2.  There zeta(dual(w)) sums the same terms
as zeta(w) in reverse order, so a numeric duality check at 1/2 would pass
whatever the errors.  At z = 1/3 the split of dual(w) is, term by term,
the split of w at 2/3: a different series, which the duality suite
compares with the split of w at 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .words import Index, word_from_index

TARGET_FLOOR = 1e-9
SERIES_TERMS = 64
HALF = Fraction(1, 2)

_UNIT_ROUNDOFF = 2.0 ** -53
_REVSWAP = str.maketrans("xy", "yx")


@dataclass(slots=True)
class EvalResult:
    """Outcome of a numeric evaluation.

    value          approximation of the limit
    error_estimate proven bound on |value - truth|, never below
                   TARGET_FLOOR (eval_combo adds the bounds up, weighted
                   by coefficient magnitudes)
    cutoff_used    series length: the terms kept of each factor's power
                   series (SERIES_TERMS at the default split z = 1/2)
    tol_ok        whether error_estimate met the requested target
    """

    value: float
    error_estimate: float
    cutoff_used: int
    tol_ok: bool


def _admissible(index) -> Index:
    if not isinstance(index, Index):
        index = Index(index)
    if not index.admissible:
        raise ValueError("cannot evaluate non-admissible index %s" % index)
    return index


@lru_cache(maxsize=8)
def _powers(p: Fraction, n_terms: int) -> tuple:
    """p^0 .. p^n_terms, each rounded once to a double (exact at p = 1/2)."""
    return tuple(float(p**m) for m in range(n_terms + 1))


def _cut_loss(p: Fraction, n_terms: int) -> Fraction:
    """Most a factor's series at p can lose when cut after p^n_terms."""
    return p ** (n_terms + 1) / (1 - p)


@lru_cache(maxsize=8)
def _term_loss(z: Fraction, n_terms: int) -> Fraction:
    """Most one term, a head at 1 - z times a tail at z, loses to the cuts:
    the head is at most max(1, (1 - z) / z), the tail at most
    max(1, z / (1 - z)), and each falls short by at most its cut loss."""
    h = 1 - z
    return max(1, h / z) * _cut_loss(z, n_terms) + max(1, z / h) * _cut_loss(h, n_terms)


@lru_cache(maxsize=8)
def _series_terms(z: Fraction) -> int:
    """Fewest terms that keep the cut loss at z and 1 - z within
    2^-SERIES_TERMS: SERIES_TERMS at z = 1/2, 112 at z = 1/3."""
    p = max(z, 1 - z)
    n_terms = SERIES_TERMS
    while _cut_loss(p, n_terms) > Fraction(1, 2**SERIES_TERMS):
        n_terms += 1
    return n_terms


def _suffix_values(letters: str, n_terms: int, p: Fraction) -> list:
    """Li(v; p) for every suffix v of letters, by length: entry k is the
    value of the length-k suffix, its series cut after p^n_terms.  Every
    nonempty suffix must end in y."""
    coeffs = [1.0] + [0.0] * n_terms
    powers = _powers(p, n_terms)
    values = [1.0]
    for letter in reversed(letters):
        if letter == "y":
            sums = accumulate(coeffs[:-1])
        else:
            sums = coeffs[1:]
        coeffs = [0.0] + [c / m for m, c in enumerate(sums, 1)]
        values.append(math.fsum(map(mul, coeffs, powers)))
    return values


def _split_series(letters: str, n_terms: int = SERIES_TERMS, z: Fraction = HALF):
    """(value, bound) of zeta(letters) by the series split at z.

    Truncation: each of the n + 1 terms loses at most _term_loss, which
    is 2 * 2^-n_terms at z = 1/2.  Rounding: the powers of z and 1 - z,
    running sums, divisions by m, fsums and products form a chain of at
    most K = (n_terms + 1)(n + 2) roundings along any path, and all
    operands are nonnegative, so value = exact * (1 + theta) with
    |theta| <= gamma_K = K u / (1 - K u).  Gradual underflow, possible
    only past weight 150 at z = 1/2 and 120 at z = 1/3, adds absolute
    errors below 1e-300.
    """
    n = len(letters)
    tails = _suffix_values(letters, n_terms, z)
    heads = _suffix_values(letters[::-1].translate(_REVSWAP), n_terms, 1 - z)
    value = math.fsum(heads[i] * tails[n - i] for i in range(n + 1))
    k_u = (n_terms + 1) * (n + 2) * _UNIT_ROUNDOFF
    gamma = k_u / (1.0 - k_u)
    bound = gamma * value / (1.0 - gamma) + float((n + 1) * _term_loss(z, n_terms))
    return value, bound


def eval_mzv(index, target_abs_err=1e-9, cache=None, *, split=HALF) -> EvalResult:
    """Evaluate one admissible index in double precision with a proven
    error bound, by the series split at the rational point split in (0, 1).

    The cache, if given, is a plain dict confined to the calling session;
    it keys on the index parts and the split point.
    """
    index = _admissible(index)
    z = Fraction(split)
    if not 0 < z < 1:
        raise ValueError("split point must lie strictly between 0 and 1, got %s" % z)
    key = (index.parts, z)
    target = max(float(target_abs_err), TARGET_FLOOR)
    if cache is not None and key in cache:
        value, est, used = cache[key]
        return EvalResult(value, est, used, est <= target)
    n_terms = _series_terms(z)
    value, bound = _split_series(word_from_index(index).letters, n_terms, z)
    est = max(bound, TARGET_FLOOR)
    if cache is not None:
        cache[key] = (value, est, n_terms)
    return EvalResult(value, est, n_terms, est <= target)


def eval_combo(zc, t_value=0, target_abs_err=1e-6, cache=None) -> EvalResult:
    """Evaluate a zeta combo at a rational t, accumulating error estimates.

    Interpolated and star combos are first rewritten in plain symbols;
    coefficient magnitudes weight the per-index error estimates, which
    add up in absolute value.  A coefficient at t outside the double range
    is refused with ValueError before any series is summed, and so is a
    value that overflows.
    """
    zc = zc.to_plain()
    t0 = Fraction(t_value)
    target = max(float(target_abs_err), TARGET_FLOOR)
    if cache is None:
        cache = {}
    value = _coefficient(zc.scalar.eval_at(t0), "the constant term")
    terms = [(idx, _coefficient(poly.eval_at(t0), "the coefficient of z%s" % idx))
             for idx, poly in zc.sorted_terms()]
    est = 0.0
    used = 1
    for idx, c in terms:
        if c == 0.0:
            continue
        r = eval_mzv(idx, cache=cache)
        value += c * r.value
        est += abs(c) * r.error_estimate
        used = max(used, r.cutoff_used)
    if not math.isfinite(value):
        raise ValueError("the value is outside the double range at this t")
    # even a combo with no symbols rounds its scalar to a double
    est = max(est, TARGET_FLOOR)
    return EvalResult(value, est, used, est <= target)


def _coefficient(value: Fraction, what: str) -> float:
    """An exact coefficient as a float, refused when it is outside the
    double range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError("%s is outside the double range at this t" % what) from None


def zeta_ref(s, terms=120) -> float:
    """Single-series reference for the depth-one value, by Euler-Maclaurin.

    Independent of the split series; used to cross-check it.
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
