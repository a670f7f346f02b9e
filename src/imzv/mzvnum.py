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

A function here that takes a memo takes one, cache, a plain dict the
caller owns, and no value or bound depends on it.  eval_mzv keeps a
finished value under (index parts, z) and each suffix's coefficients and
value in one table per point and series length, under (p, n_terms),
keyed by the suffix letters; a tuple of parts never equals a Fraction,
so the two kinds of key never meet.  A suffix shared by two factors, or
by two evaluations on one cache, is summed once; at z = 1/2 the heads
and tails draw on one table.  eval_combo gives all its terms the
caller's cache, or one fresh dict per call when given none.

The default split is z = 1/2.  There zeta(dual(w)) sums the same terms
as zeta(w) in reverse order, so a numeric duality check at 1/2 would pass
whatever the errors.  At z = 1/3 the split of dual(w) is, term by term,
the split of w at 2/3: a different series, which the duality suite
compares with the split of w at 1/3.  Its factors at 1/3 and 2/3 sit in
separate tables, so neither side is served the other's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul, truediv

from .words import admissible_index_parts, index_letters, parts_str

TARGET_FLOOR = 1e-9
SERIES_TERMS = 64
# most bits of a top power of t = num/den: degree * log2 max(|num|, den)
MAX_POWER_BITS = 2 ** 20
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


class _Point(Fraction):
    """A split point that equals and hashes like its Fraction, its hash
    worked out once: the cache keys of every evaluation at it hash it."""

    __slots__ = ("_hash",)

    def __new__(cls, *args):
        self = super().__new__(cls, *args)
        self._hash = Fraction.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


def _cut_loss(p: Fraction, n_terms: int) -> Fraction:
    """Most a factor's series at p can lose when cut after p^n_terms."""
    return p ** (n_terms + 1) / (1 - p)


@lru_cache(maxsize=8)
def _steps(n_terms: int) -> tuple:
    """The divisors 1.0 .. n_terms of a series step, as floats: each is
    exact, so a quotient is the double that dividing by the int gives."""
    return tuple(map(float, range(1, n_terms + 1)))


@lru_cache(maxsize=8)
def _split_point(z: Fraction, n_terms: int | None = None) -> tuple:
    """All the series split at z needs, worked out once per point: the
    series length n_terms, the factors at z and at 1 - z, each as (p,
    p^0 .. p^n_terms rounded once to doubles, exact at p = 1/2), and the
    most one term, a head times a tail, loses to the cuts as ints num and
    den, so that n times it is one int division, rounded once.

    n_terms is by default the fewest terms that keep the cut loss at z and
    1 - z within 2^-SERIES_TERMS: SERIES_TERMS at z = 1/2, 112 at z = 1/3.
    Each factor's p is a _Point, so the cache keys built on it hash it
    once, here.  Refuses z outside (0, 1)."""
    if not 0 < z < 1:
        raise ValueError("split point must lie strictly between 0 and 1, got %s" % z)
    h = 1 - z
    if n_terms is None:
        n_terms = SERIES_TERMS
        while _cut_loss(max(z, h), n_terms) > Fraction(1, 2**SERIES_TERMS):
            n_terms += 1
    # the head is at most max(1, h / z), the tail at most max(1, z / h),
    # and each falls short by at most its cut loss
    loss = max(1, h / z) * _cut_loss(z, n_terms) + max(1, z / h) * _cut_loss(h, n_terms)
    tail, head = ((_Point(p), tuple(float(p**m) for m in range(n_terms + 1))) for p in (z, h))
    return n_terms, tail, head, loss.numerator, loss.denominator


def _suffix_values(letters: str, n_terms: int, factor: tuple, cache: dict) -> list:
    """Li(v; p) at the factor's point p for every suffix v of letters, by
    length: entry k is the value of the length-k suffix, its series cut
    after p^n_terms, at most the factor's own series length.  Every
    nonempty suffix must end in y.

    cache holds one table per (p, n_terms), suffix letters -> (coefficients,
    value); a suffix found there is not summed again, and each new one is
    built from the next shorter and stored."""
    p, powers = factor
    table = cache.get((p, n_terms))
    if table is None:
        table = cache[p, n_terms] = {}
    coeffs = [1.0] + [0.0] * n_terms
    steps = _steps(n_terms)
    values = [1.0]
    for j in range(len(letters) - 1, -1, -1):
        suffix = letters[j:]
        hit = table.get(suffix)
        if hit is None:
            if suffix[0] == "y":
                sums = accumulate(coeffs[:-1])
            else:
                sums = coeffs[1:]
            step = [0.0]
            step += map(truediv, sums, steps)
            hit = table[suffix] = (step, math.fsum(map(mul, step, powers)))
        coeffs = hit[0]
        values.append(hit[1])
    return values


def _split_series(letters: str, point: tuple, cache: dict | None = None):
    """(value, bound) of zeta(letters) by the series split of point, a
    _split_point record, the suffix values from cache (see _suffix_values;
    a fresh one if None).

    Truncation: each of the n + 1 terms loses at most the split point's
    term loss, which is 2 * 2^-n_terms at z = 1/2.  Rounding: the powers
    of z and 1 - z, running sums, divisions by m, fsums and products form
    a chain of at most K = (n_terms + 1)(n + 2) roundings along any path,
    and all operands are nonnegative, so value = exact * (1 + theta) with
    |theta| <= gamma_K = K u / (1 - K u).  Gradual underflow, possible
    only past weight 150 at z = 1/2 and 120 at z = 1/3, adds absolute
    errors below 1e-300.
    """
    n = len(letters)
    if cache is None:
        cache = {}
    n_terms, tail, head, loss_num, loss_den = point
    tails = _suffix_values(letters, n_terms, tail, cache)
    heads = _suffix_values(letters[::-1].translate(_REVSWAP), n_terms, head, cache)
    value = math.fsum(heads[i] * tails[n - i] for i in range(n + 1))
    k_u = (n_terms + 1) * (n + 2) * _UNIT_ROUNDOFF
    gamma = k_u / (1.0 - k_u)
    bound = gamma * value / (1.0 - gamma) + (n + 1) * loss_num / loss_den
    return value, bound


def eval_mzv(index, target_abs_err=1e-9, cache=None, *, split=HALF) -> EvalResult:
    """Evaluate one admissible index in double precision with a proven
    error bound, by the series split at the rational point split in (0, 1).

    The index is checked once, as admissible_index_parts checks it, and
    its word's letters are written straight from its parts, refused over
    MAX_LETTERS, before any series is summed; so is a negative or NaN
    target_abs_err.

    The cache, if given, is a plain dict owned by the caller.  It keeps
    each finished value under (index parts, split point) and the series
    of every suffix summed so far under (point, series length) (see
    _suffix_values), so later evaluations on it share both; no value or
    bound depends on it.
    """
    parts = admissible_index_parts(index)
    target = _target(target_abs_err)
    point = _split_point(split if type(split) is Fraction else Fraction(split))
    n_terms = point[0]
    # the tail factor's point is z, hashed once when the point was built
    key = (parts, point[1][0])
    hit = None if cache is None else cache.get(key)
    if hit is not None:
        value, est, used = hit
        return EvalResult(value, est, used, est <= target)
    value, bound = _split_series(index_letters(parts), point, cache)
    est = max(bound, TARGET_FLOOR)
    if cache is not None:
        cache[key] = (value, est, n_terms)
    return EvalResult(value, est, n_terms, est <= target)


def eval_combo(zc, t_value=0, target_abs_err=1e-6, cache=None) -> EvalResult:
    """Evaluate a zeta combo at a rational t, accumulating error estimates.

    Interpolated and star combos are first rewritten in plain symbols;
    coefficient magnitudes weight the per-index error estimates, which
    add up in absolute value.  The terms share the caller's cache, or one
    fresh dict per call when given none (see eval_mzv).  A coefficient at
    t outside the double range, or whose top power of t is over
    MAX_POWER_BITS bits, is refused with ValueError before any series is
    summed, as is a negative or NaN target_abs_err; so is a value that
    overflows.
    """
    target = _target(target_abs_err)
    zc = zc.to_plain()
    t0 = Fraction(t_value)
    value = _coefficient(zc.scalar, t0, "the constant term")
    terms = [(p, _coefficient(c, t0, "the coefficient of z" + parts_str(p)))
             for p, c in zc.sorted_terms()]
    est = 0.0
    used = 1
    cache = {} if cache is None else cache
    for parts, c in terms:
        if c == 0.0:
            continue
        r = eval_mzv(parts, cache=cache)
        value += c * r.value
        est += abs(c) * r.error_estimate
        used = max(used, r.cutoff_used)
    if not math.isfinite(value):
        raise ValueError("the value is outside the double range at this t")
    # even a combo with no symbols rounds its scalar to a double
    est = max(est, TARGET_FLOOR)
    return EvalResult(value, est, used, est <= target)


def _target(target_abs_err) -> float:
    """The requested error target, floored at TARGET_FLOOR; a negative or
    NaN target is refused."""
    target = float(target_abs_err)
    if not target >= 0.0:
        raise ValueError("target_abs_err must be a nonnegative number, got %r"
                         % target_abs_err)
    return max(target, TARGET_FLOOR)


def _coefficient(poly, t0: Fraction, what: str) -> float:
    """A coefficient polynomial at t0 as a float, rounded once, and refused
    when it is outside the double range.  With int coefficients and t0 =
    num/den it is the int sum of c_d num^d den^(top - d) over den^top: int
    true division rounds correctly, so this is the double, or the
    OverflowError, that float(poly.eval_at(t0)) gives."""
    items = poly.coeffs
    num, den = t0.numerator, t0.denominator
    top = items[-1][0] if items else 0
    if top * math.log2(max(abs(num), den)) > MAX_POWER_BITS:
        raise ValueError("%s has t-degree %d, whose power at this t is over the "
                         "limit of %d bits" % (what, top, MAX_POWER_BITS))
    try:
        if all(type(c) is int for _, c in items):
            return sum(c * num**d * den ** (top - d) for d, c in items) / den**top
        return float(poly.eval_at(t0))
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
