"""Exact coefficients: sparse polynomials in t over Q, and binomials.

QtPoly is a sparse polynomial in the single variable t, stored as a
degree -> coefficient map with no zero entries.  An integral coefficient
is a Python int and any other one a fractions.Fraction in lowest terms,
so the word products, which all lie in Z[t], never build a Fraction.
Fractions enter only through parsing and eval_at.  Since Fraction(n)
equals, hashes and prints like n, the split is invisible from outside.

A QtPoly never changes after it is built: every operation returns a new
polynomial, and make_qtpoly takes ownership of the table it wraps, which
nobody may mutate afterwards.  So one QtPoly may be shared as the
coefficient of many terms, and the product engines share one per
distinct coefficient.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# The only spaces any parser accepts around or between tokens: the ASCII
# ones (string.whitespace), so no other script's space pads or separates a
# token.  Parsers strip with SPACES and match SPACE_CLASS in their regular
# expressions.
SPACES = " \t\n\r\x0b\x0c"
SPACE_CLASS = "[%s]" % re.escape(SPACES)


def binom(n: int, k: int):
    """Binomial coefficient C(n, k), equal to 0 outside 0 <= k <= n.

    The vanishing convention matters: many of the closed-form sums in this
    package silently rely on out-of-range binomials dropping terms.
    """
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def _exact(c):
    """An exact coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def make_qtpoly(table: dict) -> "QtPoly":
    """Wrap a degree -> coefficient table that is already clean (no zero
    entries, no negative degrees, integral values as int) without
    copying or re-checking it; nobody may mutate the table afterwards."""
    res = object.__new__(QtPoly)
    res.coeffs = table
    return res


class QtPoly:
    """A polynomial in t with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        table = {}
        if coeffs:
            for deg, c in coeffs.items():
                c = _exact(c)
                if c != 0:
                    if deg < 0:
                        raise ValueError("negative t-degree")
                    table[deg] = c
        self.coeffs = table

    @classmethod
    def const(cls, c) -> "QtPoly":
        return cls({0: c})

    @classmethod
    def zero(cls) -> "QtPoly":
        return make_qtpoly({})

    @classmethod
    def one(cls) -> "QtPoly":
        return make_qtpoly({0: 1})

    @classmethod
    def t(cls, power: int = 1) -> "QtPoly":
        return cls({power: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree in t; the zero polynomial reports -1."""
        return max(self.coeffs) if self.coeffs else -1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QtPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QtPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            s = out.get(deg, 0) + c
            if s:
                out[deg] = s if type(s) is int else _exact(s)
            else:
                out.pop(deg, None)
        return make_qtpoly(out)

    __radd__ = __add__

    def __neg__(self):
        return make_qtpoly({deg: -c for deg, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                s = out.get(d, 0) + c1 * c2
                if s:
                    out[d] = s if type(s) is int else _exact(s)
                else:
                    del out[d]
        return make_qtpoly(out)

    __rmul__ = __mul__

    def eval_at(self, t0) -> Fraction:
        """Evaluate exactly at a rational point, one power per stored term,
        so a sparse polynomial of high degree costs no more than its terms."""
        t0 = Fraction(t0)
        return sum((c * t0 ** d for d, c in self.coeffs.items()), Fraction(0))

    def is_const(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def as_monomial(self):
        """Return (degree, coeff) if this is a single term, else None."""
        if len(self.coeffs) == 1:
            deg, c = next(iter(self.coeffs.items()))
            return deg, c
        return None

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for deg in sorted(self.coeffs):
            c = self.coeffs[deg]
            mag = _term_str(abs(c), deg)
            if not pieces:
                pieces.append(mag if c > 0 else "-" + mag)
            else:
                pieces.append(("+ " if c > 0 else "- ") + mag)
        return " ".join(pieces)

    def __repr__(self):
        return "QtPoly(%s)" % str(self)


def _coerce(value):
    if isinstance(value, QtPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return QtPoly.const(value)
    return None


def _term_str(c: Fraction, deg: int) -> str:
    if deg == 0:
        return str(c)
    tpart = "t" if deg == 1 else "t^%d" % deg
    if c == 1:
        return tpart
    return "%s*%s" % (c, tpart)


# Spaces may separate the tokens of a term but never split a number, and
# numbers are ASCII digits only.
_TERM_RE = re.compile(
    r"""^{s}*
        (?:(?P<num>[0-9]+)(?:{s}*/{s}*(?P<den>[0-9]+))?{s}*\*?{s}*)?   # optional rational factor
        (?:(?P<t>t)(?:{s}*\^{s}*(?P<pow>[0-9]+))?)?                    # optional t power
        {s}*$""".format(s=SPACE_CLASS),
    re.VERBOSE,
)


def signed_pieces(s: str):
    """Split a printed sum on its top-level + and - signs, respecting
    parentheses: yields (sign, text) per term, sign 1 or -1."""
    depth = 0
    start = 0
    sign = 1
    first = True
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and not first:
            yield sign, s[start:i]
            sign = 1 if ch == "+" else -1
            start = i + 1
        if ch not in SPACES:
            if first and ch in "+-" and depth == 0:
                sign = 1 if ch == "+" else -1
                start = i + 1
            first = False
    yield sign, s[start:]


def parse_qtpoly(text: str) -> QtPoly:
    """Parse strings like "2 - 3*t + t^2", "-t", "1/2", "0", "-(1+t)": a
    signed sum of terms, each a monomial or a parenthesised sum."""
    if not text.strip(SPACES):
        raise ValueError("empty polynomial")
    out = {}
    for sign, piece in signed_pieces(text):
        piece = piece.strip(SPACES)
        if piece.startswith("(") and piece.endswith(")"):
            terms = parse_qtpoly(piece[1:-1]).coeffs.items()
        else:
            m = _TERM_RE.match(piece)
            if not m or (m.group("num") is None and m.group("t") is None):
                raise ValueError("cannot parse polynomial term %r" % piece)
            deg = 0
            if m.group("t"):
                deg = int(m.group("pow")) if m.group("pow") else 1
            num, den = m.group("num", "den")
            terms = [(deg, Fraction(int(num or 1), int(den or 1)))]
        for deg, c in terms:
            out[deg] = out.get(deg, 0) + sign * c
    return QtPoly(out)
