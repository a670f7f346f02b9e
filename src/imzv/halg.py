"""The word algebra over Q[t]: linear combinations of words with concatenation.

HElement stores a word -> QtPoly map with no zero coefficients.  Words print
in canonical order (length first, then y before x), which for fixed weight
matches ascending index order on the zeta side.

Both the word and the zeta side sum key -> QtPoly tables with accumulate,
evaluate them at a value of t with specialize, and split printed sums
with coeffs.signed_pieces.

Word products lie in Z[t] with t-degree at most one, so the product
engines sum into a pair table, str word -> (c0, c1) meaning c0 + c1*t,
with add_pair and wrap it once with from_pairs.

Coefficients and words are shared, never mutated: from_pairs gives all
words with the same pair one QtPoly, and, given a product engine's cache,
gives every element wrapped with that cache one Word per distinct word
and one QtPoly per distinct pair.  Every operation here builds new terms
and coefficients instead of changing old ones, so no table wrapped by
make_qtpoly or make_helement, and no object shared across products, may
be mutated afterwards; a Word only fills its own index slot once, which
equality, hashing and printing never read.  Both printed forms render
each distinct coefficient object once (render_terms).
"""

from __future__ import annotations

import json

from .coeffs import QtPoly, make_qtpoly, parse_qtpoly, signed_pieces
from .words import EMPTY_WORD, Word, _make_word, parse_word


def accumulate(table: dict, key, c: QtPoly):
    """Add the coefficient c to table[key] in place, dropping a zero sum."""
    old = table.get(key)
    if old is not None:
        c = old + c
    if c:
        table[key] = c
    elif old is not None:
        del table[key]


def specialize(terms: dict, t0) -> dict:
    """key -> constant QtPoly of each coefficient of terms at t0, with the
    keys whose coefficient vanishes there dropped."""
    out = {}
    for key, c in terms.items():
        v = c.eval_at(t0)
        if v:
            out[key] = QtPoly.const(v)
    return out


def add_pair(table: dict, w: str, c0: int, c1: int):
    """Add c0 + c1*t to the pair table's entry for w in place; a zero pair
    is never stored, so a sum that cancels deletes the word."""
    old = table.get(w)
    if old is not None:
        c0 += old[0]
        c1 += old[1]
    if c0 or c1:
        table[w] = (c0, c1)
    elif old is not None:
        del table[w]


# The entry a product engine's memo reserves for from_pairs.  A str never
# equals the (u, v) and (u, v, 0) tuple keys of the engines' own entries.
_SHARED = "from_pairs"


def from_pairs(table: dict, cache: dict | None = None) -> "HElement":
    """Wrap a pair table built by add_pair (no zero pairs, words of x's and
    y's built from checked words) as an HElement, with one QtPoly for each
    distinct pair, shared by all its words.

    With a cache, one Word per distinct word and one QtPoly per distinct
    pair are kept in it and shared by every element wrapped with it."""
    if cache is None:
        words, polys = {}, {}
    else:
        shared = cache.get(_SHARED)
        if shared is None:
            shared = cache[_SHARED] = ({}, {})
        words, polys = shared
    terms = {}
    for w, pair in table.items():
        c = polys.get(pair)
        if c is None:
            c0, c1 = pair
            if not c1:
                coeffs = {0: c0}
            else:
                coeffs = {0: c0, 1: c1} if c0 else {1: c1}
            c = polys[pair] = make_qtpoly(coeffs)
        word = words.get(w)
        if word is None:
            word = words[w] = _make_word(w)
        terms[word] = c
    return make_helement(terms)


def render_terms(items, render) -> list:
    """(key, render(c)) for each (key, c) of items, calling render once per
    distinct coefficient object."""
    text = {}
    return [
        (key, text[i] if (i := id(c)) in text else text.setdefault(i, render(c)))
        for key, c in items
    ]


def make_helement(terms: dict) -> "HElement":
    """Wrap a Word -> nonzero QtPoly table without copying or re-checking it."""
    res = object.__new__(HElement)
    res.terms = terms
    return res


class HElement:
    """A finite Q[t]-linear combination of words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        table = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(c, QtPoly):
                    c = QtPoly.const(c)
                if not c.is_zero():
                    table[Word(w)] = c
        self.terms = table

    @classmethod
    def zero(cls) -> "HElement":
        return cls()

    @classmethod
    def unit(cls) -> "HElement":
        return cls({EMPTY_WORD: QtPoly.one()})

    @classmethod
    def from_word(cls, w, coeff=1) -> "HElement":
        return cls({Word(w): coeff if isinstance(coeff, QtPoly) else QtPoly.const(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, HElement):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, HElement):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(out, w, c)
        return make_helement(out)

    def __neg__(self):
        return make_helement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, HElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "HElement":
        if not isinstance(c, QtPoly):
            c = QtPoly.const(c)
        if c.is_zero():
            return HElement.zero()
        return make_helement({w: new for w, old in self.terms.items() if (new := old * c)})

    def __rmul__(self, c):
        if isinstance(c, HElement):
            return NotImplemented
        return self.scale(c)

    def __mul__(self, other):
        """Concatenation product, extended bilinearly."""
        if not isinstance(other, HElement):
            return self.scale(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return make_helement(out)

    def coeff(self, w) -> QtPoly:
        return self.terms.get(Word(w), QtPoly.zero())

    def sorted_terms(self):
        """Terms in canonical order: length first, then y before x.  Within
        one length y before x is reverse alphabetical order, so one reverse
        sort on (-length, letters) gives it, compared in C; distinct words
        never tie, so the comparison never reaches the word or coefficient."""
        rows = [(-len(s := w.letters), s, w, c) for w, c in self.terms.items()]
        rows.sort(reverse=True)
        return [(w, c) for _, _, w, c in rows]

    def substitute_t(self, t0) -> "HElement":
        """Evaluate every coefficient at a rational t value."""
        return make_helement(specialize(self.terms, t0))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            p + str(w) for w, p in render_terms(self.sorted_terms(), _coeff_prefix)
        )

    def __repr__(self):
        return "HElement(%s)" % str(self)

def _coeff_prefix(c: QtPoly) -> str:
    """What a printed term puts before its word: nothing for 1, "n*" for
    another positive integer n, "(c)*" otherwise."""
    mono = c.as_monomial()
    if mono is not None and mono[0] == 0 and mono[1] > 0 and mono[1].denominator == 1:
        return "" if mono[1] == 1 else "%d*" % mono[1]
    return "(%s)*" % c


def parse_helement(text: str) -> HElement:
    """Parse the textual form, e.g. "2*xyxy + 4*xxyy + (-6*t)*xxxy"; a term
    after a top-level "-" is subtracted, so "xy - 2*xxy" is xy + (-2)*xxy."""
    s = text.strip()
    out = {}
    if s == "0":
        return make_helement(out)
    for sign, piece in signed_pieces(s):
        piece = piece.strip()
        if not piece:
            raise ValueError("cannot parse element %r" % text)
        if "*" in piece:
            cpart, _, wpart = piece.rpartition("*")
            coeff = parse_qtpoly(cpart)
        else:
            coeff, wpart = QtPoly.one(), piece
        if sign < 0:
            coeff = -coeff
        accumulate(out, parse_word(wpart), coeff)
    return make_helement(out)


def helement_from_json(obj) -> HElement:
    out = {}
    for rec in obj:
        accumulate(out, parse_word(rec["word"]), parse_qtpoly(rec["coeff"]))
    return make_helement(out)


def json_str(c) -> str:
    """str(c) as a JSON string."""
    return json.dumps(str(c))


def helement_to_json(v: HElement) -> str:
    """The JSON list of {"word", "coeff"} rows in canonical order, written
    directly: a word is x's and y's, or 1, so it needs no escaping."""
    return "[%s]" % ", ".join([
        '{"word": "%s", "coeff": %s}' % (w.letters or "1", q)
        for w, q in render_terms(v.sorted_terms(), json_str)
    ])
