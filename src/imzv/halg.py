"""The word algebra over Q[t]: linear combinations of words with concatenation.

HElement stores a word -> QtPoly map with no zero coefficients, keyed by
the word's letters as a plain str, like every product engine's table.
Words print in canonical order (length first, then y before x), which
for fixed weight matches ascending index order on the zeta side.

Both the word and the zeta side sum key -> QtPoly tables with accumulate,
evaluate them at a value of t with specialize, and split printed sums
with coeffs.signed_pieces.

Word products lie in Z[t] with t-degree at most one, and each word of a
product of two words carries one of two coefficients: a positive
constant on a word with as many x's as both factors, or a negative
multiple of t on a word with one x more, where a rho correction turned a
y into an x.  So every product engine sums plain ints into one signed
table, str word -> int c meaning c if c > 0 and c*t if c < 0, and wraps
it once with from_signed.  A sum whose signs mix is summed as QtPoly
with accumulate.

Coefficients are shared: from_signed takes the QtPoly of each distinct
int from one bounded process-wide table, so every element it wraps holds
one QtPoly per distinct coefficient.  A QtPoly holds a tuple of (degree,
coefficient) items, so sharing one is always safe.
Every operation here builds new terms instead of changing old ones, so
no table wrapped by make_helement may be mutated afterwards.

Every printed sum, of words or of zeta symbols, is framed by one writer
per format, write_text and write_json: each takes the rows already
written, one string per term in canonical order, and adds only the first
term's sign, the 0 of an empty sum and the brackets.  Each row is written
once, where it is produced, from a coefficient text rendered once per
distinct coefficient.  table_str and table_json write the rows of a str
word -> coefficient table, an HElement's (text str) or a product
engine's signed table (text signed_str, straight from the ints), so the
command line prints a product from its signed table without a QtPoly.
"""

from __future__ import annotations

from .coeffs import SPACES, QtPoly, make_qtpoly, parse_qtpoly, signed_pieces
from .words import Word, parse_word


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


def signed_poly(c: int) -> QtPoly:
    """The QtPoly of a signed table's entry c: c if c > 0, c*t if c < 0.
    A signed table holds no zero, so 0 is refused."""
    if c > 0:
        return make_qtpoly(((0, c),))
    if c < 0:
        return make_qtpoly(((1, c),))
    raise ValueError("a signed table holds no zero coefficient")


def from_signed(table: dict) -> "HElement":
    """Wrap a signed table (no zero entries, words of x's and y's built
    from checked words) as an HElement, each distinct int's QtPoly taken
    from one process-wide table and shared by every word and every
    element that has that coefficient."""
    if len(_SIGNED_POLYS) >= _MAX_SIGNED:
        _SIGNED_POLYS.clear()
    return make_helement({w: _SIGNED_POLYS[c] for w, c in table.items()})


def canonical_words(words) -> list:
    """Word strings in canonical order: length first, then y before x,
    which within one length is reverse alphabetical order.  Two stable
    sorts, both compared in C, give it."""
    out = sorted(words, reverse=True)
    out.sort(key=len)
    return out


class Rendered(dict):
    """render(c) for each key c, computed on first lookup: a row's
    coefficient text in the table writers, the QtPoly of a signed int in
    from_signed."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render

    def __missing__(self, c):
        text = self[c] = self.render(c)
        return text


# the QtPoly of each int from_signed has wrapped, emptied when full
_MAX_SIGNED = 2 ** 16
_SIGNED_POLYS = Rendered(signed_poly)


def write_text(rows: list, head: str = "") -> str:
    """The printed sum of rows after head, each row a term's text that
    begins " + " or " - "; the first term of all drops that to nothing or
    to "-".  A sum of no terms prints as 0."""
    body = "".join(rows)
    if head or not body:
        return head + body or "0"
    return body[3:] if body[1] == "+" else "-" + body[3:]


def write_json(rows: list) -> str:
    """The JSON list of rows, each a JSON value already written."""
    return "[%s]" % ", ".join(rows)


def signed_str(c: int) -> str:
    """The printed coefficient of a signed table's entry c: c itself if
    c > 0, c*t if c < 0, as str of its QtPoly writes them."""
    if c > 0:
        return str(c)
    return "-t" if c == -1 else "%d*t" % c


def _word_prefix(text: str) -> str:
    """What a term puts before its word, from its coefficient's text:
    " + " for 1, " + n*" for another positive integer n, " + (c)*"
    otherwise.  Only a positive integer prints as digits alone."""
    if text.isdigit():
        return " + " if text == "1" else " + %s*" % text
    return " + (%s)*" % text


def _one_length(table) -> bool:
    """Whether the words of table all have one length, and it is not 0, as
    every word of u ш_t v has |u| + |v| letters.  Such words are in
    canonical order when reverse sorted, with no sort by length; table_json
    sorts such a table's rows once."""
    lengths = {*map(len, table)}
    return len(lengths) == 1 and 0 not in lengths


def table_str(table: dict, text) -> str:
    """The printed sum of a str word -> coefficient table, as HElement
    prints it; text(c) is the printed coefficient c (str of a QtPoly,
    signed_str of a signed int), run once per distinct c."""
    prefix = Rendered(lambda c: _word_prefix(text(c)))
    return write_text([prefix[table[w]] + (w or "1") for w in canonical_words(table)])


def table_json(table: dict, text) -> str:
    """The JSON list of {"word", "coeff"} rows of a str word -> coefficient
    table, as helement_to_json writes it, text(c) as in table_str.  A word
    is x's and y's, or 1, and a printed coefficient holds only digits, /,
    t, ^, *, +, - and spaces, so neither needs escaping.

    The rows of a one-length table are sorted once as finished strings:
    they share the text before the word, and two of them first differ
    inside their words, so they sort as their words do, and reversed they
    are in canonical order.  Any other table keeps canonical_words."""
    end = Rendered(lambda c: '", "coeff": "%s"}' % text(c))
    if _one_length(table):
        rows = ['{"word": "' + w + end[c] for w, c in table.items()]
        rows.sort(reverse=True)
    else:
        rows = ['{"word": "' + (w or "1") + end[table[w]] for w in canonical_words(table)]
    return write_json(rows)


def make_helement(terms: dict) -> "HElement":
    """Wrap a str word -> nonzero QtPoly table without copying or re-checking it."""
    res = object.__new__(HElement)
    res.terms = terms
    return res


class HElement:
    """A finite Q[t]-linear combination of words.  The constructor checks
    each key, a Word or a str of x's and y's, and stores its letters."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        table = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(c, QtPoly):
                    c = QtPoly.const(c)
                if not c.is_zero():
                    table[Word(w).letters] = c
        self.terms = table

    @classmethod
    def zero(cls) -> "HElement":
        return cls()

    @classmethod
    def unit(cls) -> "HElement":
        return cls({"": QtPoly.one()})

    @classmethod
    def from_word(cls, w, coeff=1) -> "HElement":
        return cls({w: coeff})

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
        """(letters, coefficient) terms in canonical order (canonical_words)."""
        terms = self.terms
        return [(w, terms[w]) for w in canonical_words(terms)]

    def substitute_t(self, t0) -> "HElement":
        """Evaluate every coefficient at a rational t value."""
        return make_helement(specialize(self.terms, t0))

    def __str__(self):
        return table_str(self.terms, str)

    def __repr__(self):
        return "HElement(%s)" % str(self)


def parse_helement(text: str) -> HElement:
    """Parse the textual form, e.g. "2*xyxy + 4*xxyy + (-6*t)*xxxy"; a term
    after a top-level "-" is subtracted, so "xy - 2*xxy" is xy + (-2)*xxy."""
    s = text.strip(SPACES)
    out = {}
    if s == "0":
        return make_helement(out)
    for sign, piece in signed_pieces(s):
        piece = piece.strip(SPACES)
        if not piece:
            raise ValueError("cannot parse element %r" % text)
        if "*" in piece:
            cpart, _, wpart = piece.rpartition("*")
            if not wpart.strip(SPACES):
                raise ValueError("cannot parse element %r: no word after '*'" % text)
            coeff = parse_qtpoly(cpart)
        else:
            coeff, wpart = QtPoly.one(), piece
        if sign < 0:
            coeff = -coeff
        accumulate(out, parse_word(wpart).letters, coeff)
    return make_helement(out)


def helement_from_json(obj) -> HElement:
    out = {}
    for rec in obj:
        accumulate(out, parse_word(rec["word"]).letters, parse_qtpoly(rec["coeff"]))
    return make_helement(out)


def helement_to_json(v: HElement) -> str:
    """The JSON list of {"word", "coeff"} rows in canonical order."""
    return table_json(v.terms, str)
