"""Linear combinations of zeta values and the word-to-zeta map.

A ZetaCombo is a finite Q[t]-linear combination of zeta symbols plus a
scalar part.  Its terms map each symbol's tuple of index parts to its
coefficient; an Index, a tuple checked when built, is an index where
it enters or leaves the program.  Its ``kind`` records which family the
symbols denote:

* ``"interpolated"`` -- the one-parameter family z^t(l1,...,ln) that is
  the plain value at t=0 and the star value at t=1,
* ``"plain"``        -- ordinary values with strict summation,
* ``"star"``         -- star values with non-strict summation.

A kind's symbol is the sum of plain ones over every way of adding
together adjacent parts, a weight s per addition (Yamamoto, J. Algebra
385, 2013): s = t, 0 and 1 for the three kinds.  ZetaCombo.to_plain
applies that rewrite, S_s; S_s after S_r is S_(s+r).

Combos of different kinds never mix: adding a plain combo to a star
combo raises instead of producing a meaningless hybrid.  The map from
admissible words sends z_{l1}...z_{ln} to the symbol for (l1,...,ln)
and the empty word to the scalar 1.
euler_decomposition states the depth-one product z^t(i)*z^t(j) as an
interpolated combo, pinned to the t-shuffle oracle by the euler suite.
"""

from __future__ import annotations

import re

from .coeffs import SPACE_CLASS, SPACES, QtPoly, binom, parse_qtpoly, signed_pieces
from .halg import HElement, Rendered, accumulate, specialize, write_json, write_text
from .words import Index, admissible_index_parts, admissible_parts, parse_index, parts_str
from . import closedforms

INTERPOLATED = "interpolated"
PLAIN = "plain"
STAR = "star"

_KINDS = (INTERPOLATED, PLAIN, STAR)
_SYMBOL = {INTERPOLATED: "z", PLAIN: "z", STAR: "zs"}

# Largest number of merge patterns _fuse builds for one combo, summed over
# its symbols.  2^17 is one symbol of depth 18, about 1.6 s of expansion on
# a 2-core Xeon VM under Python 3.11; each further part doubles the cost.
MAX_PATTERNS = 1 << 17


def _make_combo(kind, terms: dict, scalar: QtPoly) -> "ZetaCombo":
    """Wrap a clean parts -> nonzero QtPoly table without re-checking it."""
    out = object.__new__(ZetaCombo)
    object.__setattr__(out, "kind", kind)
    object.__setattr__(out, "terms", terms)
    object.__setattr__(out, "scalar", scalar)
    return out


def _known_kind(kind):
    if kind not in _KINDS:
        raise ValueError("unknown combo kind %r" % (kind,))
    return kind


class ZetaCombo:
    """A scalar plus a Q[t]-linear combination of admissible zeta symbols.

    terms maps the tuple of parts of each symbol's index to its nonzero
    coefficient.  The constructor takes keys given as an Index or its
    parts, checks each one and stores its parts, a plain tuple; an Index
    and a tuple with the same parts are one key."""

    __slots__ = ("kind", "scalar", "terms")

    def __init__(self, kind=PLAIN, terms=None, scalar=0):
        _known_kind(kind)
        clean = {}
        for idx, c in (terms or {}).items():
            accumulate(clean, admissible_index_parts(idx),
                       c if isinstance(c, QtPoly) else QtPoly.const(c))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "terms", clean)
        s = scalar if isinstance(scalar, QtPoly) else QtPoly.const(scalar)
        object.__setattr__(self, "scalar", s)

    def __setattr__(self, name, value):
        raise AttributeError("ZetaCombo is immutable")

    @classmethod
    def zero(cls, kind=PLAIN) -> "ZetaCombo":
        return cls(kind)

    def is_zero(self) -> bool:
        return not self.terms and self.scalar.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, ZetaCombo):
            return (
                self.kind == other.kind
                and self.scalar == other.scalar
                and self.terms == other.terms
            )
        return NotImplemented

    def _check_kind(self, other):
        if self.kind != other.kind:
            raise ValueError(
                "cannot combine %s and %s zeta combos" % (self.kind, other.kind)
            )

    def __add__(self, other):
        if not isinstance(other, ZetaCombo):
            return NotImplemented
        self._check_kind(other)
        terms = dict(self.terms)
        for parts, c in other.terms.items():
            accumulate(terms, parts, c)
        return _make_combo(self.kind, terms, self.scalar + other.scalar)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, ZetaCombo):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "ZetaCombo":
        c = c if isinstance(c, QtPoly) else QtPoly.const(c)
        terms = {parts: p for parts, p0 in self.terms.items() if (p := p0 * c)}
        return _make_combo(self.kind, terms, self.scalar * c)

    def __rmul__(self, c):
        return self.scale(c)

    def coeff(self, idx) -> QtPoly:
        """The coefficient of an index, given as an Index or its parts."""
        return self.terms.get(Index(idx), QtPoly.zero())

    def sorted_terms(self):
        """(parts, coefficient) terms in canonical order (_canonical)."""
        return [(p, c) for _, p, c in _canonical(self.terms)]

    def to_plain(self) -> "ZetaCombo":
        """The same combo in plain symbols, its coefficients and scalar
        untouched: S_s of its terms for its kind's fusion weight s."""
        return _make_combo(PLAIN, _fuse(self.terms, _FUSION[self.kind]), self.scalar)

    def substitute_t(self, t0) -> "ZetaCombo":
        """The plain combo with this combo's value at a rational t0: its
        symbols written in plain ones, then every coefficient evaluated
        at t0."""
        terms = specialize(self.to_plain().terms, t0)
        return _make_combo(PLAIN, terms, QtPoly.const(self.scalar.eval_at(t0)))

    def __str__(self):
        sym = _SYMBOL[self.kind]
        prefix = Rendered(_zeta_prefix)
        rows = [prefix[c] + sym + parts_str(p) for _, p, c in _canonical(self.terms)]
        return write_text(rows, _scalar_str(self.scalar) if self.scalar else "")

    def __repr__(self):
        return "ZetaCombo(%s: %s)" % (self.kind, self)


def _canonical(terms: dict) -> list:
    """(weight, parts, c) for each term of a parts -> c table, in canonical
    order: weight first, then parts lexicographically.  One sort of these
    tuples, compared in C; distinct parts never tie, so the comparison
    never reaches the coefficient."""
    rows = [(sum(p), p, c) for p, c in terms.items()]
    rows.sort()
    return rows


def _scalar_str(c: QtPoly) -> str:
    mono = c.as_monomial()
    if mono is not None and mono[0] == 0:
        return str(c)
    return "(%s)" % c


def _zeta_prefix(c: QtPoly) -> str:
    """What a later printed term puts before its symbol: " + " or " - ",
    then the coefficient, with its sign folded out front when c is a
    monomial."""
    mono = c.as_monomial()
    if mono is None:
        return " + (%s)*" % c
    deg, coef = mono
    out = " - " if coef < 0 else " + "
    if abs(coef) != 1:
        out += "%s*" % abs(coef)
    if deg:
        out += "t*" if deg == 1 else "t^%d*" % deg
    return out


def _combo_json(kind, scalar, rows: list) -> str:
    """The JSON object of kind, scalar and terms, the terms' rows already
    written.  A kind is a plain word and a printed coefficient holds only
    digits, /, t, ^, *, +, - and spaces, so neither needs escaping."""
    return '{"kind": "%s", "scalar": "%s", "terms": %s}' % (kind, scalar, write_json(rows))


def zeta_map(v: HElement, kind=INTERPOLATED) -> ZetaCombo:
    """Apply the zeta symbol map to an element whose words are all admissible.

    Raises ValueError when some word is nonempty and not admissible, since
    such words carry no convergent zeta value.  Each key comes from
    words.admissible_parts, which keeps the parts it computes.
    """
    _known_kind(kind)
    # distinct words give distinct parts, so every key is set once
    terms = {admissible_parts(w): c for w, c in v.terms.items() if w}
    return _make_combo(kind, terms, v.terms.get("") or QtPoly.zero())


# The fusion weight of each kind, the one place a kind's meaning is stated.
_FUSION = {INTERPOLATED: QtPoly.t(), PLAIN: QtPoly.zero(), STAR: QtPoly.one()}


def _check_patterns(patterns: int):
    if patterns > MAX_PATTERNS:
        raise ValueError(
            "expansion needs %d merge patterns, more than the limit of %d"
            % (patterns, MAX_PATTERNS)
        )


def _powers(c: QtPoly, s: QtPoly, n: int) -> list:
    """c, c*s, ..., c*s^(n-1): the coefficient of a pattern by its additions."""
    out = [c]
    for _ in range(1, n):
        out.append(out[-1] * s)
    return out


def _fusion_rows(parts: tuple, head, piece, sep, ends: list) -> list:
    """The 2^(n-1) ways of keeping apart or adding together the adjacent
    parts of a depth-n index, one row each in canonical order: ascending
    parts, at one weight.  A row with k additions is head, then its sums,
    each written piece(sum) and separated by sep, then ends[k].  _fuse
    writes a sum as a one-part tuple, write_expansion as its digits.

    The index splits into a left half, parts[:m], and a right half.  A
    left state keeps or adds each gap of the left half: it holds the
    closed sums written after head, the open last sum and its additions a.
    A right state does the same for the right half: its open first sum f,
    the closed sums after it, each written after sep, and its additions b.
    Every row is a left state, the middle gap kept or added, and a right
    state, most significant first; so the rows come in canonical order,
    since keeping a gap gives a smaller part than adding it.

    A row is one join of a left prefix with a right text.  When the middle
    gap is kept, the prefix closes the open sum too, and the text, the
    right state's sums and ends[k], is built once per left additions a;
    when it is added, the prefix is the closed sums, and the text, which
    starts with the open sum plus f, is built once per (open sum, a).
    Sums of positive parts are positive, so no row needs a check."""
    n = len(parts)
    if n == 1:
        return [head + piece(parts[0]) + ends[0]]
    m = n // 2
    left = [(head, parts[0], 0)]
    for p in parts[1:m]:
        grown = []
        add = grown.append
        for closed, run, a in left:
            add((closed + piece(run) + sep, p, a))
            add((closed, run + p, a + 1))
        left = grown
    # sep[:0] is the empty text or tuple: no closed sum yet
    right = [(parts[-1], sep[:0], 0)]
    for p in reversed(parts[m:-1]):
        right = ([(p, sep + piece(f) + rest, b) for f, rest, b in right]
                 + [(p + f, rest, b + 1) for f, rest, b in right])
    kept = [(piece(f) + rest, b) for f, rest, b in right]
    kept_texts = {}
    added_texts = {}
    rows = []
    extend = rows.extend
    for closed, run, a in left:
        texts = kept_texts.get(a)
        if texts is None:
            texts = kept_texts[a] = [text + ends[a + b] for text, b in kept]
        prefix = closed + piece(run) + sep
        extend([prefix + text for text in texts])
        texts = added_texts.get((run, a))
        if texts is None:
            texts = added_texts[run, a] = [piece(run + f) + rest + ends[a + b + 1]
                                           for f, rest, b in right]
        extend([closed + text for text in texts])
    return rows


def _one_part(run: int) -> tuple:
    return (run,)


def _fuse(terms: dict, s: QtPoly) -> dict:
    """S_s: rewrite a parts -> QtPoly table over the 2^(n-1) ways of
    either keeping or adding together adjacent parts of each index of
    depth n, with a factor s per addition.  S_0 is the identity and
    returns the table itself.

    The rows of each symbol come from _fusion_rows, the enumerator the
    command line prints an expansion from, as tuples of parts joined from
    a left and a right half, and sum into a new parts table; a row of
    depth d has n - d additions.  Refuses a table with more than
    MAX_PATTERNS patterns in all before building any.
    """
    if not s:
        return terms
    _check_patterns(sum(1 << (len(parts) - 1) for parts in terms))
    out = {}
    for parts, c in terms.items():
        n = len(parts)
        scaled = _powers(c, s, n)
        for key in _fusion_rows(parts, (), _one_part, (), [()] * n):
            accumulate(out, key, scaled[n - len(key)])
    return out


def write_expansion(idx: Index, as_json: bool) -> str:
    """What expand_interpolation(interpolated_symbol(idx.parts)) prints, as
    text or as JSON, written from the rows of _fusion_rows without building
    the combo: one symbol's rows are already in canonical order.  A JSON
    row is one join of a left prefix with a right text that ends in the
    coefficient t^k of its k additions.  A text row starts with its
    coefficient, so it takes one more join: its k is the depth less its
    number of sums, which is one more than its commas.  Each t^k is
    written once.  Refuses a non-admissible index and one over
    MAX_PATTERNS before building any row."""
    parts = admissible_index_parts(idx)
    depth = len(parts)
    _check_patterns(1 << (depth - 1))
    powers = ["1", "t"] + ["t^%d" % k for k in range(2, depth)]
    if as_json:
        # a row is {"index": [2, 1], "coeff": "t^k"}
        ends = ['], "coeff": "%s"}' % p for p in powers]
        return _combo_json(PLAIN, "0", _fusion_rows(parts, '{"index": [', str, ", ", ends))
    # a row is " + t^k*z(2,1)"
    starts = [" + z("] + [" + %s*z(" % p for p in powers[1:]]
    rows = _fusion_rows(parts, "", str, ",", [")"] * depth)
    return write_text([starts[depth - 1 - row.count(",")] + row for row in rows])


def expand_interpolation(zc: ZetaCombo) -> ZetaCombo:
    """Rewrite interpolated symbols as plain ones, a factor t per addition
    of adjacent parts: z^t(2,1) = z(2,1) + t*z(3)."""
    if zc.kind != INTERPOLATED:
        raise ValueError("can only expand an interpolated combo, got %s" % zc.kind)
    return zc.to_plain()


def star_view(zc: ZetaCombo) -> ZetaCombo:
    """Specialize an interpolated combo at t=1 and tag it with star symbols.

    The result is kept apart from plain combos by its kind, so star and
    plain values can never be summed by accident.
    """
    if zc.kind != INTERPOLATED:
        raise ValueError("star view needs an interpolated combo, got %s" % zc.kind)
    return _make_combo(STAR, specialize(zc.terms, 1), QtPoly.const(zc.scalar.eval_at(1)))


def star_expand(zc: ZetaCombo) -> ZetaCombo:
    """Rewrite star symbols as plain ones (every merge pattern, weight 1),
    keeping the coefficients as they are."""
    if zc.kind != STAR:
        raise ValueError("can only star-expand a star combo, got %s" % zc.kind)
    return zc.to_plain()


_COMBO_TERM_RE = re.compile(
    r"^(?P<coeff>.*?)(?P<star>\*?){s}*(?P<sym>zs|z){s}*\((?P<idx>[^()]*)\)$".format(s=SPACE_CLASS)
)


def parse_zeta_combo(text: str) -> ZetaCombo:
    """Parse forms like "2*z(2,2) + 4*z(3,1) - 6*t*z(4)" or "zs(5,1)".

    Plain z(...) symbols give a plain combo, zs(...) a star combo; the two
    may not appear together.  Bare coefficients join the scalar part.
    """
    s = text.strip(SPACES)
    if not s:
        raise ValueError("empty zeta combo")
    if s == "0":
        return ZetaCombo.zero()
    terms = {}
    scalar = QtPoly.zero()
    kinds = set()
    for sign, piece in signed_pieces(s):
        piece = piece.strip(SPACES)
        if not piece:
            raise ValueError("cannot parse zeta combo %r" % text)
        m = _COMBO_TERM_RE.match(piece)
        if m is None:
            scalar = scalar + parse_qtpoly(piece) * QtPoly.const(sign)
            continue
        kinds.add(m.group("sym"))
        cpart = m.group("coeff").strip(SPACES)
        if cpart:
            coeff = parse_qtpoly(cpart)
        elif m.group("star"):
            raise ValueError("cannot parse zeta combo %r: no coefficient before '*'" % text)
        else:
            coeff = QtPoly.one()
        if sign < 0:
            coeff = -coeff
        accumulate(terms, admissible_index_parts(parse_index(m.group("idx"))), coeff)
    if len(kinds) > 1:
        raise ValueError("cannot mix z and zs symbols in one combo")
    kind = STAR if kinds == {"zs"} else PLAIN
    return _make_combo(kind, terms, scalar)


def zeta_combo_from_json(obj) -> ZetaCombo:
    """The combo of a JSON object as zeta_combo_to_json writes it; the
    coefficients of a repeated index add up."""
    terms = {}
    for rec in obj["terms"]:
        accumulate(terms, admissible_index_parts(rec["index"]), parse_qtpoly(rec["coeff"]))
    return _make_combo(_known_kind(obj["kind"]), terms, parse_qtpoly(obj["scalar"]))


def zeta_combo_to_json(zc: ZetaCombo) -> str:
    """The JSON object of kind, scalar and {"index", "coeff"} rows in
    canonical order, written directly: an index prints as its int list."""
    end = Rendered(lambda c: ', "coeff": "%s"}' % c)
    rows = ['{"index": %s%s' % (list(p), end[c]) for _, p, c in _canonical(zc.terms)]
    return _combo_json(zc.kind, zc.scalar, rows)


def interpolated_symbol(parts) -> ZetaCombo:
    """The combo holding the single interpolated symbol for ``parts``."""
    return _make_combo(INTERPOLATED, {admissible_index_parts(parts): QtPoly.one()}, QtPoly.zero())


def alternating_zeta_identity(k: int, cache: dict | None = None):
    """The alternating double-product identity at p = 2 (prop43) as the
    zeta images of cor42's two sides: the word-level alternating sum, by
    the recursive engine on `cache`, and its closed form, zero for odd k.
    Returns the pair (lhs, rhs)."""
    lhs = zeta_map(closedforms.alternating_product_sum(k, 2, cache))
    return lhs, zeta_map(closedforms.alternating_product_weight4_form(k))


def euler_decomposition(i: int, j: int) -> ZetaCombo:
    """Euler decomposition of z^t(i)*z^t(j) into interpolated values:

        sum_{k=2}^{i+j-1} [C(k-1, i-1) + C(k-1, j-1)] z^t(k, i+j-k)
            - t*C(i+j, i) z^t(i+j).

    Its value at t = 0 is the classical decomposition of z(i)*z(j)."""
    if i < 2 or j < 2:
        raise ValueError("need i, j >= 2")
    n = i + j
    # both binomials vanish below k = min(i, j)
    terms = {
        (k, n - k): QtPoly.const(binom(k - 1, i - 1) + binom(k - 1, j - 1))
        for k in range(min(i, j), n)
    }
    terms[(n,)] = QtPoly({1: -binom(n, i)})
    return _make_combo(INTERPOLATED, terms, QtPoly.zero())
