"""Linear combinations of zeta values and the word-to-zeta map.

A ZetaCombo is a finite Q[t]-linear combination of zeta symbols plus a
scalar part.  Its ``kind`` records which family the symbols denote:

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

import json
import re

from .coeffs import SPACE_CLASS, SPACES, QtPoly, binom, parse_qtpoly, signed_pieces
from .halg import (
    HElement,
    accumulate,
    by_identity,
    json_str,
    specialize,
    write_json,
    write_text,
)
from .tshuffle import compositions
from .words import Index, _make_index, index_from_word, parse_index, parts_str
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
    """Wrap a clean Index -> nonzero QtPoly table without re-checking it."""
    out = object.__new__(ZetaCombo)
    object.__setattr__(out, "kind", kind)
    object.__setattr__(out, "terms", terms)
    object.__setattr__(out, "scalar", scalar)
    return out


class ZetaCombo:
    """A scalar plus a Q[t]-linear combination of admissible zeta symbols."""

    __slots__ = ("kind", "scalar", "terms")

    def __init__(self, kind=PLAIN, terms=None, scalar=0):
        if kind not in _KINDS:
            raise ValueError("unknown combo kind %r" % (kind,))
        clean = {}
        for idx, c in (terms or {}).items():
            if not isinstance(idx, Index):
                idx = Index(idx)
            if not idx.admissible:
                raise ValueError("non-admissible index %s in combo" % idx)
            accumulate(clean, idx, c if isinstance(c, QtPoly) else QtPoly.const(c))
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
        for idx, c in other.terms.items():
            accumulate(terms, idx, c)
        return _make_combo(self.kind, terms, self.scalar + other.scalar)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, ZetaCombo):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "ZetaCombo":
        c = c if isinstance(c, QtPoly) else QtPoly.const(c)
        terms = {i: p for i, p0 in self.terms.items() if (p := p0 * c)}
        return _make_combo(self.kind, terms, self.scalar * c)

    def __rmul__(self, c):
        return self.scale(c)

    def coeff(self, idx) -> QtPoly:
        if not isinstance(idx, Index):
            idx = Index(idx)
        return self.terms.get(idx, QtPoly.zero())

    def sorted_terms(self):
        """Terms in canonical order (_canonical)."""
        return [(i, c) for _, _, i, c in _canonical(self.terms)]

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
        return _combo_str(self.kind, self.scalar, self._rows(), by_identity(self.terms))

    def _rows(self) -> list:
        return [(p, id(c)) for _, p, _, c in _canonical(self.terms)]

    def __repr__(self):
        return "ZetaCombo(%s: %s)" % (self.kind, self)


def _canonical(terms: dict) -> list:
    """(weight, parts, index, c) for each term of an Index -> c table, in
    canonical order: weight first, then parts lexicographically.  One sort
    of these tuples, compared in C; distinct indices never tie, so the
    comparison never reaches the index or coefficient."""
    rows = [(sum(p := i.parts), p, i, c) for i, c in terms.items()]
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


def _combo_str(kind, scalar: QtPoly, rows, poly) -> str:
    """How a combo of this kind and scalar prints with rows (parts, c) as
    its terms, in canonical order; poly(c) is the QtPoly of c."""
    sym = _SYMBOL[kind]
    return write_text(
        [(sym + parts_str(parts), c) for parts, c in rows],
        lambda c: _zeta_prefix(poly(c)),
        _scalar_str(scalar) if scalar else "",
    )


def _combo_json(kind, scalar: QtPoly, rows, poly) -> str:
    """The JSON object of kind, scalar and {"index", "coeff"} rows for
    rows (parts, c) in canonical order; poly(c) is the QtPoly of c."""
    return '{"kind": %s, "scalar": %s, "terms": %s}' % (
        json.dumps(kind),
        json_str(scalar),
        write_json(
            [(list(parts), c) for parts, c in rows],
            '{"index": %s, "coeff": %s}',
            lambda c: json_str(poly(c)),
        ),
    )


def zeta_map(v: HElement, kind=INTERPOLATED) -> ZetaCombo:
    """Apply the zeta symbol map to an element whose words are all admissible.

    Raises ValueError when some word is nonempty and not admissible, since
    such words carry no convergent zeta value.  A word's index is computed,
    and its admissibility checked, the first time a Word object is mapped;
    later maps of the same object read the index kept on it.
    """
    if kind not in _KINDS:
        raise ValueError("unknown combo kind %r" % (kind,))
    terms = {}
    scalar = QtPoly.zero()
    # distinct words give distinct indices, so every key is set once; only
    # admissible words keep an index, so a kept one needs no further check
    for w, c in v.terms.items():
        idx = w._index
        if idx is None:
            s = w.letters
            if not s:
                scalar = c
                continue
            if s[0] != "x" or s[-1] != "y":
                raise ValueError("word %s lies outside the admissible span" % w)
            idx = index_from_word(w)
        terms[idx] = c
    return _make_combo(kind, terms, scalar)


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


def _fusion_rows(parts: tuple) -> list:
    """The 2^(n-1) ways of keeping apart or adding together the adjacent
    parts of a depth-n index, as (merged parts, number of additions).

    One depth-first walk from the first part to the last builds each row
    once; it closes the open rightmost sum before adding the next part
    into it, so the rows arrive in canonical order: ascending parts, at
    one weight.  Sums of positive parts are positive, so no row needs a
    check."""
    rows = []
    add = rows.append
    last = len(parts)

    def walk(j, head, run, fused):
        # parts[:j] are placed: head holds the closed sums, run the open one
        if j == last:
            add((head + (run,), fused))
            return
        walk(j + 1, head + (run,), parts[j], fused)
        walk(j + 1, head, run + parts[j], fused + 1)

    walk(1, (), parts[0], 0)
    return rows


def _fuse(terms: dict, s: QtPoly) -> dict:
    """S_s: rewrite an Index -> QtPoly table over the 2^(n-1) ways of
    either keeping or adding together adjacent parts of each index of
    depth n, with a factor s per addition.  S_0 is the identity and
    returns the table itself.

    The rows of each symbol come from _fusion_rows, the same walk the
    command line prints an expansion from, and sum into the table as
    Index keys.  Refuses a table with more than MAX_PATTERNS patterns in
    all before building any.
    """
    if not s:
        return terms
    _check_patterns(sum(1 << (len(idx.parts) - 1) for idx in terms))
    out = {}
    for idx, c in terms.items():
        scaled = _powers(c, s, len(idx.parts))
        for parts, k in _fusion_rows(idx.parts):
            accumulate(out, _make_index(parts), scaled[k])
    return out


def write_expansion(idx: Index, as_json: bool) -> str:
    """What expand_interpolation(interpolated_symbol(idx.parts)) prints, as
    text or as JSON, written from the rows of _fusion_rows without building
    the combo: one symbol's rows are already in canonical order, and a row
    with k additions has the coefficient t^k.  Refuses a non-admissible
    index and one over MAX_PATTERNS before building any row."""
    if not idx.admissible:
        raise ValueError("non-admissible index %s in combo" % idx)
    depth = len(idx.parts)
    _check_patterns(1 << (depth - 1))
    scaled = _powers(QtPoly.one(), _FUSION[INTERPOLATED], depth)
    write = _combo_json if as_json else _combo_str
    return write(PLAIN, QtPoly.zero(), _fusion_rows(idx.parts), scaled.__getitem__)


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
    r"^(?P<coeff>.*?)\*?{s}*(?P<sym>zs|z){s}*\((?P<idx>[^()]*)\)$".format(s=SPACE_CLASS)
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
        cpart = m.group("coeff").strip(SPACES).rstrip("*").strip(SPACES)
        if cpart:
            coeff = parse_qtpoly(cpart)
        else:
            coeff = QtPoly.one()
        if sign < 0:
            coeff = -coeff
        idx = parse_index(m.group("idx"))
        if not idx.admissible:
            raise ValueError("non-admissible index %s in combo" % idx)
        accumulate(terms, idx, coeff)
    if len(kinds) > 1:
        raise ValueError("cannot mix z and zs symbols in one combo")
    kind = STAR if kinds == {"zs"} else PLAIN
    return _make_combo(kind, terms, scalar)


def zeta_combo_from_json(obj) -> ZetaCombo:
    terms = {
        Index(rec["index"]): parse_qtpoly(rec["coeff"]) for rec in obj["terms"]
    }
    return ZetaCombo(obj["kind"], terms, parse_qtpoly(obj["scalar"]))


def zeta_combo_to_json(zc: ZetaCombo) -> str:
    """The JSON object of kind, scalar and {"index", "coeff"} rows in
    canonical order, written directly: an index prints as its int list."""
    return _combo_json(zc.kind, zc.scalar, zc._rows(), by_identity(zc.terms))


def interpolated_symbol(parts) -> ZetaCombo:
    """The combo holding the single interpolated symbol for ``parts``."""
    return ZetaCombo(INTERPOLATED, {Index(parts): QtPoly.one()})


def alternating_zeta_identity(k: int):
    """LHS and stated RHS of the alternating double-product identity at p=2.

    The left side is the word-level alternating sum pushed through the
    zeta map; the right side is its stated closed form, zero for odd k.
    Returns the pair (lhs, rhs).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    lhs = zeta_map(closedforms.alternating_product_sum(k, 2))
    if k % 2 == 1:
        return lhs, ZetaCombo.zero(INTERPOLATED)
    terms = {}
    for aa in compositions(1, k + 2):
        parts = (aa[-1] + 2,) + tuple(q + 1 for q in aa[:-1])
        accumulate(terms, Index(parts), QtPoly.const(2 * (aa[-1] + 1)))
    for i in range(k):
        parts = (2,) + (1,) * i + (3,) + (1,) * (k - i - 1)
        accumulate(terms, Index(parts), QtPoly({1: 2 * (2 * (-1) ** i - 1)}))
    accumulate(terms, Index((4,) + (1,) * k), QtPoly({1: -6}))
    return lhs, _make_combo(INTERPOLATED, terms, QtPoly.zero())


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
        _make_index((k, n - k)): QtPoly.const(binom(k - 1, i - 1) + binom(k - 1, j - 1))
        for k in range(min(i, j), n)
    }
    terms[_make_index((n,))] = QtPoly({1: -binom(n, i)})
    return _make_combo(INTERPOLATED, terms, QtPoly.zero())
