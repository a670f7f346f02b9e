"""Byte-identity of the printed products and expansions.

HElement and ZetaCombo render each distinct coefficient object once.  The
references below are plain renderers that print every term on its own:
the sorted QtPoly loop, str(c) per term and a sort on (length, letters
with y before x).
Every output must match them byte for byte, text and JSON.
"""

import json
from fractions import Fraction

from imzv import (
    EMPTY_WORD,
    HElement,
    Index,
    QtPoly,
    Word,
    admissible_indices,
    admissible_words,
    expand_interpolation,
    helement_to_json,
    star_view,
    tshuffle_words,
    zeta_combo_to_json,
    zeta_map,
)
from imzv.zeta import _SYMBOL, INTERPOLATED, PLAIN, ZetaCombo


def _loop_str(c):
    """Reference QtPoly text: one signed piece per degree, ascending."""
    coeffs = dict(c.coeffs)
    if not coeffs:
        return "0"
    pieces = []
    for deg in sorted(coeffs):
        k = coeffs[deg]
        mag = _mag_str(abs(k), deg)
        if not pieces:
            pieces.append(mag if k > 0 else "-" + mag)
        else:
            pieces.append(("+ " if k > 0 else "- ") + mag)
    return " ".join(pieces)


def _mag_str(k, deg):
    if deg == 0:
        return str(k)
    tpart = "t" if deg == 1 else "t^%d" % deg
    if k == 1:
        return tpart
    return "%s*%s" % (k, tpart)


_Y_BEFORE_X = str.maketrans("yx", "ab")


def _word_terms(v):
    """(Word, c) terms in canonical order: a Word prints the empty word as 1."""
    terms = sorted(v.terms.items(),
                   key=lambda item: (len(item[0]), item[0].translate(_Y_BEFORE_X)))
    return [(Word(w), c) for w, c in terms]


def _element_text(v):
    if not v.terms:
        return "0"
    return " + ".join(_word_term_str(w, c) for w, c in _word_terms(v))


def _word_term_str(w, c):
    mono = c.as_monomial()
    if mono is not None and mono[0] == 0 and mono[1] > 0 and mono[1].denominator == 1:
        n = mono[1]
        if n == 1:
            return str(w)
        return "%d*%s" % (n, w)
    return "(%s)*%s" % (_loop_str(c), w)


def _element_json(v):
    return json.dumps([{"word": str(w), "coeff": _loop_str(c)} for w, c in _word_terms(v)])


def _index_terms(zc):
    """(Index, c) terms in canonical order: an Index prints its parts as (2,1)."""
    terms = sorted(zc.terms.items(), key=lambda item: (sum(item[0]), item[0]))
    return [(Index(p), c) for p, c in terms]


def _combo_text(zc):
    pieces = []
    if zc.scalar:
        mono = zc.scalar.as_monomial()
        s = _loop_str(zc.scalar)
        pieces.append(s if mono is not None and mono[0] == 0 else "(%s)" % s)
    for idx, c in _index_terms(zc):
        pieces.append(_zeta_term_str(c, "%s%s" % (_SYMBOL[zc.kind], idx)))
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def _zeta_term_str(c, symbol):
    mono = c.as_monomial()
    if mono is None:
        return "(%s)*%s" % (_loop_str(c), symbol)
    deg, coef = mono
    sign = "-" if coef < 0 else ""
    coef = abs(coef)
    if deg == 0:
        body = symbol if coef == 1 else "%s*%s" % (coef, symbol)
    else:
        tpart = "t" if deg == 1 else "t^%d" % deg
        if coef == 1:
            body = "%s*%s" % (tpart, symbol)
        else:
            body = "%s*%s*%s" % (coef, tpart, symbol)
    return sign + body


def _combo_json(zc):
    return json.dumps({
        "kind": zc.kind,
        "scalar": _loop_str(zc.scalar),
        "terms": [{"index": list(idx.parts), "coeff": _loop_str(c)} for idx, c in _index_terms(zc)],
    })


def _table_pairs():
    words = [EMPTY_WORD] + list(admissible_words(9))
    return [(u, v) for u in words for v in words if len(u) + len(v) <= 9]


def test_products_print_byte_identically():
    pairs = _table_pairs()
    assert len(pairs) == 832
    for u, v in pairs:
        prod = tshuffle_words(u, v)
        assert str(prod) == _element_text(prod), (u, v)
        assert helement_to_json(prod) == _element_json(prod), (u, v)
        combo = zeta_map(prod)
        assert str(combo) == _combo_text(combo), (u, v)
        assert zeta_combo_to_json(combo) == _combo_json(combo), (u, v)


def test_products_with_one_shared_cache_print_as_with_a_fresh_one():
    # every product and its zeta image built through one cache, and every
    # one mapped twice, against the same built with a cache of its own
    cache = {}
    for u, v in _table_pairs():
        fresh = tshuffle_words(u, v, {})
        shared = tshuffle_words(u, v, cache)
        assert list(shared.terms.items()) == list(fresh.terms.items()), (u, v)
        assert str(shared) == str(fresh), (u, v)
        assert helement_to_json(shared) == helement_to_json(fresh), (u, v)
        want = zeta_map(fresh)
        for combo in (zeta_map(shared), zeta_map(shared)):
            assert list(combo.terms.items()) == list(want.terms.items()), (u, v)
            assert combo.scalar == want.scalar, (u, v)
            assert str(combo) == str(want), (u, v)
            assert zeta_combo_to_json(combo) == zeta_combo_to_json(want), (u, v)


COEFFS = [QtPoly.one(), QtPoly({0: 2, 1: -3}), QtPoly({0: Fraction(-3, 2)}), QtPoly({1: -1})]


def test_expansions_print_byte_identically():
    indices = [i for i in admissible_indices(12) if i.depth <= 8]
    assert len(indices) == 1980
    for n, idx in enumerate(indices):
        zc = ZetaCombo(INTERPOLATED, {idx: COEFFS[n % len(COEFFS)]}, n % 3)
        got = expand_interpolation(zc)
        assert str(got) == _combo_text(got), idx
        assert zeta_combo_to_json(got) == _combo_json(got), idx


def test_expanded_sums_of_symbols_print_byte_identically():
    indices = [i for i in admissible_indices(7) if i.depth <= 4]
    zc = ZetaCombo(
        INTERPOLATED, {idx: COEFFS[n % len(COEFFS)] for n, idx in enumerate(indices)}, -2
    )
    got = expand_interpolation(zc)
    assert len({sum(parts) for parts in got.terms}) == 6
    assert str(got) == _combo_text(got)
    assert zeta_combo_to_json(got) == _combo_json(got)


# Fraction and high-degree t coefficients, on words and on indices
ODD = [
    QtPoly({0: Fraction(-1, 3), 7: 2}),
    QtPoly({12: -1}),
    QtPoly({0: Fraction(5, 2), 1: Fraction(-7, 4), 9: Fraction(1, 6)}),
]


def test_edge_case_elements_print_byte_identically():
    unit = tshuffle_words(EMPTY_WORD, EMPTY_WORD)
    elements = [
        HElement.zero(),
        unit,
        tshuffle_words(EMPTY_WORD, Word("xy")),
        tshuffle_words(Word("xyy"), EMPTY_WORD),
        HElement({"": ODD[0], "xy": ODD[1], "yxx": ODD[2], "y": Fraction(3, 2)}),
    ]
    assert helement_to_json(elements[0]) == "[]"
    assert helement_to_json(unit) == '[{"word": "1", "coeff": "1"}]'
    for v in elements:
        assert str(v) == _element_text(v), v
        assert helement_to_json(v) == _element_json(v), v


def test_edge_case_combos_print_byte_identically():
    combos = [
        ZetaCombo.zero(),
        ZetaCombo(INTERPOLATED),
        ZetaCombo(PLAIN, {}, Fraction(-3, 2)),
        ZetaCombo(INTERPOLATED, {}, QtPoly({0: 1, 1: -1})),
        zeta_map(tshuffle_words(EMPTY_WORD, EMPTY_WORD)),
        star_view(zeta_map(tshuffle_words(Word("xy"), Word("xxy")))),
        ZetaCombo(PLAIN, {(2, 1): ODD[0], (3,): ODD[1], (2, 1, 1, 2): ODD[2]}, ODD[2]),
    ]
    assert zeta_combo_to_json(combos[0]) == '{"kind": "plain", "scalar": "0", "terms": []}'
    for zc in combos:
        assert str(zc) == _combo_text(zc), zc
        assert zeta_combo_to_json(zc) == _combo_json(zc), zc
