"""Tests for linear combinations of words with polynomial coefficients.

The concatenation product makes these a noncommutative ring; the tests
pin down the module laws, the canonical printing order, and the text and
JSON round trips used by the command line tools.
"""

from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from imzv import (
    HElement,
    QtPoly,
    Word,
    block_product,
    helement_from_json,
    helement_to_json,
    parse_helement,
    tshuffle,
    tshuffle_words,
    zeta_map,
)

import json

from imzv import halg
from imzv.halg import (
    canonical_words,
    from_signed,
    signed_poly,
    signed_str,
    table_json,
    table_str,
    write_text,
)
from imzv.tshuffle import tshuffle_table
from imzv.words import all_words


def _blocks(w):
    """The (letter, exponent) runs of a word, as block_product takes them."""
    return tuple((ch, len(list(run))) for ch, run in groupby(Word(w).letters))

coeffs = st.builds(
    QtPoly,
    st.dictionaries(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-9, max_value=9).map(Fraction),
        max_size=3,
    ),
)
elements = st.dictionaries(
    st.text(alphabet="xy", max_size=4).map(Word), coeffs, max_size=4
).map(HElement)


@given(u=elements, v=elements)
def test_addition_commutes(u, v):
    assert u + v == v + u


@given(u=elements, v=elements, w=elements)
def test_addition_associates(u, v, w):
    assert (u + v) + w == u + (v + w)


@given(u=elements)
def test_subtraction_gives_zero(u):
    assert (u - u).is_zero()
    assert u + HElement.zero() == u


@given(u=elements, v=elements, w=elements)
def test_concatenation_is_bilinear(u, v, w):
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w


@given(u=elements, v=elements, w=elements)
def test_concatenation_associates(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(u=elements)
def test_unit_element(u):
    assert HElement.unit() * u == u
    assert u * HElement.unit() == u


def test_concatenation_of_words():
    assert HElement.from_word("xy") * HElement.from_word("y") == HElement.from_word("xyy")


def test_zero_coefficients_are_dropped():
    u = HElement({Word("xy"): QtPoly.zero(), Word("y"): QtPoly.one()})
    assert list(w for w, _ in u.sorted_terms()) == ["y"]


@given(u=elements, c=coeffs)
def test_scaling_distributes(u, c):
    v = u.scale(c)
    for w, cw in u.terms.items():
        assert v.coeff(w) == c * cw


def test_canonical_print_order():
    # length first, then y before x at each position
    u = (
        HElement.from_word("xyxy", 2)
        + HElement.from_word("xxyy", 4)
        + HElement.from_word("xxxy", QtPoly({1: -6}))
    )
    assert str(u) == "2*xyxy + 4*xxyy + (-6*t)*xxxy"


def test_unit_and_zero_strings():
    assert str(HElement.zero()) == "0"
    assert str(HElement.unit()) == "1"
    assert str(HElement.from_word("y", -1)) == "(-1)*y"


@given(u=elements)
def test_str_parse_round_trip(u):
    assert parse_helement(str(u)) == u


@given(u=elements)
def test_json_round_trip(u):
    assert helement_from_json(json.loads(helement_to_json(u))) == u


def test_parse_subtracts_a_term_after_a_top_level_minus():
    want = HElement.from_word("xy") + HElement.from_word("xxy", -2)
    assert parse_helement("xy - 2*xxy") == want
    assert parse_helement("-2*xxy + xy") == want
    assert parse_helement("xy + (-2)*xxy") == want


def test_substitute_t_drops_a_coefficient_that_vanishes_there():
    u = HElement.from_word("xy", QtPoly({0: 1, 1: -1})) + HElement.from_word("y", QtPoly.t())
    assert u.substitute_t(1) == HElement.from_word("y")
    assert u.substitute_t(0) == HElement.from_word("xy")


def test_parse_rejects_bad_letters():
    with pytest.raises(ValueError):
        parse_helement("2*xz + y")


def test_parse_refuses_a_star_that_joins_a_coefficient_to_nothing():
    # the unit word prints as 1, so a term never ends in its star
    assert parse_helement("2*1") == HElement.from_word("", 2)
    for text in ("2*", "xy + 2*", "2 * ", "2**xy", "*xy"):
        with pytest.raises(ValueError):
            parse_helement(text)


@given(u=elements, value=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
def test_substitute_t_is_linear(u, value):
    doubled = u + u
    lhs = doubled.substitute_t(value)
    rhs = u.substitute_t(value) + u.substitute_t(value)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(u=elements, v=elements)
def test_tshuffle_is_the_sum_of_scaled_word_products(u, v):
    expected = HElement.zero()
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            expected = expected + tshuffle_words(w1, w2).scale(c1 * c2)
    assert tshuffle(u, v) == expected


def test_tshuffle_drops_cancelled_words_and_keeps_fractions():
    x, y = HElement.from_word("x"), HElement.from_word("y")
    got = tshuffle(x + y, x - y)
    assert got == tshuffle_words("x", "x") - tshuffle_words("y", "y")
    assert Word("yx") not in got.terms
    half = HElement.from_word("y", QtPoly({0: Fraction(1, 2)}))
    assert tshuffle(half, y.scale(2)) == tshuffle_words("y", "y")


def test_a_zero_in_a_signed_table_is_refused():
    # a zero an engine let through would otherwise wrap as the invalid
    # QtPoly(((1, 0),)), which is truthy and prints 0*t
    with pytest.raises(ValueError, match="no zero coefficient"):
        signed_poly(0)
    with pytest.raises(ValueError, match="no zero coefficient"):
        from_signed({"xy": 2, "y": 0})


def test_from_signed_equals_the_checked_constructor():
    table = {"": 3, "xy": -1, "y": -4, "xxy": 2, "yx": 10 ** 30}
    built = HElement(
        {"": 3, "xy": QtPoly({1: -1}), "y": QtPoly({1: -4}), "xxy": 2, "yx": 10 ** 30}
    )
    assert from_signed(table) == built
    assert str(from_signed(table)) == str(built)


def _poly_prefix(c):
    """What the QtPoly route puts before a later word: " + " for 1, " + n*"
    for another positive integer n, " + (c)*" otherwise."""
    mono = c.as_monomial()
    if mono is not None and mono[0] == 0 and mono[1] > 0:
        return " + " if mono[1] == 1 else " + %d*" % mono[1]
    return " + (%s)*" % c


def test_a_pair_prints_as_its_qtpoly_prints():
    # every pair (c0, c1) of parts of c0 + c1*t a signed table writes as
    # one int: (c, 0) as c > 0 and (0, c) as c < 0, for small ints and
    # +-10^30
    values = list(range(1, 13)) + [10 ** 30]
    pairs = [(c, 0) for c in values] + [(0, -c) for c in values]
    for pair in pairs:
        c, signed = QtPoly(dict(enumerate(pair))), pair[0] or pair[1]
        assert signed_poly(signed) == c, pair
        assert signed_str(signed) == str(c), pair
        assert table_str({"y": 1, "xy": signed}, signed_str) == "y" + _poly_prefix(c) + "xy"
        assert table_str({"xy": signed}, signed_str) == str(from_signed({"xy": signed}))
        want = json.dumps([{"word": "xy", "coeff": str(c)}])
        assert table_json({"xy": signed}, signed_str) == want, pair
    signed = dict(zip(("", "x", "y", "xy", "yx", "yy"), (3, -1, 1, -12, 10 ** 30, -2)))
    assert table_str(signed, signed_str) == str(from_signed(signed))
    assert table_json(signed, signed_str) == helement_to_json(from_signed(signed))


def _reference_str(table, text):
    """table_str's reply, each row written in canonical_words order."""
    rows = []
    for w in canonical_words(table):
        c = text(table[w])
        prefix = " + " if c == "1" else " + %s*" % c if c.isdigit() else " + (%s)*" % c
        rows.append(prefix + (w or "1"))
    return write_text(rows)


def _reference_json(table, text):
    return json.dumps([{"word": w or "1", "coeff": text(table[w])} for w in canonical_words(table)])


def test_table_writers_match_the_canonical_order_on_every_small_product():
    # every ordered pair of words of at most 5 letters, the empty word too
    words = list(all_words(5))
    assert len(words) ** 2 == 3969
    for u in words:
        for v in words:
            table = tshuffle_table(u, v)
            assert table_str(table, signed_str) == _reference_str(table, signed_str), (u, v)
            assert table_json(table, signed_str) == _reference_json(table, signed_str), (u, v)


def test_table_writers_keep_the_canonical_order_of_mixed_lengths():
    v = parse_helement("3*xxy + y - 2*xy + (1 - t)*yx + 1 + 5*x - t*yyy")
    assert canonical_words(v.terms) == ["", "y", "x", "yx", "xy", "yyy", "xxy"]
    assert table_str(v.terms, str) == _reference_str(v.terms, str) == str(v)
    assert table_json(v.terms, str) == _reference_json(v.terms, str) == helement_to_json(v)
    for table in ({"": QtPoly.one()}, {"": QtPoly.const(-2)}, {}):
        assert table_str(table, str) == _reference_str(table, str)
        assert table_json(table, str) == _reference_json(table, str)
    assert table_str({"": QtPoly.one()}, str) == "1"
    assert table_json({"": QtPoly.one()}, str) == '[{"word": "1", "coeff": "1"}]'
    assert table_str({}, str) == "0" and table_json({}, str) == "[]"


def test_from_signed_shares_one_coefficient_per_distinct_int():
    table = {"": 3, "xy": -2, "y": 4, "xxy": -2, "yy": 3}
    got = from_signed(table)
    assert len({id(c) for c in got.terms.values()}) == len(set(table.values())) == 3
    for w, c in table.items():
        for w2, c2 in table.items():
            assert (got.terms[w] is got.terms[w2]) == (c == c2)


def test_products_share_one_coefficient_per_distinct_pair_across_the_process():
    cache = {}
    prod = tshuffle_words("xxyxy", "xyxy", cache)
    other = tshuffle_words("xxyy", "xyxxy", cache)
    again = tshuffle_words("xxyxy", "xyxy", cache)
    assert again == prod
    common = [w for w in other.terms if w in prod.terms]
    assert common
    for w in common:
        if prod.terms[w] == other.terms[w]:
            assert prod.terms[w] is other.terms[w]
    for w, c in again.terms.items():
        assert c is prod.terms[w]
    # no memo in common, another engine: the same coefficient objects
    fresh = tshuffle_words("xxyy", "xyxxy")
    assert fresh == other
    assert all(c is other.terms[w] for w, c in fresh.terms.items())
    blocks = block_product(_blocks("xxyy"), _blocks("xyxxy"))
    assert all(c is other.terms[w] for w, c in blocks.terms.items())


def test_the_coefficient_table_is_emptied_once_full(monkeypatch):
    monkeypatch.setattr(halg, "_MAX_SIGNED", 4)
    monkeypatch.setattr(halg, "_SIGNED_POLYS", halg.Rendered(signed_poly))
    first = from_signed({"x": 1, "y": 2, "xy": 3, "yx": -4})
    assert len(halg._SIGNED_POLYS) == 4
    second = from_signed({"x": 1, "yy": -5})
    assert len(halg._SIGNED_POLYS) == 2
    assert second.terms["x"] == first.terms["x"]
    assert second.terms["x"] is not first.terms["x"]
    assert str(second) == "x + (-5*t)*yy"


def _snapshot(v):
    return [(w, dict(c.coeffs)) for w, c in v.terms.items()]


def test_operations_leave_a_product_with_shared_coefficients_unchanged():
    # prod and other come from one cache, so they share coefficients: no
    # operation on one may change the other
    cache = {}
    prod = tshuffle_words("xxyxy", "xyxy", cache)
    assert len({id(c) for c in prod.terms.values()}) < len(prod.terms)
    other = tshuffle_words("xxyy", "xyxxy", cache)
    before = [_snapshot(prod), _snapshot(other)]
    combo = zeta_map(prod)
    for operation in (
        lambda: prod.scale(QtPoly({0: 2, 1: -1})),
        lambda: prod + prod,
        lambda: prod + other,
        lambda: prod - other,
        lambda: prod - prod,
        lambda: -prod,
        lambda: prod * other,
        lambda: prod.substitute_t(Fraction(1, 2)),
        lambda: other.scale(-3) + other.substitute_t(2),
        lambda: zeta_map(prod),
        lambda: zeta_map(other).scale(QtPoly.t()),
        lambda: combo + combo,
        lambda: combo - zeta_map(other),
        lambda: combo.scale(QtPoly.t()),
        lambda: combo.substitute_t(3),
    ):
        operation()
        assert [_snapshot(prod), _snapshot(other)] == before


def _keys_are_letters(v):
    return v.terms and all(type(w) is str for w in v.terms)


def test_every_producer_keys_terms_by_letters():
    from imzv import closedforms
    from imzv.closedforms import xpow_times_ypow, yy_product_formula
    from imzv.tshuffle import block_product, shuffle_words, split_product

    u = HElement({Word("xy"): 2, Word(""): QtPoly.t(), "y": 1})
    v = tshuffle_words(Word("xxy"), Word("y"))
    produced = [
        u,
        v,
        HElement.unit(),
        HElement.from_word(Word("xy")),
        shuffle_words(Word("xy"), Word("yx")),
        tshuffle(u, v),
        split_product(Word("xyy"), Word("xy"), 2),
        block_product(_blocks("xxyy"), _blocks(Word("xyy"))),
        closedforms.pattern_product((1, 0), (2,)),
        closedforms.height_one_product(2, 2, 1, 1),
        closedforms.expanded_height_one_product(1, 2, 1, 1),
        closedforms.height_two_product(1, 1, 1, 1, 1, 2),
        closedforms.alternating_product_sum(2, 2),
        closedforms.alternating_product_closed_form(2, 2),
        closedforms.alternating_product_weight4_form(2),
        yy_product_formula(2, 3),
        xpow_times_ypow(2, 2),
        parse_helement("2*xyxy + (-6*t)*xxxy - 1"),
        helement_from_json(json.loads(helement_to_json(v))),
        u + v,
        u - v,
        -u,
        u * v,
        u.scale(QtPoly({0: 2, 1: -1})),
        3 * u,
        v.substitute_t(Fraction(1, 2)),
    ]
    for element in produced:
        assert _keys_are_letters(element), element
    assert all(type(w) is str for w, _ in v.sorted_terms())
    # an element built from Word keys equals the engine's, whose keys are
    # plain str: a Word is its letters, so both tables hold the same keys
    assert HElement({Word(w): c for w, c in v.terms.items()}) == v
    assert HElement({Word("xyxy"): 2, Word("xxyy"): 4}) == shuffle_words("xy", "xy")
    assert helement_from_json(json.loads(helement_to_json(v))) == v
    assert parse_helement(str(v)) == v
