"""Tests for the rational coefficient polynomials in the deformation variable.

Covers the commutative ring laws, evaluation, the text format, the
binomial helper that the closed-form modules lean on, and the int/Fraction
split of the coefficients: integral ones are Python ints, so word products
and their zeta images never carry a Fraction.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from imzv import (
    HElement,
    QtPoly,
    Word,
    binom,
    parse_helement,
    parse_qtpoly,
    parse_zeta_combo,
    pattern_product,
    tshuffle,
    tshuffle_words,
    yy_product_formula,
    zeta_map,
)


def qtpoly_strategy():
    coeff = st.fractions(
        min_value=-20, max_value=20, max_denominator=8
    )
    return st.dictionaries(st.integers(min_value=0, max_value=5), coeff, max_size=4).map(
        QtPoly
    )


polys = qtpoly_strategy()


@given(a=polys, b=polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(a=polys, b=polys, c=polys)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(a=polys, b=polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(a=polys, b=polys, c=polys)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(a=polys, b=polys, c=polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(a=polys)
def test_additive_inverse(a):
    assert (a - a).is_zero()
    assert a + QtPoly.zero() == a


@given(a=polys)
def test_one_is_multiplicative_identity(a):
    assert a * QtPoly.one() == a


@given(a=polys, value=st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_eval_is_ring_homomorphism(a, value):
    b = QtPoly.t(2) - QtPoly.const(Fraction(1, 2))
    assert (a * b).eval_at(value) == a.eval_at(value) * b.eval_at(value)
    assert (a + b).eval_at(value) == a.eval_at(value) + b.eval_at(value)


@given(a=polys)
def test_str_parse_round_trip(a):
    assert parse_qtpoly(str(a)) == a


def test_known_strings():
    p = QtPoly({0: 2, 1: -3, 2: 1})
    assert str(p) == "2 - 3*t + t^2"
    assert str(QtPoly.zero()) == "0"
    assert str(QtPoly.t()) == "t"
    assert str(QtPoly.const(Fraction(-3, 2))) == "-3/2"


def test_parse_accepts_parens_and_fractions():
    assert parse_qtpoly("(1 - 2*t)") == QtPoly({0: 1, 1: -2})
    assert parse_qtpoly("3/2*t^2") == QtPoly({2: Fraction(3, 2)})
    assert parse_qtpoly("-t") == QtPoly({1: -1})


def test_parse_reads_signed_parenthesised_terms_as_the_combo_parser_does():
    assert parse_qtpoly("2*t - (1)") == QtPoly({0: -1, 1: 2})
    assert parse_qtpoly("-(1+t)") == QtPoly({0: -1, 1: -1})
    assert parse_qtpoly("(1) + (2 - t) - ((t))") == QtPoly({0: 3, 1: -2})
    assert parse_zeta_combo("-(1+t)*z(2)").coeff((2,)) == parse_qtpoly("-(1+t)")
    for text in ("", " ", "()", "1 +", "--1", "2*(1+t)", "(1+t", "1+t)", "(1)(2)"):
        with pytest.raises(ValueError):
            parse_qtpoly(text)


def test_a_zero_denominator_is_refused_naming_its_term():
    for text, term in [("1/0", "1/0"), ("2 + 3/0*t", "3/0*t"), ("-(1 - 0/0*t^2)", "0/0*t^2"),
                       ("5 / 00", "5 / 00")]:
        with pytest.raises(ValueError, match=re.escape("zero denominator in polynomial term %r"
                                                       % term)):
            parse_qtpoly(text)
    for parse, text in [(parse_helement, "1/0*xy"), (parse_zeta_combo, "1/0*z(2)"),
                        (parse_zeta_combo, "z(2) - 1/0")]:
        with pytest.raises(ValueError, match="zero denominator in polynomial term '1/0'"):
            parse(text)


def test_integral_coefficients_are_parsed_without_a_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a Fraction")

    monkeypatch.setattr("imzv.coeffs.Fraction", refuse)
    got = parse_qtpoly("2 - 3*t + t^2 - (4*t^3 + 1)")
    assert got.coeffs == ((0, 1), (1, -3), (2, 1), (3, -4))
    assert all(type(c) is int for _, c in got.coeffs)


def test_spaces_separate_the_tokens_of_a_term_but_never_split_a_number():
    assert parse_qtpoly("1 / 2") == QtPoly.const(Fraction(1, 2))
    assert parse_qtpoly("t ^ 2") == QtPoly.t(2)
    assert parse_qtpoly("2 * t") == parse_qtpoly("2 t") == QtPoly({1: 2})
    assert parse_qtpoly(" 3/4 ") == QtPoly.const(Fraction(3, 4))
    assert parse_qtpoly("-( 1 + t )") == QtPoly({0: -1, 1: -1})
    for text in ("1 2", "1 2*t", "12 t^1 0", "t 2", "1 2/3"):
        with pytest.raises(ValueError, match="cannot parse polynomial term"):
            parse_qtpoly(text)
    with pytest.raises(ValueError, match="cannot parse polynomial term"):
        parse_zeta_combo("1 2*z(2)")


def test_a_star_in_a_term_only_joins_a_factor_to_t():
    assert parse_qtpoly("2*t") == parse_qtpoly("2 * t") == QtPoly({1: 2})
    assert parse_qtpoly("1/2*t^3") == QtPoly({3: Fraction(1, 2)})
    for text in ("2*", "2 *", "1/2*", "2**t", "*t", "t*", "2*t*"):
        with pytest.raises(ValueError, match="cannot parse polynomial term"):
            parse_qtpoly(text)


def test_numbers_are_ascii_digits_only():
    # \d would read each of these as the ASCII number beside it
    for text in ("\u0663*t", "t^\u0662", "\u0663", "1/\u0662", "\uff13*t", "t^\uff12"):
        with pytest.raises(ValueError, match="cannot parse polynomial term"):
            parse_qtpoly(text)
    with pytest.raises(ValueError, match="cannot parse polynomial term"):
        parse_zeta_combo("\u0663*z(2)")


@given(a=polys)
def test_negated_parenthesised_form_parses_to_the_negative(a):
    assert parse_qtpoly("-(%s)" % a) == -a


def test_monomial_introspection():
    assert QtPoly({3: 5}).as_monomial() == (3, Fraction(5))
    assert QtPoly({0: 1, 1: 1}).as_monomial() is None
    assert QtPoly({2: 1}).degree() == 2


def test_eval_at_returns_exact_fraction():
    p = QtPoly({0: 1, 2: Fraction(1, 3)})
    assert p.eval_at(Fraction(1, 2)) == Fraction(13, 12)


def test_eval_at_sparse_high_degree_is_exact():
    # one power per stored term: a Horner pass over every degree would
    # take minutes here
    p = QtPoly({10**6: 3, 1: -1, 0: 1})
    value = p.eval_at(Fraction(1, 2))
    assert value == Fraction(1, 2) + Fraction(3, 2**10**6)
    assert value.denominator == 2**10**6
    assert QtPoly({}).eval_at(5) == 0


def test_binom_small_table():
    assert binom(4, 2) == 6
    assert binom(0, 0) == 1
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1


def test_binom_out_of_range_is_zero():
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 1) == 0


@given(n=st.integers(min_value=0, max_value=12), k=st.integers(min_value=0, max_value=12))
def test_binom_pascal_rule(n, k):
    assert binom(n + 1, k + 1) == binom(n, k) + binom(n, k + 1)


def test_integral_fraction_is_stored_as_int():
    p = QtPoly({0: Fraction(6, 2)})
    assert p == QtPoly({0: 3})
    assert hash(p) == hash(QtPoly({0: 3}))
    assert str(p) == str(QtPoly({0: 3})) == "3"
    assert type(dict(p.coeffs)[0]) is int


def test_const_and_t_wrap_one_clean_item():
    assert QtPoly.const(Fraction(6, 2)).coeffs == ((0, 3),)
    assert type(QtPoly.const(Fraction(6, 2)).coeffs[0][1]) is int
    assert QtPoly.const(Fraction(1, 2)).coeffs == ((0, Fraction(1, 2)),)
    assert QtPoly.const(0).coeffs == QtPoly.const(Fraction(0)).coeffs == ()
    assert QtPoly.const(-4) == QtPoly({0: -4})
    assert QtPoly.t().coeffs == ((1, 1),) and QtPoly.t(0) == QtPoly.one()
    assert QtPoly.t(7) == QtPoly({7: 1})
    with pytest.raises(ValueError):
        QtPoly.t(-1)


def _is_clean(p):
    """coeffs is a tuple sorted by degree, with no zero coefficient and
    every integral coefficient an int."""
    degrees = [deg for deg, _ in p.coeffs]
    return (type(p.coeffs) is tuple and degrees == sorted(set(degrees))
            and all(c != 0 and (type(c) is int or c.denominator != 1) for _, c in p.coeffs))


# t + 1 brings a degree new to the left operand, and (1 + t) * (1 - t) and
# (1 + t) * (1 + t^2) multiply two sums; a monomial factor keeps the order
@given(a=polys, b=polys)
@example(a=QtPoly.t(), b=QtPoly.one())
@example(a=QtPoly({0: 1, 1: 1}), b=QtPoly({0: 1, 1: -1}))
@example(a=QtPoly({0: 1, 1: 1}), b=QtPoly({0: 1, 2: 1}))
@example(a=QtPoly({3: Fraction(1, 2)}), b=QtPoly({0: 2, 1: Fraction(2, 3)}))
def test_every_result_is_a_clean_sorted_tuple_hashed_as_its_value(a, b):
    for p in (a + b, a - b, a * b, -a, QtPoly(dict(reversed(a.coeffs)))):
        assert _is_clean(p), p.coeffs
    for p, q in ((a + b, b + a), (a * b, b * a), (a - b, -(b - a)),
                 (QtPoly(dict(reversed(a.coeffs))), a)):
        assert p == q and hash(p) == hash(q)


@given(st.dictionaries(st.integers(min_value=0, max_value=5),
                       st.integers(min_value=-20, max_value=20), max_size=4))
def test_integral_fractions_equal_and_hash_as_ints(table):
    p = QtPoly(table)
    q = QtPoly({deg: Fraction(2 * c, 2) for deg, c in table.items()})
    assert _is_clean(q) and all(type(c) is int for _, c in q.coeffs)
    assert p == q and hash(p) == hash(q)


def test_storage_is_sparse():
    p = parse_qtpoly("t^99999999")
    assert p.coeffs == ((99999999, 1),)
    assert p.degree() == 99999999


def test_mixed_int_fraction_arithmetic_stays_exact():
    half_t = QtPoly.t() * Fraction(1, 2)
    assert dict(half_t.coeffs) == {1: Fraction(1, 2)}
    assert half_t * 2 == QtPoly.t()
    assert type(dict((half_t * 2).coeffs)[1]) is int
    s = QtPoly.const(Fraction(1, 3)) + QtPoly.const(Fraction(2, 3))
    assert s == QtPoly.one() and type(dict(s.coeffs)[0]) is int
    assert (half_t + half_t - QtPoly.t()).is_zero()
    assert str(QtPoly({0: Fraction(-3, 2), 1: 4})) == "-3/2 + 4*t"


def _all_int(coeff_polys):
    return all(type(c) is int for p in coeff_polys for c in dict(p.coeffs).values())


def test_word_products_and_their_zeta_images_have_int_coefficients():
    prod = tshuffle_words(Word("xxyy"), Word("xyxy"))
    assert prod.terms and _all_int(prod.terms.values())
    assert _all_int(pattern_product((1, 0, 2), (2, 1)).terms.values())
    assert _all_int(yy_product_formula(3, 4).terms.values())
    combo = zeta_map(prod)
    assert combo.terms and _all_int(combo.terms.values())
    assert _all_int([zeta_map(tshuffle(HElement.unit(), HElement.unit())).scalar])
