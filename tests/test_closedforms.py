"""Tests for the closed product formulas against the recursive oracle.

Each formula family is exercised on a grid small enough for quick runs;
the wide acceptance grids live in tests/test_acceptance.py.  The
alternating sums additionally pin down the parity split: odd chain
lengths cancel to zero, even ones match the binomial closed form and do
not vanish.
"""

import importlib
import inspect
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from imzv import (
    HElement,
    Word,
    alternating_product_closed_form,
    alternating_product_sum,
    alternating_product_weight4_form,
    expanded_height_one_product,
    height_one_product,
    height_two_product,
    pattern_product,
    tshuffle_words,
    xpow_times_ypow,
    yy_product_formula,
)
from imzv import closedforms, verify
from imzv.halg import accumulate

# the module, which the package's tshuffle function shadows
engines = importlib.import_module("imzv.tshuffle")

exps = st.integers(min_value=0, max_value=2)
runs = st.integers(min_value=1, max_value=2)


def word_from_exps(e):
    return Word("".join("x" * k + "y" for k in e))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(exps, min_size=1, max_size=4),
    b=st.lists(exps, min_size=1, max_size=4),
)
# four y runs against one, both ways round: the walk drains one word early
@example(a=[2, 0, 1, 2], b=[2])
@example(a=[1], b=[0, 2, 2, 1])
@example(a=[0, 0, 0, 0], b=[0])
def test_pattern_product_matches_oracle(a, b):
    lhs = pattern_product(a, b)
    rhs = tshuffle_words(word_from_exps(a), word_from_exps(b))
    assert lhs == rhs


# six runs of x^1 y and four of x^2 y on both sides: 4,007 and 3,241 terms
@pytest.mark.parametrize("a, terms", [((1,) * 6, 4007), ((2,) * 4, 3241)])
def test_pattern_product_matches_oracle_on_long_shapes(a, terms):
    lhs = pattern_product(a, a)
    assert len(lhs.terms) == terms
    assert lhs == tshuffle_words(word_from_exps(a), word_from_exps(a))


def test_closed_forms_do_not_call_the_recursive_engines(monkeypatch):
    cases = [((0, 2, 1), (1, 0)), ((2,), (0, 0, 1))]
    oracle = [tshuffle_words(word_from_exps(a), word_from_exps(b)) for a, b in cases]
    # each closed form with its arguments and the oracle's value
    forms = [
        (height_two_product, (2, 2, 0, 1, 1, 2), tshuffle_words("xxyy", "yxyy")),
        (yy_product_formula, (3, 2), tshuffle_words("yyy", "yy")),
        (xpow_times_ypow, (3, 2), tshuffle_words("xxx", "yy")),
        (height_one_product, (2, 2, 1, 1), tshuffle_words("xxyy", "xy")),
        (expanded_height_one_product, (1, 2, 2, 1), tshuffle_words("xyy", "xxy")),
        (alternating_product_closed_form, (4, 3), alternating_product_sum(4, 3)),
        (alternating_product_weight4_form, (4,), alternating_product_sum(4, 2)),
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a closed form called the recursive engine")

    for name in ("_tsh", "_prepend", "_sh", "_tails", "_prefixes", "_split_at"):
        monkeypatch.setattr(engines, name, refuse)
    monkeypatch.setattr(closedforms, "_tsh", refuse)
    assert [pattern_product(a, b) for a, b in cases] == oracle
    for form, args, want in forms:
        assert form(*args) == want, form.__name__


# letters counted from the exponents: sum(exps) + len(exps) per word
@pytest.mark.parametrize("product, args, letters", [
    (pattern_product, ((0,) * 2000, (0,)), 2001),
    (pattern_product, ((1,) * 250, (0,)), 501),
    (height_two_product, (0, 1500, 0, 1, 0, 1), 1502),
    (height_one_product, (248, 1, 251, 1), 501),
    (expanded_height_one_product, (248, 2, 250, 1), 501),
    (alternating_product_sum, (499, 1), 501),
    (alternating_product_sum, (2, 299), 600),
    # the closed form takes even k only, so 2p + k is never 501
    (alternating_product_closed_form, (500, 1), 502),
    (alternating_product_weight4_form, (497,), 501),
])
def test_closed_forms_refuse_words_over_the_letter_limit(product, args, letters):
    with pytest.raises(ValueError, match="%d letters in all is over the limit of 500" % letters):
        product(*args)


@pytest.mark.parametrize("product, args", [
    (height_one_product, (248, 1, 250, 1)),
    (expanded_height_one_product, (248, 1, 250, 1)),
    (alternating_product_closed_form, (498, 1)),
    (alternating_product_weight4_form, (496,)),
])
def test_family_forms_run_at_the_letter_limit(product, args):
    got = product(*args)
    assert got and all(len(w) == 500 for w in got.terms)


def test_alternating_sum_starts_its_products_at_the_letter_limit(monkeypatch):
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    # its products at 500 letters would fill more memory than a test may,
    # so only their start is seen
    monkeypatch.setattr(closedforms, "_tsh", started)
    with pytest.raises(Started):
        alternating_product_sum(498, 1)


def test_pattern_product_at_the_letter_limit():
    a, b = (0,) * 499, (0,)
    assert pattern_product(a, b) == tshuffle_words(word_from_exps(a), word_from_exps(b))


def test_pattern_product_needs_a_run_on_each_side():
    for a, b in (((), (1,)), ((1,), ())):
        with pytest.raises(ValueError, match="at least one y run"):
            pattern_product(a, b)


@pytest.mark.parametrize("a, b", [((-1,), (1,)), ((1,), (0, -1))])
def test_pattern_product_refuses_a_negative_exponent(a, b):
    with pytest.raises(ValueError, match=">= 0"):
        pattern_product(a, b)


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=2),
    r=st.integers(min_value=1, max_value=5),
    b=st.integers(min_value=1, max_value=2),
    s=st.integers(min_value=1, max_value=5),
)
@example(a=2, r=5, b=2, s=5)
@example(a=1, r=5, b=2, s=1)
@example(a=2, r=1, b=1, s=5)
def test_height_one_matches_oracle(a, r, b, s):
    lhs = height_one_product(a, r, b, s)
    rhs = tshuffle_words(Word("x" * a + "y" * r), Word("x" * b + "y" * s))
    assert lhs == rhs


def test_expanded_height_one_matches_oracle_on_grid():
    for m, j, n, k in itertools.product((1, 2), repeat=4):
        lhs = expanded_height_one_product(m, j, n, k)
        rhs = tshuffle_words(Word("x" * m + "y" * j), Word("x" * n + "y" * k))
        assert lhs == rhs, (m, j, n, k)


def test_expanded_and_direct_height_one_agree():
    for m, j, n, k in itertools.product((1, 2), repeat=4):
        assert expanded_height_one_product(m, j, n, k) == height_one_product(
            m, j, n, k
        ), (m, j, n, k)


@settings(max_examples=30, deadline=None)
@given(a=exps, b1=exps, b2=exps, r=runs, s1=runs, s2=runs)
def test_height_two_matches_oracle(a, b1, b2, r, s1, s2):
    lhs = height_two_product(a, r, b1, s1, b2, s2)
    w2 = Word("x" * b1 + "y" * s1 + "x" * b2 + "y" * s2)
    rhs = tshuffle_words(Word("x" * a + "y" * r), w2)
    assert lhs == rhs


# each argument one past its bound; r = 0 or s1 = 0 would otherwise make
# another, valid pair of exponent tuples and a different product
@pytest.mark.parametrize("args", [
    (1, 0, 1, 1, 1, 1),
    (1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 1, 0),
    (-1, 1, 1, 1, 1, 1),
    (1, 1, -1, 1, 1, 1),
    (1, 1, 1, 1, -1, 1),
])
def test_height_two_refuses_arguments_below_their_bounds(args):
    with pytest.raises(ValueError, match="need r, s1, s2 >= 1 and a, b1, b2 >= 0"):
        height_two_product(*args)


def test_alternating_sum_vanishes_for_odd_chain_lengths():
    for k in (1, 3, 5):
        for p in (1, 2, 3):
            assert alternating_product_sum(k, p).is_zero(), (k, p)


def test_alternating_sum_closed_form_for_even_chain_lengths():
    for k in (2, 4, 6):
        for p in (1, 2, 3):
            lhs = alternating_product_sum(k, p)
            rhs = alternating_product_closed_form(k, p)
            assert lhs == rhs, (k, p)
            assert not lhs.is_zero(), (k, p)


def test_the_alternating_closed_form_adds_no_zero_coefficient(monkeypatch):
    # a composition with alpha_0 < p - 1 weighs C(alpha_0, p - 1) = 0, so
    # the families enumerate only alpha_0 >= p - 1; checked on the prop41
    # grid's even k
    added = []

    def spy(table, key, c):
        added.append(c)
        accumulate(table, key, c)

    monkeypatch.setattr(closedforms, "accumulate", spy)
    for k in (2, 4, 6):
        for p in (1, 2, 3):
            alternating_product_closed_form(k, p)
    assert added and all(added)


def test_alternating_weight4_specialization():
    for k in (2, 4, 6):
        assert alternating_product_weight4_form(k) == alternating_product_sum(k, 2)
    for k in (1, 3, 5):
        assert alternating_product_weight4_form(k).is_zero()


def test_every_output_word_ends_in_y():
    out = pattern_product((1, 0), (2,))
    assert all(w.endswith("y") for w in out.terms)
    out = height_one_product(2, 2, 1, 1)
    assert all(w.endswith("y") for w in out.terms)


def _grid(runner):
    """The default grid keywords of a verify suite's runner."""
    return {name: p.default for name, p in inspect.signature(runner).parameters.items()}


def _single_products():
    """(product, X) over the default verify grids of the closed forms of
    one product, X the x's of both words."""
    g = _grid(verify.run_yy_products)
    for m, n in itertools.product(range(1, g["max_run"] + 1), repeat=2):
        yield yy_product_formula(m, n), 0
    g = _grid(verify.run_xy_products)
    for m, n in itertools.product(range(g["max_exp"] + 1), repeat=2):
        yield xpow_times_ypow(m, n), m
    g = _grid(verify.run_pattern_products)
    shapes = [shape for r in range(1, g["max_run"] + 1)
              for shape in itertools.product(range(g["max_exp"] + 1), repeat=r)]
    for a, b in itertools.product(shapes, repeat=2):
        yield pattern_product(a, b), sum(a) + sum(b)
    g = _grid(verify.run_height_one)
    exps, runs = range(1, g["max_exp"] + 1), range(1, g["max_run"] + 1)
    for a, b, r, s in itertools.product(exps, exps, runs, runs):
        yield height_one_product(a, r, b, s), a + b
    g = _grid(verify.run_expanded_height_one)
    for m, j, n, k in itertools.product(range(1, g["max_param"] + 1), repeat=4):
        yield expanded_height_one_product(m, j, n, k), m + n
    g = _grid(verify.run_height_two)
    exps, runs = range(g["max_exp"] + 1), range(1, g["max_run"] + 1)
    for a, r, b1, s1, b2, s2 in itertools.product(exps, runs, exps, runs, exps, runs):
        yield height_two_product(a, r, b1, s1, b2, s2), a + b1 + b2


def test_closed_forms_keep_the_sign_rule_on_the_default_grids():
    # each form sums its words into a signed table with no zero check, so
    # every coefficient is a constant c > 0 on a word of X x's or c*t with
    # c < 0 on a word of X + 1 x's, and no two families cancel
    products = 0
    for prod, xs in _single_products():
        assert prod
        for w, c in prod.terms.items():
            (deg, k), = c.coeffs
            n = w.count("x")
            assert (deg == 0 and k > 0 and n == xs) or (deg == 1 and k < 0 and n == xs + 1), (w, c)
        products += 1
    assert products == 49 + 49 + 1521 + 144 + 81 + 216
