"""Tests for the deformed shuffle product on words.

The product is defined by a two-letter recursion whose correction term
carries the deformation parameter t.  At t = 0 it reduces to the plain
shuffle, and the recursion itself serves as the oracle for every closed
formula in the package, so the laws checked here (commutativity,
associativity, unit) underpin everything downstream.
"""

import importlib
import random
from fractions import Fraction
from itertools import groupby, repeat

import pytest
from hypothesis import given, settings, strategies as st

from imzv import (
    EMPTY_WORD,
    HElement,
    QtPoly,
    Word,
    binom,
    compositions,
    parse_helement,
    shuffle_words,
    split_product,
    tshuffle,
    tshuffle_words,
    block_product,
    xpow_times_ypow,
    yy_product_formula,
)
import imzv.words
from imzv.closedforms import _yy_corrections
from imzv.halg import accumulate, from_signed, signed_poly
from imzv.tshuffle import (
    MAX_LETTERS,
    _add_concat,
    _prefixes,
    _sh,
    _split_at,
    _tails,
    _tsh,
    tshuffle_table,
)
from imzv.words import all_words
from imzv.verify import run_oracle_laws

short_words = st.text(alphabet="xy", max_size=4).map(Word)
tiny_words = st.text(alphabet="xy", max_size=3).map(Word)


def _blocks(w):
    """The (letter, exponent) runs of a word, as block_product takes them."""
    return tuple((ch, len(list(run))) for ch, run in groupby(Word(w).letters))


def test_empty_word_is_the_unit():
    for w in (EMPTY_WORD, Word("y"), Word("xxy"), Word("yxy")):
        assert tshuffle_words(EMPTY_WORD, w) == HElement.from_word(w)
        assert tshuffle_words(w, EMPTY_WORD) == HElement.from_word(w)


@given(w1=short_words, w2=short_words)
def test_product_commutes(w1, w2):
    assert tshuffle_words(w1, w2) == tshuffle_words(w2, w1)


@settings(max_examples=40, deadline=None)
@given(w1=tiny_words, w2=tiny_words, w3=tiny_words)
def test_product_associates(w1, w2, w3):
    cache = {}
    left = tshuffle(
        tshuffle_words(w1, w2, cache), HElement.from_word(w3), cache
    )
    right = tshuffle(
        HElement.from_word(w1), tshuffle_words(w2, w3, cache), cache
    )
    assert left == right


def test_oracle_laws_on_all_words_up_to_length_three():
    report = run_oracle_laws(max_len_comm=1, max_len_assoc=3)
    assert report.cases_total == 3**2 + 15**3
    assert report.passed


@given(w1=short_words, w2=short_words)
def test_t_zero_specializes_to_plain_shuffle(w1, w2):
    deformed = tshuffle_words(w1, w2).substitute_t(Fraction(0))
    assert deformed == shuffle_words(w1, w2)


@given(w1=short_words, w2=short_words)
def test_plain_shuffle_mass(w1, w2):
    """The coefficients of the plain shuffle add up to a binomial."""
    total = sum(
        c.eval_at(Fraction(0)) for c in shuffle_words(w1, w2).terms.values()
    )
    assert total == binom(len(w1) + len(w2), len(w1))


def test_known_small_products():
    assert str(tshuffle_words(Word("y"), Word("y"))) == "2*yy + (-2*t)*xy"
    assert str(tshuffle_words(Word("xy"), Word("xy"))) == (
        "2*xyxy + 4*xxyy + (-6*t)*xxxy"
    )
    got = tshuffle_words(Word("y"), Word("yy"))
    want = parse_helement("3*yyy + (-t)*xyy + (-2*t)*yxy")
    assert got == want


def test_product_is_bilinear():
    u = HElement.from_word("y", 2) + HElement.from_word("xy", QtPoly.t())
    v = HElement.from_word("y", -1)
    direct = tshuffle(u, v)
    expanded = tshuffle_words(Word("y"), Word("y")).scale(QtPoly.const(-2)) + (
        tshuffle_words(Word("xy"), Word("y")).scale(QtPoly({1: -1}))
    )
    assert direct == expanded


@given(m=st.integers(min_value=1, max_value=5), n=st.integers(min_value=1, max_value=5))
def test_yy_closed_form_matches_recursion(m, n):
    assert yy_product_formula(m, n) == tshuffle_words(Word("y" * m), Word("y" * n))


@given(m=st.integers(min_value=0, max_value=4), n=st.integers(min_value=0, max_value=4))
def test_xy_block_form_matches_recursion(m, n):
    assert xpow_times_ypow(m, n) == tshuffle_words(Word("x" * m), Word("y" * n))


@settings(max_examples=40, deadline=None)
@given(
    w1=st.text(alphabet="xy", min_size=1, max_size=4).map(Word),
    w2=tiny_words,
    data=st.data(),
)
def test_split_product_is_position_independent(w1, w2, data):
    k = data.draw(st.integers(min_value=1, max_value=len(w1)))
    assert split_product(w1, w2, k) == tshuffle_words(w1, w2)


@settings(max_examples=60, deadline=None)
@given(w1=tiny_words, w2=tiny_words)
def test_block_product_matches_recursion(w1, w2):
    got = block_product(_blocks(w1), _blocks(w2))
    assert got == tshuffle_words(w1, w2)


def test_split_and_block_products_match_the_oracle_on_all_words_up_to_four_letters():
    words = list(all_words(4))
    cache = {}
    splits = blocks = 0
    for u in words:
        for v in words:
            want = tshuffle_words(u, v, cache)
            for k in range(1, len(u) + 1):
                assert split_product(u, v, k) == want, (u, v, k)
                splits += 1
            assert block_product(_blocks(u), _blocks(v)) == want, (u, v)
            blocks += 1
    assert (splits, blocks) == (3038, 961)


def test_block_product_takes_at_most_one_frame_per_block():
    # 498 blocks of one letter each: the blocks are spelled out and split
    # at the middle letter, so the tails' recursion goes about 250 frames
    # deep, where two Python frames per block would pass the default
    # recursion limit of 1000
    a = "xy" * 249
    assert block_product(_blocks(a), _blocks("y")) == tshuffle_words(a, "y")


def test_compositions_count_and_order():
    rows = list(compositions(3, 2))
    assert rows == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(4, 3))) == binom(6, 2)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(-1, 1)) == []
    assert list(compositions(-1, 0)) == []
    for total in (3, 0, -1):
        with pytest.raises(ValueError, match="parts >= 0"):
            list(compositions(total, -1))


@pytest.mark.parametrize("m, n", [(-1, 0), (-2, 3), (2, -1)])
def test_xy_block_form_refuses_a_negative_exponent(m, n):
    with pytest.raises(ValueError, match=">= 0"):
        xpow_times_ypow(m, n)


@pytest.mark.parametrize("blocks_a, blocks_b", [
    ((("x", -1), ("y", 1)), (("y", 1),)),
    ((("y", 1),), (("x", -1), ("y", 1))),
])
def test_block_product_refuses_a_negative_exponent(blocks_a, blocks_b):
    with pytest.raises(ValueError, match=">= 0"):
        block_product(blocks_a, blocks_b)


@pytest.mark.parametrize("blocks_a, blocks_b", [
    ((("xy", 1), ("y", 1)), (("y", 1),)),
    ((("", 3), ("y", 1)), (("y", 1),)),
    ((("y", 1),), (("x", 1), ("yx", 0))),
])
def test_block_product_refuses_a_block_letter_other_than_x_or_y(blocks_a, blocks_b):
    with pytest.raises(ValueError, match="block letter must be x or y"):
        block_product(blocks_a, blocks_b)


@pytest.mark.parametrize("blocks_a, blocks_b, message", [
    ((("xy", 1),), (("y", 1),), "block letter must be x or y"),
    ((("x", -1), ("y", 1)), (("y", 1),), ">= 0"),
    ((("x", 10**18), ("y", 1)), (("y", 1),), "over the limit of %d" % MAX_LETTERS),
])
def test_block_product_refuses_its_blocks_before_building_a_table(
        monkeypatch, blocks_a, blocks_b, message):
    def no_table(*args):
        raise AssertionError("a table was built")

    # the package binds the name tshuffle to the bilinear product
    engines = importlib.import_module("imzv.tshuffle")
    monkeypatch.setattr(engines, "tshuffle_table", no_table)
    with pytest.raises(ValueError, match=message):
        block_product(blocks_a, blocks_b)


def test_block_product_refuses_a_huge_exponent_before_building_a_word():
    with pytest.raises(ValueError, match="over the limit of %d" % MAX_LETTERS):
        block_product((("x", 10**18), ("y", 1)), (("y", 1),))
    with pytest.raises(ValueError, match="over the limit of %d" % MAX_LETTERS):
        block_product((("y", 1),), (("x", 10**18),))


@pytest.mark.parametrize("formula, m", [(yy_product_formula, 250), (xpow_times_ypow, 499)])
def test_the_power_forms_run_up_to_the_letter_limit_and_refuse_longer(formula, m):
    n = MAX_LETTERS - m
    got = formula(m, n)
    assert got and all(len(w) == MAX_LETTERS for w in got.terms)
    with pytest.raises(ValueError, match="over the limit of %d" % MAX_LETTERS):
        formula(m, n + 1)


def test_block_product_ignores_a_zero_exponent():
    got = block_product((("x", 0), ("y", 1)), (("y", 1), ("x", 0)))
    assert got == tshuffle_words("y", "y")


@pytest.mark.parametrize(
    "u, v", [("", "xy"), ("x", "y"), ("xy", "y"), ("xxy", "xyy"), ("yxy", "xyxxy")]
)
def test_shuffle_multiplicities_count_the_interleavings(u, v):
    prod = shuffle_words(u, v)
    assert sum(c.eval_at(0) for c in prod.terms.values()) == binom(len(u) + len(v), len(u))


def test_one_cache_serves_tshuffle_and_shuffle():
    words = list(all_words(4))
    shared = {}
    tcache, scache = {}, {}
    for u in words:
        for v in words:
            t_shared = tshuffle_words(u, v, shared)
            s_shared = shuffle_words(u, v, shared)
            assert list(t_shared.terms.items()) == list(tshuffle_words(u, v, tcache).terms.items())
            assert list(s_shared.terms.items()) == list(shuffle_words(u, v, scache).terms.items())
            assert str(t_shared) == str(tshuffle_words(u, v)), (u, v)
            assert str(s_shared) == str(shuffle_words(u, v)), (u, v)
            # both engines hand out the one coefficient per distinct int
            assert all(t_shared.terms[w] is c for w, c in s_shared.terms.items()
                       if t_shared.terms.get(w) == c)


_LETTER_ENGINES = {
    "tshuffle_words": tshuffle_words,
    "tshuffle": lambda u, v: tshuffle(HElement.from_word(u), HElement.from_word(v)),
    "shuffle_words": shuffle_words,
    "split_product": lambda u, v: split_product(u, v, 1),
    "block_product": lambda u, v: block_product(_blocks(u), _blocks(v)),
    "tshuffle_table": lambda u, v: from_signed(tshuffle_table(u, v)),
}


@pytest.mark.parametrize("engine", _LETTER_ENGINES.values(), ids=_LETTER_ENGINES)
def test_products_up_to_the_letter_limit_run_and_longer_are_refused(engine):
    # x^(L-1) sh x = L x^L, with L = MAX_LETTERS letters in all
    long = "x" * (MAX_LETTERS - 1)
    assert engine(long, "x") == HElement.from_word(long + "x", MAX_LETTERS)
    with pytest.raises(ValueError, match="over the limit of %d" % MAX_LETTERS):
        engine(long + "x", "x")


def test_the_product_engines_share_the_word_letter_limit():
    assert MAX_LETTERS is imzv.words.MAX_LETTERS == 500


def test_correction_terms_at_the_letter_limit():
    m = MAX_LETTERS - 1
    assert tshuffle_words("y" * m, "y") == yy_product_formula(m, 1)
    for u, v in (("y" * m, "y"), ("y", "y" * m)):
        assert from_signed(tshuffle_table(u, v)) == yy_product_formula(m, 1)


def _assert_split_is_the_recursion(u, v):
    want = _tsh(u, v, {})
    assert tshuffle_table(u, v) == want, (u, v)
    for k in range(1, len(u) + 1):
        assert _split_at(u, v, k) == want, (u, v, k)
    return len(u)


def test_the_printed_table_is_the_recursion_on_every_pair_up_to_five_letters():
    # tshuffle_table sums the split formula at the middle of the longer
    # word; the reference is the recursion's own table, with a fresh memo,
    # and so is the split at every letter
    words = [w.letters for w in all_words(5)]
    assert len(words) == 63 and "" in words and "y" in words and "yxxyx" in words
    splits = sum(_assert_split_is_the_recursion(u, v) for u in words for v in words)
    assert splits == 16254


def test_the_split_is_the_recursion_on_random_pairs_up_to_fourteen_letters():
    rng = random.Random(1)
    letters = 0
    for _ in range(300):
        m = rng.randint(1, 13)
        u = "".join(rng.choice("xy") for _ in range(m))
        v = "".join(rng.choice("xy") for _ in range(rng.randint(1, 14 - m)))
        _assert_split_is_the_recursion(u, v)
        letters = max(letters, len(u + v))
    assert letters == 14


def test_the_row_builders_give_the_recursions_tables_at_every_split():
    # row k of _tails holds a[k:] sh b[i:] for every i, and row k-1 of
    # _prefixes the plain shuffles a[:k-1] sh b[:q] for every q, with the
    # corner a[:k-1] sh b[:n-1]x when b ends in y.  _tails and _tsh take
    # the same step, _prepend, so the rows are also held, entry for entry
    # and in order, to _ref_tsh, which shares no code with either.
    words = [w.letters for w in all_words(4)]
    ref_memo = {}
    for a in words:
        for b in words:
            n = len(b)
            for k in range(1, len(a) + 1):
                tails = _tails(a, b, k)
                assert tails == [_tsh(a[k:], b[i:], {}) for i in range(n + 1)]
                want = [_ref_tsh(a[k:], b[i:], ref_memo) for i in range(n + 1)]
                assert [list(row.items()) for row in tails] == [
                    list(row.items()) for row in want], (a, b, k)
                prefixes, corner = _prefixes(a, b, k)
                assert prefixes == [_sh(a[:k - 1], b[:q], {}) for q in range(n + 1)]
                if n and b[-1] == "y":
                    assert corner == _sh(a[:k - 1], b[:n - 1] + "x", {}), (a, b, k)
                else:
                    assert corner is None


def test_a_memo_shared_by_both_recursions_keeps_them_apart():
    cache = {}
    assert tshuffle_words("xy", "y", cache) != shuffle_words("xy", "y")
    assert shuffle_words("xy", "y", cache) == shuffle_words("xy", "y")
    assert tshuffle_words("xy", "y", cache) == tshuffle_words("xy", "y")


def test_split_product_keeps_nothing_in_the_cache():
    cache = {}
    a, b = "xyxy", "xxyy"
    for k in range(1, len(a) + 1):
        assert split_product(a, b, k, cache) == tshuffle_words(a, b)
    assert cache == {}


def test_a_memo_holds_only_the_recursions_tables():
    cache = {}
    tshuffle_words("xxyxy", "xyy", cache)
    shuffle_words("xxyxy", "xyy", cache)
    tshuffle(HElement.from_word("xyy"), HElement.from_word("yxy"), cache)
    split_product("xyxy", "xxyy", 2, cache)
    assert cache and all(type(key) is tuple for key in cache)


# Reference copies of the t-shuffle and plain shuffle recursions that sum
# every prefixed (for the plain shuffle, which peels last letters: every
# suffixed) entry with _ref_add, which drops a sum that cancels; the
# engines store the entries that cannot collide directly and sum the rest
# with no zero check, and must give the same tables in the same order.
def _ref_add(table, w, c):
    c += table.get(w, 0)
    if c:
        table[w] = c
    else:
        table.pop(w, None)


def _ref_tsh(u, v, memo):
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v)
    if key in memo:
        return memo[key]
    a, u1 = u[0], u[1:]
    b, v1 = v[0], v[1:]
    out = {}
    for w, c in _ref_tsh(u1, v, memo).items():
        _ref_add(out, a + w, c)
    for w, c in _ref_tsh(u, v1, memo).items():
        _ref_add(out, b + w, c)
    if not u1 and a == "y":
        _ref_add(out, "x" + v, -1)
    if not v1 and b == "y":
        _ref_add(out, "x" + u, -1)
    memo[key] = out
    return out


def _ref_sh(u, v, memo):
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v, 0)
    if key in memo:
        return memo[key]
    out = {}
    for w, c in _ref_sh(u[:-1], v, memo).items():
        _ref_add(out, w + u[-1], c)
    for w, c in _ref_sh(u, v[:-1], memo).items():
        _ref_add(out, w + v[-1], c)
    memo[key] = out
    return out


@pytest.mark.parametrize(
    "engine, reference", [(_tsh, _ref_tsh), (_sh, _ref_sh)], ids=["_tsh", "_sh"]
)
def test_prefix_tables_match_the_reference_recursion(engine, reference):
    words = [w.letters for w in all_words(5)]
    shared, ref_shared = {}, {}
    for u in words:
        for v in words:
            for got, want in (
                (engine(u, v, {}), reference(u, v, {})),
                (engine(u, v, shared), reference(u, v, ref_shared)),
            ):
                assert list(got.items()) == list(want.items()), (u, v)
    assert len(shared) == len(ref_shared)


@pytest.mark.parametrize("engine", [_tsh, _sh], ids=["_tsh", "_sh"])
def test_every_recursion_entry_has_c0_at_least_zero_at_least_c1(engine):
    # the invariant that lets every product engine keep one signed int per
    # word and sum two colliding entries with no cancellation check: with
    # X the x's of both words, every coefficient c0 + c1*t is a constant
    # c0 > 0 (stored as c > 0) on a word of X x's or c1*t with c1 < 0
    # (stored as c < 0) on a word of X + 1 x's, the y a rho correction
    # turned into an x.  Checked on every ordered pair of words of at most
    # 6 letters; the tables of the pairs the recursion meets on the way
    # are those of shorter pairs, checked in their turn.
    words = [w.letters for w in all_words(6)]
    pairs = 0
    for u in words:
        memo = {}
        for v in words:
            xs = u.count("x") + v.count("x")
            table = engine(u, v, memo)
            # the distinct (x count, coefficient) kinds, gathered in C
            for n, c in set(zip(map(str.count, table, repeat("x")), table.values())):
                assert (n == xs and c > 0) or (n == xs + 1 and c < 0), (u, v, n, c)
            pairs += 1
    assert pairs == 16129


def test_concatenation_sums_signed_coefficients_like_qtpolys():
    # a plain shuffle table on the left, signed entries on the right; the
    # split formula's sums are all of one sign per word, so none cancels
    left, mid, right = {"x": 1, "y": 2}, "y", {"x": 3, "": -2}
    acc = {"xyx": 1, "yy": -4, "xx": 5}
    want = {w: signed_poly(c) for w, c in acc.items()}
    for lw, l in left.items():
        for rw, r in right.items():
            accumulate(want, lw + mid + rw, signed_poly(l * r))
    _add_concat(acc, left, mid, right)
    assert {w: signed_poly(c) for w, c in acc.items()} == want
    assert acc == {"xyx": 4, "yy": -8, "xx": 5, "xy": -2, "yyx": 6}


def test_the_yy_correction_family_is_the_t_part_of_the_yy_product():
    # the height-one forms add the family inside longer words with no
    # zero check, so it holds no zero, and none at all when a run is empty
    for m in range(9):
        for n in range(9):
            family = list(_yy_corrections(m, n))
            assert all(c > 0 for _, c in family), (m, n)
            t_part = {w: c for w, c in _tsh("y" * m, "y" * n, {}).items() if c < 0}
            assert {w: -c for w, c in family} == t_part and len(family) == len(t_part), (m, n)
    assert list(_yy_corrections(3, 0)) == list(_yy_corrections(0, 3)) == []
