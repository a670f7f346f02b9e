"""Tests for words in the letters x, y and their zeta index views.

The index encoding sends (l1, ..., ln) to the word z_{l1}...z_{ln} with
z_k = x^(k-1) y, so every index word ends in y and admissibility of the
index (first part at least 2) matches the word starting with x.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from imzv import (
    EMPTY_WORD,
    Index,
    Word,
    admissible_indices,
    admissible_words,
    all_words,
    dual,
    eval_mzv,
    index_from_word,
    is_admissible,
    parse_index,
    parse_word,
    word_from_index,
    words_of_length,
    zeta_combo_from_json,
)

words = st.text(alphabet="xy", max_size=8).map(Word)
indices = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=5
).map(Index)
admissible = indices.filter(lambda i: i.admissible)


def test_word_rejects_other_letters():
    with pytest.raises(ValueError):
        Word("xz")
    with pytest.raises(ValueError):
        Word("x y")


@pytest.mark.parametrize("letters", ["xzy", "x y", "X", "yx\n"])
def test_word_rejection_names_the_letters(letters):
    with pytest.raises(ValueError) as err:
        Word(letters)
    assert str(err.value) == "word letters must be x or y, got %r" % letters


def test_word_is_immutable():
    w = Word("xy")
    with pytest.raises(AttributeError):
        w.letters = "yy"


def test_empty_word_prints_as_one():
    assert str(EMPTY_WORD) == "1"
    assert parse_word("1") == EMPTY_WORD


def test_index_validation():
    with pytest.raises(ValueError):
        Index(())
    with pytest.raises(ValueError):
        Index((2, 0))


@pytest.mark.parametrize("parts", [[2.5, 1], "21", (2.0,), (True, 2), (Fraction(2),)])
def test_index_parts_must_be_ints(parts):
    with pytest.raises(ValueError, match="must be ints"):
        Index(parts)


def test_a_non_integer_part_is_refused_where_an_index_is_read():
    with pytest.raises(ValueError, match="must be ints"):
        eval_mzv((2.9,))
    with pytest.raises(ValueError, match="must be ints"):
        zeta_combo_from_json({"kind": "plain", "scalar": "0",
                              "terms": [{"index": [2.5], "coeff": "1"}]})


def test_index_statistics():
    idx = Index((3, 1, 2))
    assert idx.weight == 6
    assert idx.depth == 3
    assert idx.height == 2
    assert idx.admissible
    assert not Index((1, 2)).admissible


@given(idx=indices)
def test_index_word_round_trip(idx):
    assert index_from_word(word_from_index(idx)) == idx


@given(idx=indices)
def test_word_weight_equals_index_weight(idx):
    assert len(word_from_index(idx)) == idx.weight


def test_index_from_word_needs_trailing_y():
    with pytest.raises(ValueError):
        index_from_word(Word("yx"))
    with pytest.raises(ValueError):
        index_from_word(EMPTY_WORD)


@given(idx=indices)
def test_parse_index_round_trip(idx):
    assert parse_index(str(idx)) == idx


def test_parse_index_rejects_garbage():
    with pytest.raises(ValueError):
        parse_index("(2,)x")
    with pytest.raises(ValueError):
        parse_index("()")
    for text in ("(2,,1)", "(2,1,)", "(,2)", "2,,1", "(2, ,1)"):
        with pytest.raises(ValueError):
            parse_index(text)


def test_parse_index_reads_ascii_digits_only():
    assert parse_index("(2, 1)") == Index((2, 1))
    assert parse_index(" 3 ,2 ") == Index((3, 2))
    # int() takes all of these; the index grammar takes none
    for text in ("(1_0)", "(+2)", "(2,-1)", "(2, 1.0)", "(\u0663)", "(2, 0x1)", "(2, 1 1)"):
        with pytest.raises(ValueError, match="cannot parse index"):
            parse_index(text)


def test_admissibility_on_words():
    assert is_admissible(Word("xy"))
    assert is_admissible(EMPTY_WORD)
    assert not is_admissible(Word("yx"))
    assert not is_admissible(Word("xyx"))


@given(idx=admissible)
def test_dual_is_an_involution(idx):
    w = word_from_index(idx)
    assert dual(dual(w)) == w


@given(idx=admissible)
def test_dual_preserves_weight_and_admissibility(idx):
    w = word_from_index(idx)
    d = dual(w)
    assert len(d) == len(w)
    assert is_admissible(d)


def test_dual_known_pairs():
    assert dual(Word("xy")) == Word("xy")
    assert dual(word_from_index(Index((3,)))) == word_from_index(Index((2, 1)))
    assert dual(word_from_index(Index((4,)))) == word_from_index(Index((2, 1, 1)))
    assert dual(word_from_index(Index((2, 2)))) == word_from_index(Index((2, 2)))


def test_dual_rejects_non_admissible():
    with pytest.raises(ValueError):
        dual(Word("yx"))
    with pytest.raises(ValueError):
        dual(EMPTY_WORD)


def test_enumeration_counts():
    assert len(list(words_of_length(3))) == 8
    assert len(list(all_words(3))) == 1 + 2 + 4 + 8
    # admissible words of weight w: those of shape x...y, counted 2^(w-2)
    assert len(list(admissible_words(4))) == 1 + 2 + 4


def test_admissible_indices_are_sorted_and_bounded():
    idxs = list(admissible_indices(5))
    assert all(i.admissible and i.weight <= 5 for i in idxs)
    assert len(set(idxs)) == len(idxs)
    assert Index((2,)) in idxs and Index((2, 1, 1, 1)) in idxs
