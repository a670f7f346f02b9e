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
    PLAIN,
    HElement,
    Index,
    QtPoly,
    Word,
    ZetaCombo,
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
from imzv.words import MAX_LETTERS, admissible_index_parts, admissible_parts

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


def test_a_word_built_from_a_word_is_that_word():
    # str.__new__ would read the empty word through __str__, as "1"
    for w in (Word(EMPTY_WORD), Word(Word("")), Word()):
        assert len(w) == 0 and w == "" and str(w) == "1" and repr(w) == "Word('')"
    assert Word(Word("xy")) == "xy"


def test_words_and_indices_equal_and_hash_as_their_letters_and_parts():
    assert Word("xy") == "xy" and hash(Word("xy")) == hash("xy")
    assert Index((2, 1)) == (2, 1) and hash(Index((2, 1))) == hash((2, 1))
    assert Word("xy") != Word("yx") and Index((2, 1)) != (1, 2)
    assert type(Word("xy").letters) is str and type(EMPTY_WORD.letters) is str
    assert type(Index((2, 1)).parts) is tuple
    assert EMPTY_WORD.letters == "" and Index((2, 1)).parts == (2, 1)
    assert str(Index((2, 1))) == "(2,1)" and repr(Index((2, 1))) == "Index((2, 1))"
    assert repr(Word("xy")) == "Word('xy')"


def test_coefficients_are_found_by_a_checked_or_a_plain_key():
    v = HElement({"xy": 3, Word("xxy"): QtPoly.t()})
    assert v.coeff(Word("xy")) == v.coeff("xy") == QtPoly.const(3)
    assert v.coeff(Word("xxy")) == v.coeff("xxy") == QtPoly.t()
    zc = ZetaCombo(PLAIN, {(2, 1): 2, Index((3,)): QtPoly.t()})
    assert zc.coeff(Index((2, 1))) == zc.coeff((2, 1)) == QtPoly.const(2)
    assert zc.coeff(Index((3,))) == zc.coeff((3,)) == QtPoly.t()


def test_a_non_admissible_index_is_refused_by_its_printed_form():
    # an Index is a tuple, so "%s" % index would read it as the arguments
    for index in (Index((1, 2)), (1, 2)):
        with pytest.raises(ValueError) as err:
            admissible_index_parts(index)
        assert str(err.value) == "non-admissible index (1,2)"
    assert type(admissible_index_parts(Index((2, 1)))) is tuple


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


def test_an_index_whose_word_is_over_the_letter_limit_is_refused():
    assert word_from_index(Index((MAX_LETTERS,))) == Word("x" * (MAX_LETTERS - 1) + "y")
    assert len(word_from_index(Index((2,) * (MAX_LETTERS // 2)))) == MAX_LETTERS
    for parts in ((MAX_LETTERS + 1,), (MAX_LETTERS, 1), (10**7,)):
        with pytest.raises(ValueError, match="over the limit of %d letters" % MAX_LETTERS):
            word_from_index(Index(parts))
        with pytest.raises(ValueError, match="over the limit"):
            eval_mzv(parts)


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


def test_plain_letters_and_parts_give_what_words_and_indices_give():
    for letters in ("xy", "xxy", "xyxy", "xxyxy"):
        assert dual(letters) == dual(Word(letters))
        assert type(dual(letters)) is Word
        assert index_from_word(letters) == index_from_word(Word(letters))
    for letters in ("", "xy", "yx", "xyx", "y"):
        assert is_admissible(letters) == is_admissible(Word(letters))
    for parts in ((2,), (3, 1), (1, 2, 1)):
        assert word_from_index(parts) == word_from_index(Index(parts))
        assert word_from_index(list(parts)) == word_from_index(Index(parts))
        assert type(word_from_index(parts)) is Word


def test_plain_text_is_checked_where_a_word_or_an_index_is_taken():
    for call in (dual, index_from_word, is_admissible):
        with pytest.raises(ValueError, match="word letters must be x or y"):
            call("xzy")
    with pytest.raises(ValueError, match="must be positive"):
        word_from_index((0,))
    with pytest.raises(ValueError, match="must be ints"):
        word_from_index((2.0,))


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


def test_admissible_index_keeps_each_index_and_refuses_other_words_every_time():
    # a fixed bound, well above the admissible words one product table maps
    assert admissible_parts.cache_info().maxsize == 1 << 16
    assert admissible_parts("xyxxy") == (2, 3)
    assert admissible_parts("xyxxy") is admissible_parts("xyxxy")
    for letters in ("", "y", "yxy", "xyx", "xx"):
        for _ in range(2):
            with pytest.raises(ValueError, match="lies outside the admissible span"):
                admissible_parts(letters)
    for w in admissible_words(8):
        assert admissible_parts(w.letters) == index_from_word(w).parts
