"""Words over the alphabet {x, y}, zeta indices, and duality.

An index (l1,...,ln) of positive integers encodes the word
z_{l1} ... z_{ln} with z_k = x^(k-1) y, so words ending in y correspond
bijectively to indices.  A word is admissible when it is empty or starts
with x and ends with y; admissible nonempty words are exactly the images
of indices with l1 >= 2, the convergent zeta arguments.

A Word is a str and an Index a tuple, checked when built and printed
in the paper's notation (the empty word as 1, an index as (2,1)); they
equal, hash and index as their letters and parts.  Sums and products key
their terms by the plain letter string, zeta combos by the plain tuple
of parts, which Word.letters and Index.parts give.  Every function here
takes a plain str or tuple where it takes a Word or an Index.
admissible_parts maps a letter string to its parts through one bounded
process-wide cache, and admissible_index_parts is the one index check.
"""

from __future__ import annotations

import functools
import itertools

from .coeffs import SPACES

# Most letters of any word the program builds: the product engines recurse
# once per letter, and 500 levels leave room under Python's default
# recursion limit of 1000 for the caller's own frames.
MAX_LETTERS = 500

class Word(str):
    """A word over {x, y}, a str checked when built; the empty word is
    the unit and prints as 1."""

    __slots__ = ()

    def __new__(cls, letters=""):
        # a Word is returned as it is: str.__new__ would read it through
        # __str__, which turns the empty word into "1"
        if isinstance(letters, Word):
            return letters
        if letters.strip("xy"):
            raise ValueError("word letters must be x or y, got %r" % letters)
        return str.__new__(cls, letters)

    letters = property(str.__str__, doc="The letters as a plain str.")

    def __str__(self):
        return self.letters or "1"

    def __repr__(self):
        return "Word(%r)" % self.letters


EMPTY_WORD = Word("")


class Index(tuple):
    """A zeta index: a nonempty tuple of positive integer parts, checked
    when built."""

    __slots__ = ()

    def __new__(cls, parts):
        self = tuple.__new__(cls, parts)
        if not all(type(p) is int for p in self):
            raise ValueError("index parts must be ints, got %r" % (self.parts,))
        if not self:
            raise ValueError("index needs at least one part")
        if min(self) < 1:
            raise ValueError("index parts must be positive, got %r" % (self.parts,))
        return self

    parts = property(tuple, doc="The parts as a plain tuple.")

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def height(self) -> int:
        return sum(1 for p in self if p > 1)

    @property
    def admissible(self) -> bool:
        return self[0] >= 2

    def __str__(self):
        return parts_str(self)

    def __repr__(self):
        return "Index(%r)" % (self.parts,)


def admissible_index_parts(index) -> tuple:
    """The parts of an admissible index, given as an Index, which was
    checked when built, or as a sequence of parts checked as an Index is;
    any other index is refused."""
    if type(index) is not Index:
        index = Index(index)
    if not index.admissible:
        raise ValueError("non-admissible index %s" % (index,))
    return index.parts


def parts_str(parts: tuple) -> str:
    """How an index prints: "(2,1)" for the parts (2, 1)."""
    return "(%s)" % ",".join(map(str, parts))


def index_letters(parts: tuple) -> str:
    """The letters of the word z_{l1}...z_{ln} for index parts already
    checked, refused when their weight, the word's length, is above
    MAX_LETTERS."""
    weight = sum(parts)
    if weight > MAX_LETTERS:
        raise ValueError("an index of weight %d is over the limit of %d letters"
                         % (weight, MAX_LETTERS))
    return "".join(["x" * (p - 1) + "y" for p in parts])


def word_from_index(idx: tuple) -> Word:
    """The word z_{l1}...z_{ln} for the index (l1,...,ln), given as an
    Index or its parts, refused as index_letters refuses it."""
    return Word(index_letters(Index(idx)))


def _parts_of(s: str) -> tuple:
    """The index parts of a nonempty string of x's and y's ending in y."""
    # each run of x's before a y gives a part len(run) + 1 >= 1
    return tuple([len(run) + 1 for run in s[:-1].split("y")])


def index_from_word(w: str) -> Index:
    """Inverse of word_from_index; defined for nonempty words ending in y,
    given as a Word or its letters."""
    w = Word(w)
    if not w.endswith("y"):
        raise ValueError("word %s does not encode an index (must end in y)" % w)
    return Index(_parts_of(w))


# Most indices admissible_parts keeps: a constant well above the 1,023
# admissible words of weight <= 11 that one table of products maps.
_ADMISSIBLE_INDICES = 1 << 16


@functools.lru_cache(maxsize=_ADMISSIBLE_INDICES)
def admissible_parts(letters: str) -> tuple:
    """The zeta index parts of a nonempty admissible word, given by its
    letters (x's and y's, already checked), from one bounded process-wide
    cache.  Any other word is refused, every time: a refusal is never kept."""
    if not letters or letters[0] != "x" or letters[-1] != "y":
        raise ValueError("word %s lies outside the admissible span" % (letters or "1"))
    return _parts_of(letters)


def is_admissible(w: str) -> bool:
    """True for the empty word and for words starting with x and ending in
    y, given as a Word or its letters."""
    w = Word(w)
    return not w or (w[0] == "x" and w[-1] == "y")


def dual(w: str) -> Word:
    """MZV duality on admissible words, given as a Word or its letters:
    reverse and swap x with y."""
    if not w or not is_admissible(w):
        raise ValueError("dual is only defined on nonempty admissible words")
    return Word("".join("x" if ch == "y" else "y" for ch in reversed(w)))


def parse_word(text: str) -> Word:
    s = text.strip(SPACES)
    if s == "1":
        return EMPTY_WORD
    return Word(s)


def parse_index(text: str) -> Index:
    """Read "(2,1)" or "2, 1": runs of ASCII digits between commas, each
    nonempty once stripped of surrounding ASCII spaces."""
    s = text.strip(SPACES)
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    parts = [p.strip(SPACES) for p in s.split(",")]
    for p in parts:
        if not (p.isascii() and p.isdigit()):
            raise ValueError("cannot parse index %r" % text)
    return Index([int(p) for p in parts])


def words_of_length(n: int):
    """All 2^n words of the given length, in canonical order (y before x)."""
    for tup in itertools.product("yx", repeat=n):
        yield Word("".join(tup))


def all_words(max_len: int):
    """All words of length 0..max_len."""
    yield EMPTY_WORD
    for n in range(1, max_len + 1):
        yield from words_of_length(n)


def admissible_words(max_weight: int):
    """All nonempty admissible words of length up to max_weight."""
    for n in range(2, max_weight + 1):
        for mid in itertools.product("xy", repeat=n - 2):
            yield Word("x" + "".join(mid) + "y")


def admissible_indices(max_weight: int):
    """All admissible indices of weight up to max_weight."""
    for w in admissible_words(max_weight):
        yield index_from_word(w)
