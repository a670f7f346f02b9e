"""Words over the alphabet {x, y}, zeta indices, and duality.

An index (l1,...,ln) of positive integers encodes the word
z_{l1} ... z_{ln} with z_k = x^(k-1) y, so words ending in y correspond
bijectively to indices.  A word is admissible when it is empty or starts
with x and ends with y; admissible nonempty words are exactly the images
of indices with l1 >= 2, the convergent zeta arguments.

A Word and an Index are the checked forms of a word and an index where
they enter or leave the program; sums and products key their terms by
the plain letter string, zeta combos by the plain tuple of parts.
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

class Word:
    """An immutable word over {x, y}; the empty word is the unit and prints as 1.

    Equality, hashing and printing use the letters alone.  A Word is the
    checked form of a word at the API edge: parsing, enumeration,
    word_from_index and dual.  Inside sums and products a word is its
    letters, a plain str.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=""):
        if isinstance(letters, Word):
            letters = letters.letters
        if letters.strip("xy"):
            raise ValueError("word letters must be x or y, got %r" % letters)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if isinstance(other, Word):
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash(self.letters)

    def count(self, letter: str) -> int:
        return self.letters.count(letter)

    def __str__(self):
        return self.letters if self.letters else "1"

    def __repr__(self):
        return "Word(%r)" % self.letters


EMPTY_WORD = Word("")


class Index:
    """A zeta index: a nonempty tuple of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not all(type(p) is int for p in parts):
            raise ValueError("index parts must be ints, got %r" % (parts,))
        if not parts:
            raise ValueError("index needs at least one part")
        if min(parts) < 1:
            raise ValueError("index parts must be positive, got %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Index is immutable")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def height(self) -> int:
        return sum(1 for p in self.parts if p > 1)

    @property
    def admissible(self) -> bool:
        return self.parts[0] >= 2

    def __eq__(self, other):
        if isinstance(other, Index):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return parts_str(self.parts)

    def __repr__(self):
        return "Index(%r)" % (self.parts,)


def admissible_index_parts(index) -> tuple:
    """The parts of an admissible index, given as an Index or as a
    sequence of parts checked as an Index is; any other index is refused."""
    if not isinstance(index, Index):
        index = Index(index)
    if not index.admissible:
        raise ValueError("non-admissible index %s" % index)
    return index.parts


def parts_str(parts: tuple) -> str:
    """How an index prints: "(2,1)" for the parts (2, 1)."""
    return "(%s)" % ",".join(map(str, parts))


def word_from_index(idx: Index) -> Word:
    """The word z_{l1}...z_{ln} for the index (l1,...,ln), refused when
    its weight, the word's length, is above MAX_LETTERS."""
    if idx.weight > MAX_LETTERS:
        raise ValueError("an index of weight %d is over the limit of %d letters"
                         % (idx.weight, MAX_LETTERS))
    return Word("".join("x" * (p - 1) + "y" for p in idx.parts))


def _parts_of(s: str) -> tuple:
    """The index parts of a nonempty string of x's and y's ending in y."""
    # each run of x's before a y gives a part len(run) + 1 >= 1
    return tuple([len(run) + 1 for run in s[:-1].split("y")])


def index_from_word(w: Word) -> Index:
    """Inverse of word_from_index; defined for nonempty words ending in y."""
    s = w.letters
    if not s or s[-1] != "y":
        raise ValueError("word %s does not encode an index (must end in y)" % w)
    return Index(_parts_of(s))


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


def is_admissible(w: Word) -> bool:
    """True for the empty word and for words starting with x and ending in y."""
    s = w.letters
    return not s or (s[0] == "x" and s[-1] == "y")


def dual(w: Word) -> Word:
    """MZV duality on admissible words: reverse and swap x with y."""
    if not w.letters or not is_admissible(w):
        raise ValueError("dual is only defined on nonempty admissible words")
    return Word("".join("x" if ch == "y" else "y" for ch in reversed(w.letters)))


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
