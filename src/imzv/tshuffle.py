"""Product engines on words.

The recursive t-shuffle is the single source of truth: on letters a, b and
words w1, w2 it satisfies

    1 sh w = w sh 1 = w
    a.w1 sh b.w2 = a(w1 sh b.w2) + b(a.w1 sh w2)
                   - [w1 empty] rho(a) b.w2 - [w2 empty] rho(b) a.w1

with rho(x) = 0 and rho(y) = t x.  Every closed form in this package is
checked against this recursion.  A product of two plain words is always of
degree at most one in t (corrections contribute single standalone words, so
no path multiplies two t factors), and no coefficient needs both parts: a
word with as many x's as both factors has a positive constant, and a word
with one x more (a rho correction turned a y into an x) a negative
multiple of t.  So every table here is one halg signed table, word -> int
c meaning c if c > 0 and c*t if c < 0, in which no sum of one product
cancels, and the engines wrap it once with halg.from_signed.

One step computes the split formula, _split_at: a sh b at one letter
of a, summed from the tails a[k:] sh b[i:] for every suffix b[i:] of b,
each times the prefix shuffle a[:k-1] sh b[:i].  Two row DPs build them
with no memo, each keeping one row of tables: _tails runs the
recursion's first-letter step from the end of a back to letter k, and
_prefixes the plain shuffle's last-letter step up to letter k-1.
tshuffle_table, the table imzv product prints, splits the longer word at
its middle letter.  split_product splits at the letter its caller names,
and block_product only reads the paper's block notation: it checks the
(letter, exponent) blocks, spells out the two words and takes their
tshuffle_table.

An engine that takes a memo takes one, cache, a plain dict the caller
owns, and no value depends on it.  It holds only the recursions' tables:
_tsh's under (u, v) keys and _sh's under (u, v, 0) keys, so one cache
serves both; split_product takes one and keeps nothing in it.  Every
table here, and every HElement built from one, is keyed by the word's
letters as a plain str.
"""

from __future__ import annotations

from .coeffs import QtPoly, binom
from .halg import HElement, from_signed, make_helement
from .words import MAX_LETTERS, Word


def _check_letters(count: int):
    """Refuse a product of words with more than MAX_LETTERS letters in all."""
    if count > MAX_LETTERS:
        raise ValueError("a product of words with %d letters in all is over the "
                         "limit of %d" % (count, MAX_LETTERS))


def _letters(w1, w2) -> tuple:
    """The letters of both words, refused above MAX_LETTERS in all."""
    u, v = Word(w1).letters, Word(w2).letters
    _check_letters(len(u) + len(v))
    return u, v


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order; none for a negative total.  Refuses a negative
    `parts`."""
    if parts < 0:
        raise ValueError("need parts >= 0")
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _tsh(u: str, v: str, memo: dict) -> dict:
    """t-shuffle of two plain strings as a signed table."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    a, u1 = u[0], u[1:]
    b, v1 = v[0], v[1:]
    # the words of a(u1 sh v) are all distinct, and for a != b none of
    # them begins like a word of b(u sh v1), so only a == b sums entries
    out = {a + w: c for w, c in _tsh(u1, v, memo).items()}
    right = _tsh(u, v1, memo)
    if a == b:
        # entries on one word share a sign, so no sum cancels
        get = out.get
        for w, c in right.items():
            w = b + w
            out[w] = get(w, 0) + c
    else:
        for w, c in right.items():
            out[b + w] = c
    if not u1 and a == "y":
        w = "x" + v
        out[w] = out.get(w, 0) - 1
    if not v1 and b == "y":
        w = "x" + u
        out[w] = out.get(w, 0) - 1
    memo[key] = out
    return out


def tshuffle_table(w1, w2) -> dict:
    """The t-shuffle product of two words as a signed table, str word ->
    int c meaning c if c > 0 and c*t if c < 0, for halg.table_str and
    table_json to print with signed_str without building a Word or a
    QtPoly per term.  Refuses words over MAX_LETTERS letters in all before
    any work.

    The table is the split formula at the middle letter of the longer
    word (the product commutes); nothing is kept between calls.  Tests
    pin it to the recursion's own table."""
    a, b = _letters(w1, w2)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return {a: 1}
    return _split_at(a, b, max(len(a) // 2, 1))


def tshuffle_words(w1, w2, cache: dict | None = None) -> HElement:
    """The t-shuffle product of two words, by direct recursion: its signed
    table wrapped with halg.from_signed.

    A cache passed in keeps the recursion's tables for every later
    product that uses it; the results must not be mutated."""
    return from_signed(_tsh(*_letters(w1, w2), {} if cache is None else cache))


def tshuffle(u: HElement, v: HElement, cache: dict | None = None) -> HElement:
    """Q[t]-bilinear extension of tshuffle_words, summed in one table of
    degree -> coefficient rows."""
    if cache is None:
        cache = {}
    # the longest word on each side sets the depth of the recursion
    _letters(max(u.terms, key=len, default=""), max(v.terms, key=len, default=""))
    acc = {}
    for w1, a in u.terms.items():
        for w2, b in v.terms.items():
            ab = (a * b).coeffs
            for w, c in _tsh(w1, w2, cache).items():
                row = acc.setdefault(w, {})
                shift = c < 0  # c*t raises each degree by one
                for d, k in ab:
                    d += shift
                    row[d] = row.get(d, 0) + k * c
    terms = {}
    for w, row in acc.items():
        c = QtPoly(row)
        if c:
            terms[w] = c
    return make_helement(terms)


def _sh(u: str, v: str, memo: dict) -> dict:
    """Plain shuffle of two strings as a signed table of multiplicities.
    It peels last letters with _append, as _prefixes does."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    key = (u, v, 0)  # apart from _tsh's (u, v) keys in a shared memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = memo[key] = _append(_sh(u[:-1], v, memo), u[-1], _sh(u, v[:-1], memo), v[-1])
    return out


def shuffle_words(w1, w2, cache: dict | None = None) -> HElement:
    """The ordinary shuffle product: sum over all order-preserving
    interleavings.  Equals the t-shuffle at t = 0.  A cache is kept and
    shared as in tshuffle_words, and one cache may serve both."""
    return from_signed(_sh(*_letters(w1, w2), {} if cache is None else cache))


def _yy_corrections(m: int, n: int):
    """Lemma 3.1's correction family for y^m sh y^n: the words
    y^i x y^(m+n-i-1) with their coefficients C(i, m-1) + C(i, n-1), for
    i = min(m,n)-1 .. m+n-2, each at least 1; none when m or n is 0, as
    y^m sh 1 has no t part.  Each enters the product as -t times its
    coefficient; the height-one forms reuse the family inside longer words.
    """
    if not (m and n):
        return
    for i in range(max(min(m, n) - 1, 0), m + n - 1):
        yield "y" * i + "x" + "y" * (m + n - i - 1), binom(i, m - 1) + binom(i, n - 1)


def yy_product_formula(m: int, n: int) -> HElement:
    """Closed form for y^m sh y^n:

        C(m+n, n) y^(m+n)
        - t * sum_{i=min(m,n)-1}^{m+n-2} [C(i, m-1) + C(i, n-1)] y^i x y^(m+n-i-1)

    Refuses m + n over MAX_LETTERS before any work.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    _check_letters(m + n)
    acc = {"y" * (m + n): binom(m + n, n)}
    for w, c in _yy_corrections(m, n):
        acc[w] = -c
    return from_signed(acc)


def xpow_times_ypow(m: int, n: int) -> HElement:
    """x^m sh y^n: the block words x^(m_1) y x^(m_2) y ... y x^(m_{n+1}),
    one per composition of m into n+1 runs, minus t times the merge words
    x^(m_1) y ... x^(m_{n-1}) y x^(m_n + m - i + 1), where the last y
    merged into the x run, over compositions (m_1..m_n) of i < m.
    Refuses m + n over MAX_LETTERS before any work."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    _check_letters(m + n)
    acc = {"y".join("x" * c for c in comp): 1 for comp in compositions(m, n + 1)}
    for i in range(m if n >= 1 else 0):
        for comp in compositions(i, n):
            w = "".join("x" * c + "y" for c in comp[:-1]) + "x" * (comp[-1] + m - i + 1)
            acc[w] = acc.get(w, 0) - 1
    return from_signed(acc)


# -t times the empty word as a signed table: the right factor of every
# correction term
_MINUS_T = {"": -1}


def _tails(a: str, b: str, k: int) -> list:
    """The signed tables a[k:] sh b[i:] for i = 0..len(b): row k of the
    recursion's first-letter DP, built from row len(a) (empty a[j:]) down
    to k.  Entry i of row j needs entry i of row j+1 and entry i+1 of row
    j, so one row, overwritten from its end, holds all that is kept."""
    m, n = len(a), len(b)
    row = [{b[i:]: 1} for i in range(n + 1)]
    for j in range(m - 1, k - 1, -1):
        la, u = a[j], a[j:]
        row[n] = {u: 1}
        for i in range(n - 1, -1, -1):
            lb = b[i]
            out = {la + w: c for w, c in row[i].items()}
            # as in _tsh, only la == lb can make two entries collide
            if la == lb:
                get = out.get
                for w, c in row[i + 1].items():
                    w = lb + w
                    out[w] = get(w, 0) + c
            else:
                for w, c in row[i + 1].items():
                    out[lb + w] = c
            if j == m - 1 and la == "y":
                w = "x" + b[i:]
                out[w] = out.get(w, 0) - 1
            if i == n - 1 and lb == "y":
                w = "x" + u
                out[w] = out.get(w, 0) - 1
            row[i] = out
    return row


def _prefixes(a: str, b: str, k: int) -> tuple:
    """The plain shuffles a[:k-1] sh b[:q] for q = 0..len(b), and
    a[:k-1] sh b[:n-1]x when b ends in y (else None): row k-1 of the
    last-letter DP, built from row 0 up, one row kept as in _tails."""
    n = len(b)
    row = [{b[:q]: 1} for q in range(n + 1)]
    corner = {b[:n - 1] + "x": 1} if n and b[-1] == "y" else None
    for p in range(1, k):
        la = a[p - 1]
        row[0] = {a[:p]: 1}
        for q in range(1, n + 1):
            row[q] = _append(row[q], la, row[q - 1], b[q - 1])
        if corner is not None:
            corner = _append(corner, la, row[n - 1], "x")
    return row, corner


def _append(left: dict, la: str, right: dict, lb: str) -> dict:
    """left . la + right . lb for two plain shuffle tables."""
    out = {w + la: c for w, c in left.items()}
    if la == lb:
        get = out.get
        for w, c in right.items():
            w += lb
            out[w] = get(w, 0) + c
    else:
        for w, c in right.items():
            out[w + lb] = c
    return out


def _add_concat(acc: dict, left: dict, mid: str, right: dict):
    """Add the concatenation product left . mid . right of two signed
    tables into the signed table acc in place.  left is a plain shuffle
    table (c > 0), and every sum in the split formula is of one sign, so
    none cancels."""
    get = acc.get
    for lw, l in left.items():
        head = lw + mid
        for rw, r in right.items():
            w = head + rw
            acc[w] = get(w, 0) + l * r


def _split_at(a: str, b: str, k: int) -> dict:
    """The split formula for a sh b at letter position k (1 <= k <= len(a)):

        sum_{i=0}^{n} (a[:k-1] sh0 b[:i]) a_k (a[k:] sh b[i:])
        - (a[:k-1] sh0 b[:n-1].rho(b_n)) a_k a[k+1:]...
        - [k == m] sum_{i=0}^{n-1} (a[:m-1] sh0 b[:i]) rho(a_m) b[i:]

    where sh0 is the plain shuffle, summed into a signed table from the
    rows of _tails and _prefixes.  The value does not depend on k.
    """
    m, n = len(a), len(b)
    tails = _tails(a, b, k)
    prefixes, corner = _prefixes(a, b, k)
    acc = {}
    for i in range(n + 1):
        _add_concat(acc, prefixes[i], a[k - 1], tails[i])
    if corner is not None:
        _add_concat(acc, corner, a[k - 1:], _MINUS_T)
    if k == m and a[-1] == "y":
        for i in range(n):
            _add_concat(acc, prefixes[i], "x" + b[i:], _MINUS_T)
    return acc


def split_product(a_word, b_word, k: int, cache: dict | None = None) -> HElement:
    """The t-shuffle a sh b computed by splitting a at letter position k
    (1 <= k <= len(a)).  The value does not depend on k.  cache is taken
    for the signature the other engines share and left untouched.
    """
    a, b = _letters(a_word, b_word)
    if not 1 <= k <= len(a):
        raise ValueError("k must satisfy 1 <= k <= len(a)")
    return from_signed(_split_at(a, b, k))


def word_blocks(w) -> tuple:
    """Run-length encode a word into (letter, exponent) blocks."""
    blocks = []
    for ch in Word(w):
        if blocks and blocks[-1][0] == ch:
            blocks[-1][1] += 1
        else:
            blocks.append([ch, 1])
    return tuple((ch, e) for ch, e in blocks)


def _blocks_to_string(blocks) -> str:
    return "".join(ch * e for ch, e in blocks)


def block_product(blocks_a, blocks_b) -> HElement:
    """The t-shuffle of two words given as (letter, exponent) blocks: the
    product imzv product prints (tshuffle_table) of the words they spell,
    wrapped with halg.from_signed.

    Each block letter must be "x" or "y".  Zero exponents are allowed and
    ignored; a negative one is refused, and so are exponents over
    MAX_LETTERS in all, before any word is built.
    """
    blocks_a, blocks_b = tuple(blocks_a), tuple(blocks_b)
    blocks = blocks_a + blocks_b
    if any(ch not in ("x", "y") for ch, _ in blocks):
        raise ValueError("each block letter must be x or y")
    if any(e < 0 for _, e in blocks):
        raise ValueError("need exponents >= 0")
    _check_letters(sum(e for _, e in blocks))
    return from_signed(tshuffle_table(_blocks_to_string(blocks_a),
                                      _blocks_to_string(blocks_b)))
